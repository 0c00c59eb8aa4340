"""In-memory spans around the benchmark's calls into the package.

A span records a name, its layer (the package module whose public function
was called), start and end times, the span that encloses it and the row it
belongs to. Nothing inside the package is patched: only calls the benchmark
itself makes are timed, so work a function does internally is attributed to
the module of the function the benchmark called.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import asdict, dataclass

LAYERS = ("model", "embed", "evolve", "pt", "analysis", "cli")


@dataclass(frozen=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    row: str | None
    probe: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Calls straight through; the untraced runs use this."""

    enabled = False
    probe_s = 0.0

    def call(self, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value=1):
        pass

    def high(self, name, value):
        pass


class Tracer:
    """Records spans and counters in memory until the run writes them out.

    Probe spans time a call the benchmark repeats only to measure a step the
    package performs inside another call (second-order PT). They count toward
    their own metric but not toward layer self time or coverage, and their
    time is kept apart so the traced solve time can exclude it.
    """

    enabled = True

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.row: str | None = None
        self.probe_s = 0.0
        self._stack: list[int] = []

    def call(self, layer, fn, *args, probe=False, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(
                f"{layer}.{fn.__name__}", layer, start, end, parent, self.row, probe
            )
            if probe:
                self.probe_s += end - start

    def count(self, name, value=1):
        self.counters[name] += value

    def high(self, name, value):
        self.counters[name] = max(self.counters[name], value)

    def self_times(self) -> dict[str, float]:
        """Per-layer sum of span duration minus the time direct children cover."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals = dict.fromkeys(LAYERS, 0.0)
        for index, span in enumerate(self.spans):
            if span.layer in totals and not span.probe:
                totals[span.layer] += span.duration - child_time[index]
        return totals

    def time_in(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
