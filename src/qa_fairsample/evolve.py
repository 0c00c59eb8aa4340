"""Direct integration of the annealing Schrödinger equation.

The Hamiltonian interpolates linearly between the transverse-field driver and
the diagonal target,

    H(s) = -(1 - s) * sum_i X_i + s * H_0,      s = t/tau,      hbar = 1,

and the state starts in the driver ground state (uniform superposition).

Integration uses the fourth-order commutator-free Magnus scheme CFM4 (Blanes &
Moan, Appl. Numer. Math. 56, 1519 (2006)). Because H is linear in s, a step
of length dt is two exponentials,

    psi <- exp(-i dt/2 H(s_b)) exp(-i dt/2 H(s_a)) psi,

at schedule values s_a, s_b mixed from the two Gauss nodes of the step, so
the step size follows how fast H changes rather than how large it is. Each
exponential acts on the state through a truncated Taylor series (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33, 488 (2011)): it is split into substeps short
enough that a norm bound of the substep's exponent stays below THETA, and
each substep sums terms until that row's own largest term falls below
TAYLOR_TOL. The Hamiltonian is applied matrix-free: the diagonal term scales
each amplitude by its configuration energy, and the driver term adds the
amplitudes of all single-spin-flip neighbors: gathered in one call for a
small batch; for a large one, the low spins' flips taken through an index
each and the rest added through reshaped views of the state.

Without fields every energy table is inversion symmetric, E(c) == E(~c).
H(s) then commutes with the global spin flip and the uniform start state is
flip symmetric, so psi(c) == psi(~c) at every step. When every row of a
batch has such a table, only the half of the state with bit N-1 clear is
integrated. Spin N-1's flip reads that half reversed, and the final weights
are rebuilt from it and its mirror image. Each kept amplitude goes through
the same floating-point operations in the same order as in the full space,
each row's Taylor stopping test reads the same largest term, and the norm
sums run over the rebuilt rows, so results are bitwise identical to
integrating all 2^N amplitudes at half the memory and kernel work.

A unitary step keeps the norm whatever its error, so the accuracy guard is
step doubling: every run also integrates at ceil(steps/2) steps, and the
change in the final probabilities, divided by the fourth-order Richardson
factor (15 for an even step count), estimates the error of the full run.
The coarse run is one more row of the same batch, with its own step count,
so one loop does both runs, with about a third fewer kernel calls than two
loops: at small N a Taylor term costs mostly the fixed overhead of its
numpy calls, whatever the rows. This estimate is the package's one
convergence measure: the coarse row of a run at 2n steps is bitwise a
separate run at n steps, so comparing n with 2n steps is two
``evolve_many`` calls and needs no API of its own.

``evolve_many`` batches its models by spin count, whatever their schedules:
the rows of one size evolve together in one array and one loop, and
results come back in input order. Every operation is row-independent, and
each row keeps its own schedule, exponential length, substep count and
stopping point. Rows are laid out in descending step count, so those still
running are always a leading span that a row leaves after its last step,
and each Taylor term applies the kernel to the contiguous span of rows
still summing; rows that have stopped inside it are computed and
discarded, rows outside it are skipped, and neither changes what any other
row computes. So results are bitwise identical whether models run alone or
batched, under one schedule or several, and with or without the coarse
rows beside them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import IntegrationAccuracyError, ModelTooLargeError
from .model import (
    MAX_SPINS, IsingModel, ProbabilityVector, _finite, _integer, energy_table
)

# Maximum tolerated norm drift |1 - norm^2| and step-doubling error estimate
# of the final probabilities.
DRIFT_BUDGET = 1e-6

# Largest norm bound of one Taylor substep's exponent, and the magnitude
# below which a row's Taylor terms stop.
THETA = 4.0
TAYLOR_TOL = 1e-15

# Largest 2 * rows * kept amplitudes * steps one integration may take on:
# the fine and coarse rows of a batch, each carrying 2^N amplitudes (2^(N-1)
# on the half space) through every step, times a bound on each row's Taylor
# substeps, summed over the spin-count batches of one call. fig3a, the
# largest preset, needs 5.12e6 (40 rows of 32 amplitudes, 2000 steps, one
# substep), and the 15-spin anneal of the perfbench wide-state workload
# 1.6e6; the budget leaves 390x over the former. Larger work is refused up
# front rather than started.
MAX_AMPLITUDE_STEPS = 2_000_000_000

# CFM4: Gauss nodes of the unit step and the weights mixing H at them.
_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_ALPHA1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_ALPHA2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0

# Largest gather buffer, in elements of N x rows x kept amplitudes, for
# which a kernel gathers its flip sum; larger kernels add reshaped views
# (see _Kernel). On a 2-CPU x86-64 host the gather is faster up to 2^15
# elements at every N and row count measured, and the views from about 2^16.
_GATHER_MAX = 1 << 15
_NEG_ZERO = complex(-0.0, -0.0)

# Shortest run, in amplitudes, that a view kernel adds through a reversed
# view; flips that move shorter runs are taken through an index into a
# scratch and added contiguously (see _Kernel). Spin i's view adds its 2^i
# amplitude runs as one numpy inner loop each. On a 2-CPU x86-64 host, at
# N = 11-16 and 1-8 rows, a take and an add beat the view's add for runs of
# 1-4 amplitudes and lose from 8 on, and the perfbench wide-state anneal is
# fastest at this value (BENCH_19.json). It must exceed 1, so that the
# first flip is taken.
_VIEW_MIN_RUN = 1 << 3

# TAYLOR_TOL and the factor -1j/k of Taylor term k (at index k) as numpy
# scalars, so no term converts a Python number. A substep's exponent has
# norm at most THETA, so term k of a state of norm r is at most
# r THETA^k / k!: below TAYLOR_TOL by k = 31 for r = 1, and by k = 63 for
# any r up to 1e34.
_TOL = np.float64(TAYLOR_TOL)
_TERM_FACTORS = (None, *(np.complex128(-1j / k) for k in range(1, 64)))


def _check_tau(tau) -> None:
    if _finite(tau, "tau") < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")


def default_steps(tau: float) -> int:
    """Step count max(50, min(ceil(5 * tau), 2000), ceil(2 * tau)).

    That is dt = min(0.2, tau/50) up to tau = 400, 2000 steps from there to
    tau = 1000, and dt = 0.5 beyond. The CFM4 error at a fixed dt peaks at
    intermediate tau (about 25-110 for the bundled models), where dt = 0.5
    overshoots the 1e-6 budget six-fold; dt <= 0.2 keeps the step-doubling
    estimate of the bundled models at or below 1e-7 up to tau = 400, and
    that of the 15-spin instances of the perfbench wide-state workload at or
    below 1e-7 for tau in [2, 60]. At larger tau the error per unit time
    falls, and fewer, longer steps only add Taylor terms per exponential:
    at 2000 steps the bundled embedding's worst estimate at tau = 1000 over
    J_F in [0.1, 2] is 3.8e-7, and at dt = 0.5 it is 1.2e-7 or less for tau
    in [1500, 10^4]. A flat 2000 steps would miss the budget
    at tau = 3000 (4.4e-5). Larger or stronger-coupled models may need more.

    Past tau = MAX_AMPLITUDE_STEPS / 4 the cost guard refuses every
    integration at this step count (ceil(2 * tau) steps of at least 2
    amplitude-steps each), so it is refused here, before the count can
    overflow.
    """
    _check_tau(tau)
    if tau > MAX_AMPLITUDE_STEPS / 4.0:
        raise ModelTooLargeError(
            f"tau = {tau:g} needs ceil(2 x tau) steps under the default policy, "
            f"at least 2 amplitude-steps each: over the budget of "
            f"{MAX_AMPLITUDE_STEPS:.3g}"
        )
    return max(50, min(math.ceil(5.0 * tau), 2000), math.ceil(2.0 * tau))


@dataclass(frozen=True)
class AnnealSchedule:
    """Total annealing time and uniform step count; weights are fixed linear.

    tau = 0 is allowed as a degenerate edge: no time passes and the final
    state equals the initial uniform superposition exactly, at any step
    count, as no step is taken.
    """

    tau: float
    steps: int

    def __post_init__(self):
        _check_tau(self.tau)
        _integer(self.steps, "steps")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @classmethod
    def for_tau(cls, tau: float, steps: int | None = None) -> "AnnealSchedule":
        return cls(tau=tau, steps=default_steps(tau) if steps is None else steps)


@dataclass(frozen=True)
class EvolutionResult:
    """Final-time measurement distribution of one annealing run.

    ``final_probabilities`` is renormalized, a read-only mapping over the
    bits-indexed array ``final_probabilities.vector``; ``norm_squared`` is the raw
    squared norm before renormalization and ``norm_drift`` = |1 - norm_squared|.
    ``error_estimate`` is the step-doubling estimate of the largest error in
    ``final_probabilities`` (infinite for a single step of nonzero length,
    which has no coarser run to compare with).
    """

    final_probabilities: ProbabilityVector
    norm_drift: float
    tau: float
    steps: int
    norm_squared: float
    error_estimate: float


def accuracy_failure(result: EvolutionResult) -> str | None:
    """Why a result misses the accuracy budget, or None if it meets it.

    Written as ``not (x <= budget)`` so that NaN fails too.
    """
    if result.norm_drift <= DRIFT_BUDGET and result.error_estimate <= DRIFT_BUDGET:
        return None
    return (
        f"norm drift {result.norm_drift:.3e} and step-doubling error estimate "
        f"{result.error_estimate:.3e}: over the {DRIFT_BUDGET:.0e} budget"
    )


def initial_state(num_spins: int) -> np.ndarray:
    """Uniform superposition 2^(-N/2) on every configuration: the driver ground state."""
    num_spins = _integer(num_spins, "num_spins")
    if num_spins < 1:
        raise ValueError(f"num_spins must be >= 1, got {num_spins}")
    if num_spins > MAX_SPINS:
        raise ModelTooLargeError(
            f"{num_spins} spins exceeds the size guard of {MAX_SPINS}"
        )
    dim = 1 << num_spins
    return np.full(dim, dim ** -0.5, dtype=np.complex128)


class _Kernel:
    """H(s) applied matrix-free, in place, to the rows of a fixed buffer.

    Spin i's flip maps amplitude c to c ^ 2**i. The flip sum adds the N
    flipped amplitudes in fixed spin order, one elementwise add after
    another, so each amplitude's floating-point order is the same for every
    batch width. It takes one of two forms, chosen once per kernel from the
    size of an (N, rows, kept amplitudes) gather buffer:

    - Up to _GATHER_MAX elements, one ``np.take`` fills that buffer with
      every spin's flipped amplitudes, spin-major, and one ``np.add.reduce``
      over its first axis writes the sum. numpy sums pairwise only along
      the innermost axis of an operand; a reduction over any other axis of
      a C-contiguous buffer adds its slices one after another in index
      order, the same as sequential adds. It starts from -0.0, which leaves
      every first term as it is, where numpy's own start, +0.0, would turn
      an all -0.0 sum positive.
    - Above it, where the buffer costs more memory traffic than it saves in
      calls, spin i's flip reverses the middle axis of the view
      y.reshape(rows, 2**(N-1-i), 2, 2**i), whose runs of 2**i amplitudes
      numpy adds as one inner loop each. Flips with runs shorter than
      _VIEW_MIN_RUN, spins 0-2, are taken instead: the first with
      ``state.take(index, axis=1, out=flips)``, each later one into a
      scratch of the state's size and then added contiguously. The views
      of both buffers for the other flips, built once, are added after
      them, one after another. Each amplitude sees the same adds in the
      same order either way.

    With ``half`` the buffers hold only the inversion-symmetric sector: the
    2^(N-1) amplitudes with bit N-1 clear of a state with psi(c) == psi(~c).
    Spins 0..N-2 flip within that half as above, and spin N-1's flip is the
    reversed half, since psi(c ^ 2^(N-1)) = psi(~c ^ 2^(N-1)) =
    half[2^(N-1) - 1 - c]. It is added last, so each kept amplitude sees
    the same operations in the same order as in the full space. Its run is
    the whole half, so a view kernel takes it only when the half is shorter
    than _VIEW_MIN_RUN.

    ``rows(lo, hi)`` is a kernel over rows lo..hi-1 of the same buffers. It
    does the same elementwise work on those rows only, so each row's result
    does not depend on which span it was applied in, nor on which form of
    the flip sum that span uses. Spans are cached, and are views: every
    gather span uses the leading part of one gather buffer and one index
    buffer, allocated with the kernel, and copies its index into it out of
    the widest one when it applies at another width than the last gather
    did; every view span takes through the one index per taken flip and
    into the leading rows of the one scratch allocated with the kernel.
    So a batch of many schedules, whose spans take many widths, holds no
    buffer per span.

    ``apply`` writes all of ``flips`` before it reads any of it, so between
    applies the buffer is free scratch of the state's size.
    """

    def __init__(
        self,
        state: np.ndarray,
        flips: np.ndarray,
        num_spins: int,
        half: bool,
        shared: SimpleNamespace | None = None,
    ):
        self.num_spins = num_spins
        self.half = half
        self.state = state
        self.flips = flips
        rows, dim = state.shape
        inner = num_spins - 1 if half else num_spins
        gather = num_spins * rows * dim <= _GATHER_MAX
        # the flips a view kernel takes: those whose runs, 2^i amplitudes for
        # spin i and the whole half for its reversal, are short; a prefix,
        # as the runs grow in spin order
        runs = [1 << i for i in range(inner)] + [dim] * half
        taken = 0 if gather else sum(run < _VIEW_MIN_RUN for run in runs)
        if shared is None:
            # buffers for the spans, which hold no kernel: a kernel and its
            # spans are freed as soon as the last of them is unused
            gather_rows = min(rows, _GATHER_MAX // (num_spins * dim))
            amplitudes = np.arange(dim)
            flipped = [
                amplitudes ^ (1 << i) if i < inner else amplitudes[::-1]
                for i in range(num_spins if gather_rows else taken)
            ]
            shared = SimpleNamespace(
                index=np.empty(num_spins * gather_rows * dim, dtype=np.intp),
                gathered=np.empty(num_spins * gather_rows * dim, dtype=np.complex128),
                rows=0,
                taken=flipped[:taken],
                scratch=np.empty((0 if gather else rows, dim), dtype=np.complex128),
            )
            if gather_rows:
                starts = np.arange(0, gather_rows * dim, dim)[:, None]
                shared.widest = np.stack(flipped)[:, None, :] + starts
        self._shared = shared
        self._spans = {}
        self._views = None
        if gather:
            size = num_spins * rows * dim
            self._index = shared.index[:size].reshape(num_spins, rows, dim)
            self._gathered = shared.gathered[:size].reshape(num_spins, rows, dim)
        else:
            self._taken = shared.taken
            self._scratch = shared.scratch[:rows]
            self._views = []
            for i in range(taken, inner):
                shape = (rows, dim >> (i + 1), 2, 1 << i)
                self._views.append(
                    (flips.reshape(shape), state.reshape(shape)[:, :, ::-1, :])
                )
            if half and taken <= inner:
                self._views.append((flips, state[:, ::-1]))
        # scratch of the Taylor loop's stopping test when this is its span
        self.peaks = np.empty(rows)
        self.large = np.empty(rows, dtype=bool)

    @classmethod
    def allocate(cls, rows: int, num_spins: int, half: bool = False) -> "_Kernel":
        sector = num_spins - 1 if half else num_spins
        state = np.empty((rows, 1 << sector), dtype=np.complex128)
        return cls(state, np.empty_like(state), num_spins, half)

    def rows(self, lo: int, hi: int) -> "_Kernel":
        span = self._spans.get((lo, hi))
        if span is None:
            span = self._spans[lo, hi] = _Kernel(
                self.state[lo:hi], self.flips[lo:hi], self.num_spins, self.half,
                self._shared,
            )
        return span

    def apply(self, diag: np.ndarray, drive) -> None:
        """state <- diag * state - drive * sum_i X_i state, row by row.

        diag holds s * energies and drive is 1 - s; either may be scaled per row.
        """
        if self._views is None:
            shared, rows = self._shared, self.state.shape[0]
            if shared.rows != rows:
                np.copyto(self._index, shared.widest[:, :rows])
                shared.rows = rows
            self.state.take(self._index, out=self._gathered, mode="clip")
            np.add.reduce(self._gathered, axis=0, out=self.flips, initial=_NEG_ZERO)
        else:
            first, *rest = self._taken
            self.state.take(first, axis=1, out=self.flips, mode="clip")
            for index in rest:
                self.state.take(index, axis=1, out=self._scratch, mode="clip")
                np.add(self.flips, self._scratch, out=self.flips)
            for out, flipped in self._views:
                np.add(out, flipped, out=out)
        np.multiply(self.state, diag, out=self.state)
        np.multiply(self.flips, drive, out=self.flips)
        np.subtract(self.state, self.flips, out=self.state)


def _exp_step(
    kernel: _Kernel,
    psi: np.ndarray,
    tables: np.ndarray,
    s: np.ndarray,
    h: np.ndarray,
    emax: np.ndarray,
) -> None:
    """psi <- exp(-i h_r H_r(s_r)) psi per row r, in place, by Taylor series.

    Row r takes m_r substeps, where ((1-s_r) N + s_r max|E_r|) h_r / m_r <=
    THETA bounds the norm of each substep's exponent. A row's series stops
    once the largest real or imaginary part of its own latest term is below
    TAYLOR_TOL; rows that have stopped keep their sum unchanged. Each term
    applies the kernel only to the span from the first to the last row still
    summing, which is found again whenever the count of such rows changes.
    Rows inside the span that have stopped are computed and discarded, so
    every row sees the same operations whatever the other rows do.

    A row stops only when all its parts are below TAYLOR_TOL, the real part
    of its first amplitude among them. So the exact per-row test runs only
    after a term in which that one part is not at or above TAYLOR_TOL in
    some row of the span; on most terms it is in every row, and three calls
    on one part per row settle it. The magnitudes go into the span's free
    flips buffer and the compares into the span's own scratch, so the term
    loop allocates nothing.

    diag and drive are complex here, once per exponential: the kernel's
    products would otherwise cast them on every term, and the cast
    (x -> x + 0j) is exact. Each is written into the real part of a zeroed
    complex array, so no float64 temporary of its size sits beside it. A
    gather kernel's drive fills the shape of the state, which the kernel
    multiplies elementwise instead of broadcasting a column; a view
    kernel's stays one column, as its state can be large.
    """
    bound = (1.0 - s) * kernel.num_spins + s * emax
    substeps = np.maximum(np.ceil(bound * (h / THETA)), 1.0)
    h_sub = (h / substeps)[:, None]
    diag = np.zeros(tables.shape, dtype=np.complex128)
    np.multiply(s[:, None], tables, out=diag.real)
    np.multiply(diag.real, h_sub, out=diag.real)
    column = kernel._views is not None
    drive = np.zeros(h_sub.shape if column else tables.shape, dtype=np.complex128)
    np.multiply((1.0 - s)[:, None], h_sub, out=drive.real)
    for j in range(int(substeps.max())):
        active = substeps > j
        np.copyto(kernel.state, psi)
        live = np.count_nonzero(active)
        count = 0
        k = 0
        while live:
            if live != count:
                count = live
                summing = np.flatnonzero(active)
                lo, hi = summing[0], summing[-1] + 1
                span = kernel.rows(lo, hi)
                term, sums, still = span.state, psi[lo:hi], active[lo:hi]
                span_diag, span_drive = diag[lo:hi], drive[lo:hi]
                # where=True is numpy's unmasked add: every row in the span sums
                adding = True if live == hi - lo else still[:, None]
                parts = term.view(np.float64)
                magnitudes = span.flips.view(np.float64)
                firsts, peaks, large = parts[:, 0], span.peaks, span.large
            k += 1
            span.apply(span_diag, span_drive)
            np.multiply(term, _TERM_FACTORS[k], out=term)
            np.add(sums, term, out=sums, where=adding)
            np.abs(firsts, out=peaks)
            np.greater_equal(peaks, _TOL, out=large)
            if np.count_nonzero(large) < large.size:
                np.abs(parts, out=magnitudes)
                np.maximum.reduce(magnitudes, axis=1, out=peaks)
                np.greater_equal(peaks, _TOL, out=large)
                np.logical_and(still, large, out=still)
                live = np.count_nonzero(active)


def _check_cost(
    batches: Sequence[tuple[np.ndarray, bool, Sequence[AnnealSchedule]]],
) -> None:
    """Refuse a call whose rows together exceed MAX_AMPLITUDE_STEPS.

    ``batches`` holds the kept tables, the half flag and each row's schedule
    of each batch. A row at tau > 0 costs 2 x kept x its own steps, for its
    fine and coarse runs, times m = ceil(max(N, max|E|) tau / (2 steps
    THETA)), a bound on the Taylor substeps of each of its fine
    exponentials. A row whose bound is not finite is refused as well, and
    so is one whose own 2 x steps is over the budget, before its step count
    is converted to a float. Rows at tau = 0 cost nothing, whatever their
    step count. The check runs before any batch is integrated.
    """
    rows = Counter()  # per batch, step count and m, in order of first appearance
    for b, (tables, half, schedules) in enumerate(batches):
        kept = tables.shape[1]
        num_spins = kept.bit_length() - 1 + half
        norms = np.maximum(np.abs(tables).max(axis=1), num_spins).tolist()
        for norm, schedule in zip(norms, schedules):
            tau, steps = schedule.tau, schedule.steps
            if tau > 0.0:
                # the row costs at least 2 x steps; compared as integers, as
                # the count may be too large to convert to a float
                if 2 * steps > MAX_AMPLITUDE_STEPS:
                    raise ModelTooLargeError(
                        f"a row at tau = {tau:g} takes more than "
                        f"{MAX_AMPLITUDE_STEPS // 2} steps, each at least 2 "
                        f"amplitude-steps: over the budget of {MAX_AMPLITUDE_STEPS:.3g}"
                    )
                bound = norm * tau / (2 * steps * THETA)
                if not math.isfinite(bound):
                    raise ModelTooLargeError(
                        f"a {num_spins}-spin row at tau = {tau:g} has a Taylor "
                        f"substep bound max(N, max|E|) x tau / (2 x steps x THETA) "
                        f"of {bound:g}: its energies are too large to integrate"
                    )
                rows[b, kept, steps, max(math.ceil(bound), 1)] += 1
    estimate = sum(2.0 * n * kept * steps * m for (_, kept, steps, m), n in rows.items())
    if estimate > MAX_AMPLITUDE_STEPS:
        terms = " + ".join(
            f"2 x {n} rows x {kept} amplitudes x {steps} steps"
            + (f" x {m:.6g} substeps" if m > 1 else "")
            for (_, kept, steps, m), n in rows.items()
        )
        raise ModelTooLargeError(
            f"integration needs {estimate:.3g} amplitude-steps ({terms}), "
            f"over the budget of {MAX_AMPLITUDE_STEPS:.3g}"
        )


def _kept_tables(tables: np.ndarray) -> tuple[np.ndarray, bool]:
    """The energy tables a batch integrates, and whether they are the half space.

    When every table equals its reverse (no fields), only the half with bit
    N-1 clear is kept, as a copy, so the full tables can be freed.
    """
    half = np.array_equal(tables, tables[:, ::-1])
    return (tables[:, : tables.shape[1] // 2].copy() if half else tables), half


def _cfm4_weights(
    tables: np.ndarray, half: bool, schedules: Sequence[AnnealSchedule]
) -> tuple[np.ndarray, np.ndarray]:
    """|psi|^2 of each row after its own schedule's CFM4 steps.

    ``tables`` and ``half`` come from ``_kept_tables``. ``schedules`` holds
    one schedule per row, and row r integrates table r mod len(tables), so
    a table runs once under each of its schedules without being copied
    first. All rows are taken through their steps by one loop. They are
    laid out in descending step count, rows at tau = 0, which take no step,
    last, so the rows still running are always a leading span [0, live)
    that a row leaves after its last step. Loop step j applies both
    exponentials of step j, each of length dt/2, to that span, at schedule
    values s_a and s_b that lie inside the step, at t/tau plus 1/6 and 5/6
    of dt/tau, so 0 <= s <= 1 throughout. On the half space each row is
    rebuilt from the kept half and its mirror image. Returns the weights in
    that layout and the index of each row in them.
    """
    tau = np.array([schedule.tau for schedule in schedules], dtype=float)
    # a row at tau = 0 takes no step, whatever its step count, which the cost
    # guard has not bounded
    running = np.array([sched.steps if sched.tau > 0.0 else 0 for sched in schedules])
    order = np.argsort(-running, kind="stable")
    tables = tables[order % len(tables)]
    tau, running = tau[order], running[order]
    rows, kept = tables.shape
    num_spins = kept.bit_length() - 1 + half
    psi = np.tile(initial_state(num_spins)[:kept], (rows, 1))
    kernel = _Kernel.allocate(np.count_nonzero(running), num_spins, half)
    emax = np.abs(tables).max(axis=1)
    dt = tau / np.maximum(running, 1)
    h = 0.5 * dt
    offsets = (_NODES[0] * dt, _NODES[1] * dt)
    for j in range(running[0]):
        live = np.count_nonzero(running > j)
        at = slice(0, live)
        start = j * dt[at]
        s1 = (start + offsets[0][at]) / tau[at]
        s2 = (start + offsets[1][at]) / tau[at]
        s_a = 2.0 * (_ALPHA2 * s1 + _ALPHA1 * s2)
        s_b = 2.0 * (_ALPHA1 * s1 + _ALPHA2 * s2)
        span = kernel.rows(0, live)
        for s in (s_a, s_b):
            _exp_step(span, psi[at], tables[at], s, h[at], emax[at])
    # written into one array of the rebuilt width, so no temporary of the
    # state's size sits beside the kernel
    weights = np.empty((rows, kept << half))
    kept_weights = weights[:, :kept]
    np.square(np.abs(psi, out=kept_weights), out=kept_weights)
    if half:
        weights[:, kept:] = kept_weights[:, ::-1]
    return weights, np.argsort(order)


def evolve_many(
    models: Sequence[IsingModel],
    schedule: AnnealSchedule | Sequence[AnnealSchedule],
    *,
    enforce_drift: bool = True,
) -> list[EvolutionResult]:
    """Evolve several models, one batch per spin count.

    ``schedule`` is one schedule shared by every model or one per model, in
    the models' order; a count that does not match raises ValueError.
    Models of one spin count form one batch, in order of first appearance,
    whatever their schedules; results come back in input order. The cost
    guard sums every row's own steps and substeps over all batches and runs
    before the first one is integrated. Each model also runs at ceil(steps/2) steps,
    as one more row of the same batch, for its error estimate.
    Probabilities are renormalized by each row's squared norm. With
    ``enforce_drift`` the call raises IntegrationAccuracyError if any row's
    norm drift or error estimate is over the budget, or not finite; sweeps
    disable it and handle failures row by row. All results are attached to
    the raised error.
    """
    if isinstance(schedule, AnnealSchedule):
        schedule = [schedule] * len(models)
    elif len(schedule) != len(models):
        raise ValueError(f"{len(schedule)} schedules for {len(models)} models")
    elif not all(isinstance(item, AnnealSchedule) for item in schedule):
        raise TypeError("schedules must be AnnealSchedule instances")
    indices: dict[int, list[int]] = {}
    for i, model in enumerate(models):
        indices.setdefault(model.num_spins, []).append(i)
    batches = [
        (
            members,
            *_kept_tables(np.stack([energy_table(models[i]) for i in members])),
            [schedule[i] for i in members],
        )
        for members in indices.values()
    ]
    _check_cost([batch[1:] for batch in batches])
    results = [None] * len(models)
    for members, tables, half, own in batches:
        halved = [AnnealSchedule(s.tau, (s.steps + 1) // 2) for s in own]
        weights, at = _cfm4_weights(tables, half, own + halved)
        norm_sq = weights.sum(axis=1)
        weights /= norm_sq[:, None]
        for row, i in enumerate(members):
            tau, steps = schedule[i].tau, schedule[i].steps
            fine, coarse = at[row], at[row + len(members)]
            p, n2 = weights[fine], norm_sq[fine]
            coarse_steps = (steps + 1) // 2
            if coarse_steps < steps:
                richardson = (steps / coarse_steps) ** 4 - 1.0
                estimate = np.abs(p - weights[coarse]).max() / richardson
            else:
                estimate = 0.0 if tau == 0.0 else math.inf
            results[i] = EvolutionResult(
                final_probabilities=ProbabilityVector(p),
                norm_drift=float(abs(1.0 - n2)),
                tau=tau,
                steps=steps,
                norm_squared=float(n2),
                error_estimate=float(estimate),
            )

    if enforce_drift:
        for result in results:
            failure = accuracy_failure(result)
            if failure is not None:
                raise IntegrationAccuracyError(
                    f"{failure}; rerun with more steps (e.g. {2 * result.steps})",
                    result=results if len(results) > 1 else results[0],
                )
    return results


def evolve(model: IsingModel, schedule: AnnealSchedule) -> EvolutionResult:
    """Integrate one model from t=0 to t=tau and report final probabilities."""
    return evolve_many((model,), schedule)[0]

