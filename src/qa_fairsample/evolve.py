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
amplitudes of all single-spin-flip neighbors, gathered in one call for a
small batch and through reshaped views of the state for a large one.

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
The coarse run rides in the same batch as extra rows: its exponential j
goes through the first exponential of fine step j, the second exponential
of each fine step runs on the fine rows only, and an odd step count gives
the coarse rows one more exponential at the end. So one loop over the fine
steps does both runs, and at small N, where a Taylor term costs mostly the
fixed overhead of its dozen numpy calls, it makes about a third fewer
kernel calls than two runs.
This estimate is the package's one convergence measure: the coarse rows of
a run at 2n steps are bitwise a separate run at n steps, so comparing n with
2n steps is two ``evolve_many`` calls and needs no API of its own.

``evolve_many`` batches its models by spin count: the models of one size
evolve together as rows of one array, and results come back in input order.
Every operation is row-independent, and each row keeps its own schedule
value, exponential length, substep count and stopping point. Each Taylor
term applies the kernel to the contiguous span of rows still summing; rows
that have stopped inside it are computed and discarded, rows outside it are
skipped, and neither changes what any other row computes. So results are
bitwise identical whether models run alone or batched, and with or without
the coarse rows beside them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
# on the half space) through every step, summed over the spin-count batches
# of one call. fig3a, the largest preset, needs 5.12e6 (40 rows of 32
# amplitudes, 2000 steps), and the 15-spin anneal of the perfbench
# wide-state workload 1.6e6; the budget leaves 390x over the former. Larger
# work is refused up front rather than started.
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
    state equals the initial uniform superposition exactly.
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
      y.reshape(rows, 2**(N-1-i), 2, 2**i), and the views of both buffers,
      built once, are added one after another.

    With ``half`` the buffers hold only the inversion-symmetric sector: the
    2^(N-1) amplitudes with bit N-1 clear of a state with psi(c) == psi(~c).
    Spins 0..N-2 flip within that half as above, and spin N-1's flip is the
    reversed half, since psi(c ^ 2^(N-1)) = psi(~c ^ 2^(N-1)) =
    half[2^(N-1) - 1 - c]. It is added last, so each kept amplitude sees
    the same operations in the same order as in the full space.

    ``rows(lo, hi)`` is a kernel over rows lo..hi-1 of the same buffers. It
    does the same elementwise work on those rows only, so each row's result
    does not depend on which span it was applied in, nor on which form of
    the flip sum that span uses. Spans are cached: at N = 6 building one
    costs about half a kernel apply.

    ``apply`` writes all of ``flips`` before it reads any of it, so between
    applies the buffer is free scratch of the state's size.
    """

    def __init__(
        self, state: np.ndarray, flips: np.ndarray, num_spins: int, half: bool
    ):
        self.num_spins = num_spins
        self.half = half
        self.state = state
        self.flips = flips
        rows, dim = state.shape
        inner = num_spins - 1 if half else num_spins
        self._views = None
        if num_spins * rows * dim <= _GATHER_MAX:
            amplitudes = np.arange(dim)
            flipped = [amplitudes ^ (1 << i) for i in range(inner)]
            if half:
                flipped.append(amplitudes[::-1])
            starts = np.arange(0, rows * dim, dim)[:, None]
            self._index = np.stack(flipped)[:, None, :] + starts
            self._gathered = np.empty(self._index.shape, dtype=np.complex128)
        else:
            self._views = []
            for i in range(inner):
                shape = (rows, dim >> (i + 1), 2, 1 << i)
                self._views.append(
                    (flips.reshape(shape), state.reshape(shape)[:, :, ::-1, :])
                )
            if half:
                self._views.append((flips, state[:, ::-1]))
        self._spans = {}

    @classmethod
    def allocate(cls, rows: int, num_spins: int, half: bool = False) -> "_Kernel":
        sector = num_spins - 1 if half else num_spins
        state = np.empty((rows, 1 << sector), dtype=np.complex128)
        return cls(state, np.empty_like(state), num_spins, half)

    def rows(self, lo: int, hi: int) -> "_Kernel":
        span = self._spans.get((lo, hi))
        if span is None:
            span = self._spans[lo, hi] = _Kernel(
                self.state[lo:hi], self.flips[lo:hi], self.num_spins, self.half
            )
        return span

    def apply(self, diag: np.ndarray, drive) -> None:
        """state <- diag * state - drive * sum_i X_i state, row by row.

        diag holds s * energies and drive is 1 - s; either may be scaled per row.
        """
        if self._views is None:
            np.take(self.state, self._index, out=self._gathered, mode="clip")
            np.add.reduce(self._gathered, axis=0, out=self.flips, initial=_NEG_ZERO)
        else:
            (out, flipped), *rest = self._views
            np.copyto(out, flipped)
            for out, flipped in rest:
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

    diag and drive are complex here, once per exponential: the kernel's
    products would otherwise cast them on every term, and the cast
    (x -> x + 0j) is exact. diag is written into the real part of a zeroed
    complex array, so no float64 temporary of its size sits beside it, and
    the stopping test takes its magnitudes into the span's free flips
    buffer, so the term loop allocates nothing per amplitude.
    """
    bound = (1.0 - s) * kernel.num_spins + s * emax
    substeps = np.maximum(np.ceil(bound * (h / THETA)), 1.0)
    h_sub = (h / substeps)[:, None]
    diag = np.zeros(tables.shape, dtype=np.complex128)
    np.multiply(s[:, None], tables, out=diag.real)
    np.multiply(diag.real, h_sub, out=diag.real)
    drive = ((1.0 - s)[:, None] * h_sub).astype(np.complex128)
    for j in range(int(substeps.max())):
        active = substeps > j
        np.copyto(kernel.state, psi)
        count = 0
        k = 0
        while live := np.count_nonzero(active):
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
                peaks = np.empty(hi - lo)
                large = np.empty(hi - lo, dtype=bool)
            k += 1
            span.apply(span_diag, span_drive)
            np.multiply(term, -1j / k, out=term)
            np.add(sums, term, out=sums, where=adding)
            np.abs(parts, out=magnitudes)
            np.maximum.reduce(magnitudes, axis=1, out=peaks)
            np.greater_equal(peaks, TAYLOR_TOL, out=large)
            np.logical_and(still, large, out=still)


def _schedule(tau: float, steps: int):
    """Schedule values (s_a, s_b) of each CFM4 step, in step order.

    s_a and s_b lie inside their step, at t/tau plus 1/6 and 5/6 of dt/tau,
    so 0 <= s <= 1 throughout. They are generated one step at a time, so
    no step count allocates memory in proportion to it.
    """
    dt = tau / steps
    offsets = (_NODES[0] * dt, _NODES[1] * dt)
    for k in range(steps):
        start = k * dt
        s1 = (start + offsets[0]) / tau
        s2 = (start + offsets[1]) / tau
        yield 2.0 * (_ALPHA2 * s1 + _ALPHA1 * s2), 2.0 * (_ALPHA1 * s1 + _ALPHA2 * s2)


def _check_cost(shapes: Sequence[tuple[int, int]], steps: int) -> None:
    """Refuse a call whose batches together exceed MAX_AMPLITUDE_STEPS.

    ``shapes`` holds (rows, kept amplitudes) of each batch; the check runs
    before any batch is integrated.
    """
    estimate = sum(2 * rows * kept * steps for rows, kept in shapes)
    if estimate > MAX_AMPLITUDE_STEPS:
        terms = " + ".join(
            f"2 x {rows} rows x {kept} amplitudes x {steps} steps"
            for rows, kept in shapes
        )
        raise ModelTooLargeError(
            f"integration needs {estimate:.3g} amplitude-steps ({terms}), "
            f"over the budget of {MAX_AMPLITUDE_STEPS:.3g}"
        )


def _kept_tables(tables: np.ndarray) -> tuple[np.ndarray, bool]:
    """The energy tables a batch integrates, and whether they are the half space.

    When every table equals its reverse (no fields), only the half with bit
    N-1 clear is kept.
    """
    half = np.array_equal(tables, tables[:, ::-1])
    return (tables[:, : tables.shape[1] // 2] if half else tables), half


def _cfm4_weights(
    tables: np.ndarray, half: bool, tau: float, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """|psi|^2 rows at ``steps`` and at ceil(steps/2) CFM4 steps, for each table.

    ``tables`` and ``half`` come from ``_kept_tables``. Both runs are rows of
    one batch: rows 0..R-1 take the fine steps and rows R..2R-1 the coarse
    ones. Coarse exponential j, of length dt_c/2 at dt_c = tau/ceil(steps/2),
    shares the first exponential of fine step j; the second runs on the fine
    rows only. For odd ``steps`` the coarse rows take one more exponential
    after the loop. On the half space each row is rebuilt from the kept half
    and its mirror image.
    """
    rows, kept = tables.shape
    num_spins = kept.bit_length() - 1 + half
    both = np.concatenate([tables, tables])
    psi = np.tile(initial_state(num_spins)[:kept], (2 * rows, 1))
    if tau > 0.0:
        kernel = _Kernel.allocate(2 * rows, num_spins, half)
        fine, coarse = kernel.rows(0, rows), kernel.rows(rows, 2 * rows)
        emax = np.abs(both).max(axis=1)
        coarse_steps = (steps + 1) // 2
        coarse_s = itertools.chain.from_iterable(_schedule(tau, coarse_steps))
        h = np.repeat([0.5 * (tau / steps), 0.5 * (tau / coarse_steps)], rows)
        s = np.empty(2 * rows)
        for s_a, s_b in _schedule(tau, steps):
            s[:rows] = s_a
            s[rows:] = next(coarse_s)
            _exp_step(kernel, psi, both, s, h, emax)
            s[:rows] = s_b
            _exp_step(fine, psi[:rows], tables, s[:rows], h[:rows], emax[:rows])
        if steps % 2:
            s[rows:] = next(coarse_s)
            _exp_step(coarse, psi[rows:], tables, s[rows:], h[rows:], emax[rows:])
    weights = np.abs(psi) ** 2
    if half:
        weights = np.concatenate([weights, weights[:, ::-1]], axis=1)
    return weights[:rows], weights[rows:]


def evolve_many(
    models: Sequence[IsingModel],
    schedule: AnnealSchedule,
    *,
    enforce_drift: bool = True,
) -> list[EvolutionResult]:
    """Evolve several models under one schedule, one batch per spin count.

    Models of one spin count form one batch, in order of first appearance;
    results come back in input order. The cost guard applies to the sum of
    all batches and runs before the first one is integrated. Each row also
    runs at ceil(steps/2) steps, as extra rows of the same batch, for its
    error estimate. Probabilities are renormalized by each row's squared
    norm. With ``enforce_drift`` the call raises IntegrationAccuracyError if
    any row's norm drift or error estimate is over the budget, or not
    finite; sweeps disable it and handle failures row by row. All results
    are attached to the raised error.
    """
    indices: dict[int, list[int]] = {}
    for i, model in enumerate(models):
        indices.setdefault(model.num_spins, []).append(i)
    batches = [
        (members, *_kept_tables(np.stack([energy_table(models[i]) for i in members])))
        for members in indices.values()
    ]
    if schedule.tau > 0.0:
        _check_cost([tables.shape for _, tables, _ in batches], schedule.steps)
    coarse_steps = (schedule.steps + 1) // 2
    results = [None] * len(models)
    for members, tables, half in batches:
        fine, coarse = _cfm4_weights(tables, half, schedule.tau, schedule.steps)
        norm_sq = fine.sum(axis=1)
        probs = fine / norm_sq[:, None]
        if coarse_steps < schedule.steps:
            richardson = (schedule.steps / coarse_steps) ** 4 - 1.0
            coarse = coarse / coarse.sum(axis=1)[:, None]
            estimates = np.abs(probs - coarse).max(axis=1) / richardson
        else:
            estimates = np.full(len(members), 0.0 if schedule.tau == 0.0 else math.inf)
        for i, p, n2, est in zip(members, probs, norm_sq, estimates):
            results[i] = EvolutionResult(
                final_probabilities=ProbabilityVector(p),
                norm_drift=float(abs(1.0 - n2)),
                tau=schedule.tau,
                steps=schedule.steps,
                norm_squared=float(n2),
                error_estimate=float(est),
            )

    if enforce_drift:
        failures = [f for f in map(accuracy_failure, results) if f is not None]
        if failures:
            raise IntegrationAccuracyError(
                f"{failures[0]}; rerun with more steps (e.g. {2 * schedule.steps})",
                result=results if len(results) > 1 else results[0],
            )
    return results


def evolve(model: IsingModel, schedule: AnnealSchedule) -> EvolutionResult:
    """Integrate one model from t=0 to t=tau and report final probabilities."""
    return evolve_many((model,), schedule)[0]

