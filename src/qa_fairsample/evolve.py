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
amplitudes of all single-spin-flip neighbors through reshaped views of the
state.

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
steps does both runs, and at small N, where a kernel call costs mostly
Python overhead, it makes about a third fewer kernel calls than two runs.
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
# on the half space) through every step. fig3a, the largest preset, needs
# 1.28e7 (40 rows of 32 amplitudes, 5000 steps), and the 15-spin anneal of
# the perfbench wide-state workload 1.6e6; the budget leaves 150x over the
# former. Larger work is refused up front rather than started.
MAX_AMPLITUDE_STEPS = 2_000_000_000

# CFM4: Gauss nodes of the unit step and the weights mixing H at them.
_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_ALPHA1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_ALPHA2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0


def _check_tau(tau) -> None:
    if _finite(tau, "tau") < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")


def default_steps(tau: float) -> int:
    """Step count max(50, ceil(5 * tau)), i.e. dt = min(0.2, tau/50).

    The CFM4 error at a fixed dt peaks at intermediate tau (about 25-110 for
    the bundled models), where dt = 0.5 overshoots the 1e-6 budget six-fold.
    At dt <= 0.2 the step-doubling estimate of the bundled models stays at or
    below 1e-7 over the whole fig2 grid (tau in [1, 1000]), and that of the
    15-spin instances of the perfbench wide-state workload at or below 1e-7
    for tau in [2, 60]. Larger or stronger-coupled models may need more.

    Past tau = MAX_AMPLITUDE_STEPS / 10 the cost guard refuses every
    integration at this step count, so it is refused here, before 5 * tau
    can overflow.
    """
    _check_tau(tau)
    if tau > MAX_AMPLITUDE_STEPS / 10.0:
        raise ModelTooLargeError(
            f"tau = {tau:g} needs ceil(5 x tau) steps under the default policy, "
            f"at least 2 amplitude-steps each: over the budget of "
            f"{MAX_AMPLITUDE_STEPS:.3g}"
        )
    return max(50, math.ceil(5.0 * tau))


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

    @property
    def dt(self) -> float:
        return self.tau / self.steps


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
    if num_spins > MAX_SPINS:
        raise ModelTooLargeError(
            f"{num_spins} spins exceeds the size guard of {MAX_SPINS}"
        )
    dim = 1 << num_spins
    return np.full(dim, dim ** -0.5, dtype=np.complex128)


class _Kernel:
    """H(s) applied matrix-free, in place, to the rows of a fixed buffer.

    Spin i's flip reverses the middle axis of the view
    y.reshape(rows, 2**(N-1-i), 2, 2**i). The views of the two buffers are
    built once. The flip sum accumulates by plain elementwise adds in fixed
    spin order, which keeps the floating-point order identical for every
    batch width, as a reduction over a gathered axis would not.

    With ``half`` the buffers hold only the inversion-symmetric sector: the
    2^(N-1) amplitudes with bit N-1 clear of a state with psi(c) == psi(~c).
    Spins 0..N-2 flip within that half as above, and spin N-1's flip is the
    reversed half, since psi(c ^ 2^(N-1)) = psi(~c ^ 2^(N-1)) =
    half[2^(N-1) - 1 - c]. It is added last, so each kept amplitude sees
    the same operations in the same order as in the full space.

    ``rows(lo, hi)`` is a kernel over rows lo..hi-1 of the same buffers. It
    does the same elementwise work on those rows only, so each row's result
    does not depend on which span it was applied in. Spans are cached: at
    N = 6 building one costs about half a kernel apply.
    """

    def __init__(
        self, state: np.ndarray, flips: np.ndarray, num_spins: int, half: bool
    ):
        self.num_spins = num_spins
        self.half = half
        self.state = state
        self._flips = flips
        rows, dim = state.shape
        self._views = []
        for i in range(num_spins - 1 if half else num_spins):
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
                self.state[lo:hi], self._flips[lo:hi], self.num_spins, self.half
            )
        return span

    def apply(self, diag: np.ndarray, drive) -> None:
        """state <- diag * state - drive * sum_i X_i state, row by row.

        diag holds s * energies and drive is 1 - s; either may be scaled per row.
        """
        (out, flipped), *rest = self._views
        np.copyto(out, flipped)
        for out, flipped in rest:
            np.add(out, flipped, out=out)
        np.multiply(self.state, diag, out=self.state)
        np.multiply(self._flips, drive, out=self._flips)
        np.subtract(self.state, self._flips, out=self.state)


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
    """
    bound = (1.0 - s) * kernel.num_spins + s * emax
    substeps = np.maximum(np.ceil(bound * (h / THETA)), 1.0)
    h_sub = (h / substeps)[:, None]
    diag = (s[:, None] * tables) * h_sub
    drive = (1.0 - s)[:, None] * h_sub
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
            k += 1
            span.apply(diag[lo:hi], drive[lo:hi])
            np.multiply(term, -1j / k, out=term)
            np.add(sums, term, out=sums, where=still[:, None])
            still &= np.abs(term.view(np.float64)).max(axis=1) >= TAYLOR_TOL


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


def _check_cost(rows: int, kept: int, steps: int) -> None:
    """Refuse an integration over MAX_AMPLITUDE_STEPS before it allocates."""
    estimate = 2 * rows * kept * steps
    if estimate > MAX_AMPLITUDE_STEPS:
        raise ModelTooLargeError(
            f"integration needs {estimate:.3g} amplitude-steps (2 x {rows} rows x "
            f"{kept} amplitudes x {steps} steps), over the budget of "
            f"{MAX_AMPLITUDE_STEPS:.3g}"
        )


def _cfm4_weights(
    tables: np.ndarray, tau: float, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """|psi|^2 rows at ``steps`` and at ceil(steps/2) CFM4 steps, for each table.

    Both runs are rows of one batch: rows 0..R-1 take the fine steps and
    rows R..2R-1 the coarse ones. Coarse exponential j, of length dt_c/2 at
    dt_c = tau/ceil(steps/2), shares the first exponential of fine step j;
    the second runs on the fine rows only. For odd ``steps`` the coarse rows
    take one more exponential after the loop. When every table equals its
    reverse (no fields), only the half with bit N-1 clear is integrated and
    each row is rebuilt from it and its mirror image.
    """
    rows, dim = tables.shape
    num_spins = dim.bit_length() - 1
    half = np.array_equal(tables, tables[:, ::-1])
    if half:
        tables = tables[:, : dim // 2]
    both = np.concatenate([tables, tables])
    psi = np.tile(initial_state(num_spins)[: tables.shape[1]], (2 * rows, 1))
    if tau > 0.0:
        _check_cost(rows, tables.shape[1], steps)
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

    Models of one spin count form one batch, in order of first appearance,
    and the cost guard applies to each batch; results come back in input
    order. Each row also runs at ceil(steps/2) steps, as extra rows of the
    same batch, for its error estimate. Probabilities are renormalized by
    each row's squared norm. With ``enforce_drift`` the call raises
    IntegrationAccuracyError if any row's norm drift or error estimate is
    over the budget, or not finite; sweeps disable it and handle failures
    row by row. All results are attached to the raised error.
    """
    batches: dict[int, list[int]] = {}
    for i, model in enumerate(models):
        batches.setdefault(model.num_spins, []).append(i)
    coarse_steps = (schedule.steps + 1) // 2
    results = [None] * len(models)
    for indices in batches.values():
        tables = np.stack([energy_table(models[i]) for i in indices])
        fine, coarse = _cfm4_weights(tables, schedule.tau, schedule.steps)
        norm_sq = fine.sum(axis=1)
        probs = fine / norm_sq[:, None]
        if coarse_steps < schedule.steps:
            richardson = (schedule.steps / coarse_steps) ** 4 - 1.0
            coarse = coarse / coarse.sum(axis=1)[:, None]
            estimates = np.abs(probs - coarse).max(axis=1) / richardson
        else:
            estimates = np.full(len(indices), 0.0 if schedule.tau == 0.0 else math.inf)
        for i, p, n2, est in zip(indices, probs, norm_sq, estimates):
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

