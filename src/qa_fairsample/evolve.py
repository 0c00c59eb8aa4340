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
amplitudes of all single-spin-flip neighbors: gathered in one call for rows
of any sizes together; for many large rows of one size, the low spins' flips
taken through an index each and the rest added through reshaped views.

Without fields every energy table is inversion symmetric, E(c) == E(~c).
H(s) then commutes with the global spin flip and the uniform start state is
flip symmetric, so psi(c) == psi(~c) at every step. When every row of one
spin count has such a table, they keep only the half with bit N-1 clear,
whose reversal is spin N-1's flip, and the final weights are rebuilt from it
and its mirror image. Each kept amplitude takes the same floating-point
operations in the same order as in the full space, and each row's Taylor
stopping test reads the same largest term, so results are bitwise those of
all 2^N amplitudes at half the memory and kernel work.

A unitary step keeps the norm whatever its error, so the accuracy guard is
step doubling: every run also integrates at ceil(steps/2) steps, and the
change in the final probabilities, divided by the fourth-order Richardson
factor (15 for an even step count), estimates the error of the full run.
The coarse run is one more row of the same batch, with its own step count,
so the batch's loop does both runs. This estimate is the package's one
convergence measure: the coarse row of a run at 2n steps is bitwise a
separate run at n steps, so comparing n with 2n steps is two ``evolve_many``
calls and needs no API of its own.

When a model's coupling graph splits into connected components (an
isolated spin is one), H(s) is a sum of commuting parts and the start state
a product, so each component runs as a row of its own size, whose spin
count chooses the half space for itself; the cost guard counts those rows.
The fine and the coarse weights are each the product of the components'
vectors, by lowest spin, left to right, each reshaped to N axes, of size 2
on its own spins and 1 elsewhere. A product's sum is ``norm_squared``, and
|1 - norm_squared| the norm drift; the normalised products give the error
estimate as any row's do. A connected model is its own one component.

``evolve_many`` groups these rows by spin count, whatever their schedules.
The groups small enough to gather their flip sum alone share one batch,
their rows end to end in one array, on one kernel and one CFM4 loop: at
these sizes a loop costs mostly the fixed overhead of its numpy calls. A
larger group is a batch of its own. Batches run on the calling thread, and
results come back in input order. Every operation is row-independent, and
each row keeps its own schedule, exponential length, substep count and
stopping point; a row that has stopped or finished is computed and
discarded or skipped, which changes what no other row computes. So results
are bitwise identical whether models run alone or batched, whatever the
other rows' sizes and schedules, and with or without the coarse rows beside
them; a product takes its factors in a fixed order, so a split model's are
too.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import IntegrationAccuracyError, ModelTooLargeError
from .model import IsingModel, ProbabilityVector, _finite, _integer, energy_table
from .model import _components, _less_terms

# Maximum tolerated norm drift |1 - norm^2| and step-doubling error estimate
# of the final probabilities.
DRIFT_BUDGET = 1e-6

# Largest norm bound of one Taylor substep's exponent, and the magnitude
# below which a row's Taylor terms stop.
THETA = 4.0
TAYLOR_TOL = 1e-15

# Largest work, in amplitude-steps, one integration may take on. A batch's
# rows cost 2 * rows * kept amplitudes * steps, for its fine and coarse rows,
# each carrying 2^N amplitudes (2^(N-1) on the half space) through every
# step, times a bound on each row's Taylor substeps. Its loop costs
# SUBSTEP_COST for each of its Taylor substeps, at most 2 * its longest step
# count * its largest substep bound, fine or coarse. Both are summed over
# the batches of the component rows of one call. fig3a, the largest preset,
# needs 4.5e7: 5.12e6 for 40 rows of 32 amplitudes over 2000 steps of one
# substep, and 4e7 for 4000 loop substeps; the budget leaves 44x over that.
# fig2 needs 4.3e7, 4e7 of it for the one loop of its 5- and 6-spin rows.
# Larger work is refused up front rather than started.
MAX_AMPLITUDE_STEPS = 2_000_000_000

# The fixed cost of one Taylor substep of a batch's loop, in amplitude-steps:
# its terms' numpy calls cost about the same whatever the rows, so a batch of
# few amplitudes whose exponentials take millions of substeps each is
# refused, where counting amplitudes alone let it start and never finish.
# The budget admits 2e5 loop substeps in one call, 1e5 steps of one substep
# each: the default policy's steps at tau = 5e4, for a small model.
SUBSTEP_COST = 10_000

# CFM4: Gauss nodes of the unit step and the weights mixing H at them.
_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_ALPHA1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_ALPHA2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0

# Most CFM4 steps whose schedule values and substeps are computed together,
# as arrays over (step, row): a bound on that memory, whatever the steps.
_STEP_BLOCK = 64

# Largest gather buffer, in elements of N x rows x kept amplitudes, with
# which rows of one size gather their flip sum alone; more add reshaped
# views (see _Kernel). On a 2-CPU x86-64 host the gather is faster up to 2^15
# elements at every N and row count measured, and the views from about 2^16.
_GATHER_MAX = 1 << 15
_NEG_ZERO = complex(-0.0, -0.0)
_ADD_REDUCE = np.add.reduce

# Shortest run, in amplitudes, that a view kernel adds through a reversed
# view; shorter ones are taken through an index (see _Kernel). On a 2-CPU
# x86-64 host, at N = 11-16 and 1-8 rows, a take and an add beat the view's
# add for runs of 1-4 amplitudes and lose from 8 on; a joint 15-spin
# zero-field anneal (two half rows of 2^14 amplitudes) is fastest at this
# value (BENCH_19.json). It must exceed 1, so that the first flip is taken.
_VIEW_MIN_RUN = 1 << 3

# TAYLOR_TOL and the factor -1j/k of Taylor term k (at index k) as numpy
# scalars, so no term converts a Python number. A substep's exponent has norm
# at most THETA, so term k of a state of norm r is at most r THETA^k / k!:
# below TAYLOR_TOL by k = 31 for r = 1, and by k = 63 for any r up to 1e34.
_TOL = np.float64(TAYLOR_TOL)
_TERM_FACTORS = (None, *(np.complex128(-1j / k) for k in range(1, 64)))


def _check_tau(tau) -> None:
    if _finite(tau, "tau") < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")


def _default_steps(tau: float) -> int:
    """Step count max(2, ceil(sqrt(250 tau)), min(ceil(5 tau), 2000),
    ceil(2 tau)).

    That is dt = min(0.2, sqrt(tau/250)) up to tau = 400, 2000 steps from
    there to tau = 1000, and dt = 0.5 beyond, never fewer than 2 steps: at
    1 step the coarse run of the error estimate does not exist, and the
    estimate is infinite.

    Below tau = 10 the steps grow as sqrt(tau): 16 at tau = 1, 23 at 2, 36
    at 5 and 48 at 8.86. Against runs at 8x the steps, on the bundled
    source, its embedding at J_F in [0.05, 2] and the 3- and 4-spin chain
    fixtures at J* + 0.5, the worst actual error is 1.5e-7 up to tau = 6.2
    and 4.5e-7 at tau = 7.6 (the 4-spin chain), where dt = 0.2 gives that
    chain 2.6e-7 at tau = 10; every actual error is 0.86-1.2x its
    estimate. On random models of up to 6 spins with |J| <= 2 and
    |h| <= 1 the worst is 6.3e-7 below tau = 10 and 5.8e-7 at tau = 10. A
    flat floor of 50 steps put the bundled models' actual error at 1e-13 to
    3e-8 for tau in [0.1, 5], 30 to 10^7 times under the budget. From
    tau = 10 on, sqrt(250 tau) <= 5 tau, so that term adds no step there.

    The CFM4 error at a fixed dt peaks at intermediate tau (about 25-110
    for the bundled models), where dt = 0.5 overshoots the 1e-6 budget
    six-fold; dt <= 0.2 keeps the step-doubling estimate of the bundled
    models at or below 1.2e-7 for tau in [10, 400]. The 15-spin perfbench
    wide-state instances anneal at tau = 2 in 23 steps, with estimates of
    1.5e-9 to 8.6e-9 over six seeds. At larger tau the error per unit time
    falls, and fewer, longer steps only add Taylor terms per exponential: at
    2000 steps the bundled embedding's worst estimate at tau = 1000 over J_F
    in [0.1, 2] is 3.8e-7, and at dt = 0.5 it is 1.2e-7 or less for tau in
    [1500, 10^4]. A flat 2000 steps would miss the budget at tau = 3000
    (4.4e-5). Larger or stronger-coupled models may need more.

    Past tau = MAX_AMPLITUDE_STEPS / 4 the cost guard refuses every
    integration at this step count (ceil(2 * tau) steps of at least 2
    amplitude-steps each), so it is refused here, before it can overflow.
    """
    _check_tau(tau)
    if tau > MAX_AMPLITUDE_STEPS / 4.0:
        raise ModelTooLargeError(
            f"tau = {tau:g} needs ceil(2 x tau) steps under the default policy, "
            f"at least 2 amplitude-steps each: over the budget of "
            f"{MAX_AMPLITUDE_STEPS:.3g}"
        )
    return max(
        2,
        math.ceil(math.sqrt(250.0 * tau)),
        min(math.ceil(5.0 * tau), 2000),
        math.ceil(2.0 * tau),
    )


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
        return cls(tau=tau, steps=_default_steps(tau) if steps is None else steps)


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


def _accuracy_failure(result: EvolutionResult) -> str | None:
    """Why a result misses the accuracy budget, or None if it meets it.

    Written as ``not (x <= budget)`` so that NaN fails too.
    """
    if result.norm_drift <= DRIFT_BUDGET and result.error_estimate <= DRIFT_BUDGET:
        return None
    return (
        f"norm drift {result.norm_drift:.3e} and step-doubling error estimate "
        f"{result.error_estimate:.3e}: over the {DRIFT_BUDGET:.0e} budget"
    )


def _initial_state(num_spins: int) -> np.ndarray:
    """Uniform superposition 2^(-N/2) on every configuration: the driver ground state."""
    dim = 1 << num_spins
    return np.full(dim, dim ** -0.5, dtype=np.complex128)


def _gathers(num_spins: int, rows: int, kept: int) -> bool:
    """Whether rows of one size gather their flip sum alone (see _GATHER_MAX)."""
    return num_spins * rows * kept <= _GATHER_MAX


class _Kernel:
    """H(s) applied matrix-free, in place, to rows laid end to end in flat buffers.

    Row r holds the 2^N_r amplitudes of its state from its offset on, or on
    the half space the 2^(N_r - 1) with bit N_r - 1 clear, whose reversal is
    spin N_r - 1's flip: psi(c ^ 2^(N-1)) = psi(~c ^ 2^(N-1)) =
    half[2^(N-1) - 1 - c]. Spin i's flip maps amplitude c to c ^ 2**i. A
    row's flip sum adds its flips in spin order, one elementwise add after
    another, so each amplitude's floating-point order is that of any batch:

    - A gather kernel, over rows of any sizes and spaces, fills an (N_max,
      amplitudes) buffer through one ``np.take`` of an index built once, and
      one ``np.add.reduce`` over its first axis, from -0.0, writes the sum.
      numpy sums pairwise only along the innermost axis of an operand, and
      adds the slices of any other axis of a C-contiguous buffer one after
      another. A row of fewer than N_max spins points its missing flips at a
      slot past the last row that holds -0.0: x + (-0.0) is x bitwise, +0.0
      included, as is the start, where numpy's own, +0.0, would turn an all
      -0.0 sum positive.
    - A view kernel, over rows of one size and space too many to gather (see
      _gathers), adds for spin i the view y.reshape(rows, 2**(N-1-i), 2,
      2**i) with its middle axis reversed, its runs of 2**i amplitudes one
      numpy inner loop each. Flips with runs shorter than _VIEW_MIN_RUN are
      taken instead, the first into flips, each later one into a scratch and
      then added, before the views, built once, are added.

    A kernel also owns its Taylor loop's complex ``diag`` and ``drive``, with
    imaginary parts zeroed once, its rows' ``active`` mask and ``owner``, the
    row of each amplitude; ``spread`` lays per-row values out like drive.
    ``rows(lo, hi)`` is a kernel, cached, over rows lo..hi-1 of the same
    buffers, with its views of them built once, and no state-sized buffer of
    its own: a gather span copies its columns of the index into one shared
    buffer when another span applied last. ``apply`` writes all of ``flips``
    before it reads any of it, so between applies it is free scratch.
    """

    def __init__(self, batch: SimpleNamespace, lo: int, hi: int):
        a, b = batch.offsets[lo], batch.offsets[hi]
        self._batch, self._lo, self._spans, self.at = batch, lo, {}, slice(a, b)
        self.state, self.flips = batch.padded[a:b], batch.flips[a:b]
        self.owner, self.mask = batch.owner[a:b], batch.mask[a:b]
        self.active = batch.active[lo:hi]
        # drive per amplitude in a gather kernel; in a view one per row, and
        # diag, state and flips rows of one length, for broadcast products
        cut = slice(lo, hi) if batch.view else self.at
        self.spread, self.scale = batch.spread[cut], batch.scale[cut]
        self.diag, self.drive = batch.diag[cut], batch.drive[cut]
        shape = self.diag.shape
        self._grid = state, flips = self.state.reshape(shape), self.flips.reshape(shape)
        if batch.view is None:
            spins, width = max(batch.spins[lo:hi]), b - a
            self._key, self._take, self._views = (lo, hi), batch.padded.take, None
            self._columns = batch.index[:spins, a:b]
            self._index = batch.columns[: spins * width].reshape(spins, width)
            self._gathered = batch.gathered[: spins * width].reshape(spins, width)
        else:
            (num_spins, half), rows, dim = batch.view, hi - lo, batch.lengths[0]
            self._take, self._taken = state.take, batch.taken
            self._scratch = batch.scratch[:rows]
            shapes = [(rows, dim >> (i + 1), 2, 1 << i)
                      for i in range(len(batch.taken), num_spins - half)]
            self._views = [(flips.reshape(shape), state.reshape(shape)[:, :, ::-1, :])
                           for shape in shapes]
            if half and len(batch.taken) < num_spins:
                self._views.append((flips, state[:, ::-1]))
        # the Taylor loop's views and scratch; its pre-test reads the amplitudes at
        # multiples of the shortest row's length, each row's first among them
        self.parts = self.state.view(np.float64)
        self.firsts = self.parts[:: 2 * min(batch.lengths[lo:hi])]
        self.magnitudes = self.flips.view(np.float64)
        self.starts = 2 * (np.array(batch.offsets[lo:hi]) - a)
        self.peaks = np.empty(hi - lo)
        self.large = np.empty(hi - lo, dtype=bool)

    @classmethod
    def allocate(cls, spins: Sequence[int], halves: Sequence[bool]) -> "_Kernel":
        """A kernel over rows of ``spins`` spins, on the half space where ``halves``
        says: of view form if they share one size and space too many to gather."""
        spins, halves = np.array(spins), np.array(halves, dtype=bool)
        lengths = 1 << (spins - halves)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        rows, total = len(spins), int(offsets[-1])
        owner = np.repeat(np.arange(rows), lengths)
        padded = np.empty(total + 1, dtype=np.complex128)
        padded[total] = _NEG_ZERO
        batch = SimpleNamespace(
            spins=spins.tolist(), lengths=lengths.tolist(), offsets=offsets.tolist(),
            padded=padded, flips=np.empty(total, dtype=np.complex128), owner=owner,
            spread=owner, mask=np.empty(total, dtype=bool),
            active=np.empty(rows, dtype=bool), view=None, indexed=None,
        )
        shapes = set(zip(batch.spins, halves.tolist()))
        if len(shapes) == 1 and not _gathers(spins[0], rows, lengths[0]):
            batch.view = num_spins, half = shapes.pop()
            dim, inner = batch.lengths[0], num_spins - half
            batch.spread = np.arange(rows)[:, None]
            runs = [1 << i for i in range(inner)] + [dim] * half
            amplitudes = np.arange(dim)
            batch.taken = [
                amplitudes ^ (1 << i) if i < inner else amplitudes[::-1]
                for i in range(sum(run < _VIEW_MIN_RUN for run in runs))
            ]
            batch.scratch = np.empty((rows, dim), dtype=np.complex128)
        else:
            first = offsets[owner]
            local = np.arange(total) - first
            inner = (spins - halves)[owner]
            spin = np.arange(spins.max())[:, None]
            flipped = np.where(spin < inner, first + (local ^ (1 << spin)), total)
            mirrored = (spin == inner) & halves[owner]
            batch.index = np.where(mirrored, first + lengths[owner] - 1 - local, flipped)
            batch.columns = np.empty(batch.index.size, dtype=np.intp)
            batch.gathered = np.empty(batch.index.size, dtype=np.complex128)
        batch.scale = np.empty(batch.spread.shape)
        batch.drive = np.zeros(batch.spread.shape, dtype=np.complex128)
        grid = batch.scratch.shape if batch.view else total
        batch.diag = np.zeros(grid, dtype=np.complex128)
        return cls(batch, 0, rows)

    def rows(self, lo: int, hi: int) -> "_Kernel":
        span = self._spans.get((lo, hi))
        if span is None:
            span = self._spans[lo, hi] = _Kernel(self._batch, self._lo + lo, self._lo + hi)
        return span

    def apply(self, diag: np.ndarray, drive: np.ndarray) -> None:
        """state <- diag * state - drive * sum_i X_i state, amplitude by
        amplitude; diag holds s * energies and drive 1 - s, scaled per row."""
        state, flips = self._grid
        if self._views is None:
            if self._batch.indexed is not self._key:
                np.copyto(self._index, self._columns)
                self._batch.indexed = self._key
            self._take(self._index, out=self._gathered, mode="clip")
            _ADD_REDUCE(self._gathered, axis=0, out=flips, initial=_NEG_ZERO)
        else:
            first, *rest = self._taken
            self._take(first, axis=1, out=flips, mode="clip")
            for index in rest:
                self._take(index, axis=1, out=self._scratch, mode="clip")
                np.add(flips, self._scratch, out=flips)
            for out, flipped in self._views:
                np.add(out, flipped, out=out)
        # out given by position: the keyword costs a measurable share of a term
        np.multiply(state, diag, state)
        np.multiply(flips, drive, flips)
        np.subtract(state, flips, state)


def _substeps(num_spins, s, h, emax):
    """Substeps m, length h/m and drive (1 - s) h/m of exponentials, elementwise:
    ((1-s) N + s max|E|) h / m <= THETA bounds each substep's exponent norm."""
    bound = (1.0 - s) * num_spins + s * emax
    substeps = np.maximum(np.ceil(bound * (h / THETA)), 1.0)
    h_sub = h / substeps
    return substeps, h_sub, (1.0 - s) * h_sub


@np.errstate(invalid="ignore")
def _exp_step(kernel: _Kernel, psi, tables, s, substeps, h_sub, drive) -> None:
    """psi <- exp(-i h_r H_r(s_r)) psi per row r, in place, by Taylor series.

    ``kernel`` is a leading span, from row 0 of its buffers, and ``psi`` and
    ``tables`` are flat over its amplitudes. Row r takes substeps[r]
    substeps of length h_sub[r], at drive[r] (see _substeps). A row's series
    stops once the largest real or imaginary part of its own latest term is
    below TAYLOR_TOL; rows that have stopped keep their sum unchanged. Each
    term applies the kernel only to the span from the first to the last row
    still summing, found again whenever their count changes. Rows inside the
    span that have stopped are computed and discarded, so every row sees the
    same operations whatever the other rows do. A gather kernel's term is
    eight numpy calls: five in the kernel, the factor, the sum and a pre-test.

    A row stops only when all its parts are below TAYLOR_TOL, the real part
    x of its first amplitude among them. So the exact per-row test, in the
    span's free flips buffer, runs only after a term in which |x| >
    TAYLOR_TOL fails for some amplitude that ``firsts`` samples, each row's
    first among them; the others only make it run more often. One call shows
    that it holds for every sample, as on most terms: fmod(TAYLOR_TOL, x) is
    TAYLOR_TOL exactly when |x| > TAYLOR_TOL, smaller otherwise and NaN for
    x zero or NaN (whose invalid flag raises no warning here), and no later
    fmod makes it larger or a number again. diag and drive (per amplitude, or
    per row in a view kernel) go into the kernel's complex buffers once per
    exponential, or its products would cast them on every term; (x -> x + 0j)
    is exact.
    """
    spread, scale, diag = kernel.spread, kernel.scale, kernel.diag.real
    s.take(spread, None, scale, "clip")
    np.multiply(scale, tables.reshape(diag.shape), diag)
    h_sub.take(spread, None, scale, "clip")
    np.multiply(diag, scale, diag)
    drive.take(spread, None, kernel.drive.real, "clip")
    multiply, add, settled = np.multiply, np.add, np.fmod.reduce
    factors, tol, active = _TERM_FACTORS, _TOL, kernel.active
    j = 0
    while live := np.count_nonzero(np.greater(substeps, j, out=active)):
        j += 1
        np.copyto(kernel.state, psi)
        count = k = 0
        while live:
            if live != count:
                count = live
                summing = active.nonzero()[0].tolist()
                lo, hi = summing[0], summing[-1] + 1
                span = kernel.rows(lo, hi)
                apply, span_diag, span_drive = span.apply, span.diag, span.drive
                term, sums, firsts = span.state, psi[span.at], span.firsts
                # where=True, a Python bool, is numpy's unmasked add: every row in
                # the span sums; else each amplitude adds where its row is active
                adding = True
                if live != hi - lo:
                    adding = active.take(span.owner, None, span.mask, "clip")
            k += 1
            apply(span_diag, span_drive)
            multiply(term, factors[k], term)
            add(sums, term, out=sums, where=adding)
            if settled(firsts, initial=tol) != tol:
                np.abs(span.parts, out=span.magnitudes)
                np.maximum.reduceat(span.magnitudes, span.starts, out=span.peaks)
                np.greater_equal(span.peaks, tol, out=span.large)
                np.logical_and(span.active, span.large, out=span.active)
                live = np.count_nonzero(active)


def _check_cost(loops: dict[int, Sequence[tuple]]) -> None:
    """Refuse a call whose loops together exceed MAX_AMPLITUDE_STEPS.

    ``loops`` holds each CFM4 loop's fine rows: component, kept table, half
    flag and schedule. A row at tau > 0 costs 2 x kept x its own steps, for
    its fine and coarse runs, times m = ceil(max(N, max|E|) tau / (2 steps
    THETA)), a bound on the Taylor substeps of each fine exponential. Each
    loop costs SUBSTEP_COST x 2 x its longest steps x its largest m, fine or
    coarse (at ceil(steps/2) steps). A row whose coarse bound is not finite
    is refused, and so is one whose own 2 x steps is over the budget, before
    its step count is converted to a float. Rows at tau = 0 cost nothing.
    """
    rows = Counter()  # per loop and spin count, step count and m, as they come
    substeps = {}  # per loop, its longest step count and largest m
    for loop, members in loops.items():
        for _, table, half, schedule in members:
            tau, steps = schedule.tau, schedule.steps
            if tau == 0.0:
                continue
            # the row costs at least 2 x steps; compared as integers, as the
            # count may be too large to convert to a float
            if 2 * steps > MAX_AMPLITUDE_STEPS:
                raise ModelTooLargeError(
                    f"a row at tau = {tau:g} takes more than {MAX_AMPLITUDE_STEPS // 2} "
                    f"steps, each at least 2 amplitude-steps: over the budget of "
                    f"{MAX_AMPLITUDE_STEPS:.3g}"
                )
            num_spins = table.size.bit_length() - 1 + half
            norm = float(max(np.abs(table).max(), num_spins))
            # the coarse run's bound: the larger, so it bounds the fine too
            bound = norm * tau / (2 * ((steps + 1) // 2) * THETA)
            if not math.isfinite(bound):
                raise ModelTooLargeError(
                    f"a {num_spins}-spin row at tau = {tau:g} has a Taylor substep "
                    f"bound max(N, max|E|) x tau / (2 x ceil(steps/2) x THETA) of "
                    f"{bound:g}: its energies are too large to integrate"
                )
            m = max(math.ceil(norm * tau / (2 * steps * THETA)), 1)
            rows[loop, num_spins, table.size, steps, m] += 1
            longest, largest = substeps.get(loop, (0, 0))
            substeps[loop] = max(longest, steps), max(largest, math.ceil(bound), 1)
    estimate = sum(2.0 * n * kept * steps * m for (*_, kept, steps, m), n in rows.items())
    estimate += sum(2.0 * SUBSTEP_COST * steps * m for steps, m in substeps.values())
    if estimate > MAX_AMPLITUDE_STEPS:
        terms = [
            f"2 x {n} rows x {kept} amplitudes x {steps} steps"
            + (f" x {m:.6g} substeps" if m > 1 else "")
            for (*_, kept, steps, m), n in rows.items()
        ] + [
            f"{SUBSTEP_COST} x 2 x {steps} steps x {m:.6g} loop substeps"
            for steps, m in substeps.values()
        ]
        raise ModelTooLargeError(
            f"integration needs {estimate:.3g} amplitude-steps ({' + '.join(terms)}), "
            f"over the budget of {MAX_AMPLITUDE_STEPS:.3g}"
        )


def _cfm4_weights(
    tables: Sequence[np.ndarray], halves: Sequence[bool],
    schedules: Sequence[AnnealSchedule],
) -> list[np.ndarray]:
    """|psi|^2 of each row after its own schedule's CFM4 steps, in input order.

    ``tables`` holds kept energy tables of any sizes, each of the half space
    where ``halves`` says. Row r integrates table r mod len(tables) under
    ``schedules[r]``, so a table runs under several schedules uncopied. The
    rows lie end to end in descending step count, rows at tau = 0 last, so
    the rows still running are always a leading span [0, live) that a row
    leaves after its last step. Step j applies both its exponentials, each
    of length dt/2, to that span, at schedule values s_a and s_b at t/tau
    plus 1/6 and 5/6 of dt/tau, so 0 <= s <= 1 throughout. Those values and
    the substeps are computed for up to _STEP_BLOCK steps at a time, as
    arrays with the same elementwise arithmetic as one step's. On the half
    space each row is rebuilt from the kept half and its mirror image.
    """
    tau = np.array([schedule.tau for schedule in schedules], dtype=float)
    # a row at tau = 0 takes no step, whatever its step count, which the cost
    # guard has not bounded
    running = np.array([sched.steps if sched.tau > 0.0 else 0 for sched in schedules])
    order = np.argsort(-running, kind="stable").tolist()
    tau, running = tau[order], running[order]
    kept = [tables[row % len(tables)] for row in order]
    halves = [halves[row % len(tables)] for row in order]
    lengths = [len(table) for table in kept]
    spins = np.array([size.bit_length() - 1 + half for size, half in zip(lengths, halves)])
    offsets = np.cumsum([0, *lengths]).tolist()
    psi = np.concatenate([_initial_state(n)[:k] for n, k in zip(spins.tolist(), lengths)])
    flat = np.concatenate(kept)
    emax = np.maximum.reduceat(np.abs(flat), offsets[:-1])
    moving = np.count_nonzero(running)
    kernel = _Kernel.allocate(spins[:moving], halves[:moving]) if moving else None
    dt = tau / np.maximum(running, 1)
    h = 0.5 * dt
    nodes = (_NODES[0] * dt, _NODES[1] * dt)
    j = 0
    while j < running[0]:
        # the next steps that the same leading rows all take, as rows of
        # arrays in the order of the exponentials: s_a, s_b of each step
        live = np.count_nonzero(running > j)
        end = min(j + _STEP_BLOCK, running[live - 1])
        at, width = slice(0, live), offsets[live]
        start = np.arange(j, end)[:, None] * dt[at]
        s1 = (start + nodes[0][at]) / tau[at]
        s2 = (start + nodes[1][at]) / tau[at]
        s_a = 2.0 * (_ALPHA2 * s1 + _ALPHA1 * s2)
        s_b = 2.0 * (_ALPHA1 * s1 + _ALPHA2 * s2)
        s = np.stack((s_a, s_b), axis=1).reshape(-1, live)
        span, sums, table = kernel.rows(0, live), psi[:width], flat[:width]
        for exponential in zip(s, *_substeps(spins[at], s, h[at], emax[at])):
            _exp_step(span, sums, table, *exponential)
        j = end
    # the kernel's buffers are freed before the weights are allocated, which
    # are written into one array of the rebuilt widths, so no temporary of
    # the state's size is made
    kernel = span = None
    widths = [size << half for size, half in zip(lengths, halves)]
    weights = np.split(np.empty(sum(widths)), np.cumsum(widths)[:-1])
    for row, a, b, half in zip(weights, offsets, offsets[1:], halves):
        kept_weights = row[: b - a]
        np.square(np.abs(psi[a:b], out=kept_weights), out=kept_weights)
        if half:
            row[b - a :] = kept_weights[::-1]
    return [weights[row] for row in np.argsort(order)]


def _component_table(model: IsingModel, spins: tuple[int, ...]) -> np.ndarray:
    """A connected model's memoised ``energy_table``, or a component's: its
    couplings renumbered in the model's order, its fields, and no memo."""
    if len(spins) == model.num_spins:
        return energy_table(model)
    local = {spin: k for k, spin in enumerate(spins)}
    couplings = [(local[i], local[j], J) for i, j, J in model.couplings if i in local]
    fields = [model.fields[spin] for spin in spins]
    return _less_terms(np.zeros(1 << len(spins)), couplings, fields)


def _product(num_spins: int, components, vectors) -> np.ndarray:
    """The 2^N product of the components' vectors, left to right (see above)."""
    product = None
    for spins, vector in zip(components, vectors):
        shape = [1] * num_spins
        for spin in spins:
            shape[~spin] = 2
        factor = vector.reshape(shape)
        product = factor if product is None else product * factor
    return product.reshape(-1)


def evolve_many(
    models: Sequence[IsingModel],
    schedule: AnnealSchedule | Sequence[AnnealSchedule],
    *,
    enforce_drift: bool = True,
) -> list[EvolutionResult]:
    """Evolve several models, their component rows in as few CFM4 loops as
    their sizes allow.

    ``schedule`` is one schedule shared by every model or one per model, in
    the models' order; a count that does not match raises ValueError. The
    models' components (see above) are grouped by spin count, in order of
    first appearance, whatever their schedules. Every group that gathers its
    flip sum alone (see _gathers) joins one shared batch; any other keeps a
    batch of its own. Results come back in input order. The cost guard sums
    every row's own steps and substeps, and each loop's, over all batches
    and runs before the first one is integrated. Each component also runs at
    ceil(steps/2) steps, as one more row of the same batch, for its error
    estimate. Probabilities are renormalized by each model's squared norm.
    With ``enforce_drift`` the call raises IntegrationAccuracyError if any
    row's norm drift or error estimate is over the budget, or not finite;
    sweeps disable it and handle failures row by row.
    """
    if isinstance(schedule, AnnealSchedule):
        schedule = [schedule] * len(models)
    elif len(schedule) != len(models):
        raise ValueError(f"{len(schedule)} schedules for {len(models)} models")
    elif not all(isinstance(item, AnnealSchedule) for item in schedule):
        raise TypeError("schedules must be AnnealSchedule instances")
    components = [_components(model) for model in models]
    groups: dict[int, list[tuple]] = {}
    for i, parts in enumerate(components):
        for k, spins in enumerate(parts):
            groups.setdefault(len(spins), []).append((i, k, spins))
    loops: dict[int, list[tuple]] = {}  # loop 0 is the shared one
    for num_spins, members in groups.items():
        tables = np.stack([_component_table(models[i], spins) for i, _, spins in members])
        # without fields every table equals its reverse: keep the half space,
        # as a copy, so the full tables can be freed
        half = np.array_equal(tables, tables[:, ::-1])
        tables = tables[:, : tables.shape[1] // 2].copy() if half else tables
        own = [schedule[i] for i, *_ in members]
        moving = 2 * sum(s.tau > 0.0 for s in own)
        loop = 0 if _gathers(num_spins, moving, tables.shape[1]) else len(loops) + 1
        rows = ((member, table, half, s) for member, table, s in zip(members, tables, own))
        loops.setdefault(loop, []).extend(rows)
    _check_cost(loops)
    # per model, the fine and coarse weights of each of its components
    factors = [[None] * len(parts) for parts in components]
    for rows in loops.values():
        members, tables, halves, own = zip(*rows)
        halved = [AnnealSchedule(s.tau, (s.steps + 1) // 2) for s in own]
        weights = _cfm4_weights(tables, halves, own + tuple(halved))
        for row, (i, k, _) in enumerate(members):
            factors[i][k] = (weights[row], weights[row + len(members)])
    results = [None] * len(models)
    for i, model in enumerate(models):
        tau, steps = schedule[i].tau, schedule[i].steps
        p, coarse = (_product(model.num_spins, components[i], w) for w in zip(*factors[i]))
        n2 = p.sum()
        p /= n2
        coarse_steps = (steps + 1) // 2
        if coarse_steps < steps:
            coarse /= coarse.sum()
            richardson = (steps / coarse_steps) ** 4 - 1.0
            estimate = np.abs(p - coarse).max() / richardson
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
            failure = _accuracy_failure(result)
            if failure is not None:
                raise IntegrationAccuracyError(
                    f"{failure}; rerun with more steps (e.g. {2 * result.steps})"
                )
    return results


def evolve(model: IsingModel, schedule: AnnealSchedule) -> EvolutionResult:
    """Integrate one model from t=0 to t=tau and report final probabilities."""
    return evolve_many((model,), schedule)[0]

