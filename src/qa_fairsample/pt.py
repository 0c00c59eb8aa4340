"""Degenerate perturbation theory around the end of the anneal.

Near t = tau the driver acts as a small perturbation V = -sum_i X_i on the
diagonal target. Within the d-fold degenerate ground manifold the first-order
effective matrix has entries <m|V|n> = -1 exactly when m and n differ by one
spin flip. If its minimal eigenvalue stays degenerate (beyond a single
inversion doublet), the second-order effective matrix

    W_mn = sum_k <m|V|k><k|V|n> / (E_0 - E_k)

decides the outcome, where k runs over excited configurations one flip away
from both m and n. Asymptotic sampling probabilities are the squared
components of the eigenvector for the minimal eigenvalue of the effective
matrix, projected onto the minimal first-order eigenspace when W decides.

Both effective matrices are built with array operations on bits values.
The intermediates k of W come from one table, ``second_order_links``, which
the gap analysis reads too, so the gaps it reports are the denominators of W
by construction. Every entry is summed in the order of the per-config sum
(intermediates by ascending spin), so results are bitwise those of that sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embed import apply_embedding, load_embedding, verify_embedding
from .model import (
    GroundManifold,
    IsingModel,
    ProbabilityVector,
    energy_table,
    enumerate_ground_states,
    load_model,
)

# Eigenvalues closer than this are treated as degenerate; toy-model spectra
# are rational with O(1) separations.
DEGENERACY_TOL = 1e-9

# Permutation matching is brute force; beyond this the factorial blows up.
_MAX_PERMUTATION_DIM = 8

# Entrywise tolerance of a permutation match against the closed form.
_MATCH_TOL = 1e-9

# Chain strengths at which the bundled data files are validated.
STANDARD_CHAIN_STRENGTHS = (0.5, 1.0, 1.5)


@dataclass(frozen=True)
class PerturbationSetup:
    """A model together with its ground manifold, ready for PT analysis."""

    model: IsingModel
    manifold: GroundManifold

    @classmethod
    def from_model(cls, model: IsingModel) -> "PerturbationSetup":
        return cls(model=model, manifold=enumerate_ground_states(model))


@dataclass(frozen=True, eq=False)
class PTResult:
    """Outcome of ``perturbative_probabilities``.

    ``probabilities`` holds the asymptotic sampling probability of every
    configuration of the model, indexed by bits value and zero off the
    ground manifold: the type of ``EvolutionResult.final_probabilities``, so
    ``project_and_fold`` folds both answers by one routine. ``resolved`` is
    false when the minimal eigenvalue of the last order built keeps
    multiplicity > 1 and its eigenspace is not one inversion doublet: the
    probabilities are then the projector diagonal / g, which is exact only
    if a symmetry protects the degeneracy, and higher orders may split it.
    """

    resolved_order: int
    minimal_eigenvalue: float
    multiplicity: int
    probabilities: ProbabilityVector
    resolved: bool


def _index_in(sorted_bits: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Position of each bits value in an ascending array, -1 where absent."""
    pos = np.searchsorted(sorted_bits, bits)
    return np.where(np.take(sorted_bits, pos, mode="clip") == bits, pos, -1)


def second_order_links(
    manifold: GroundManifold, num_spins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The second-order intermediates of a ground manifold, as arrays.

    Configs are indexed by their position in ``manifold.configs``, whose bits
    values are strictly ascending. Returns ``(flips, excited, neighbours)``:

    - ``flips[a, i] = configs[a].bits ^ 2^i``, shape (d, N);
    - ``excited[a, i]`` is true when that flip lies outside the manifold;
    - ``neighbours[a, i, j]`` is the manifold index of ``flips[a, i] ^ 2^j``,
      or -1 when that config is not in the manifold or the flip is not
      excited; shape (d, N, N). ``neighbours[a, i, i] == a`` for every
      excited flip.

    An excited flip k links a to b exactly when b is among its neighbours,
    and then <a|V|k><k|V|b> = (-1)(-1) = 1. Memory is O(d*N^2).
    """
    basis = manifold.bits
    spins = 1 << np.arange(num_spins, dtype=np.int64)
    flips = basis[:, None] ^ spins
    excited = _index_in(basis, flips) < 0
    neighbours = _index_in(basis, flips[:, :, None] ^ spins)
    neighbours[~excited] = -1
    return flips, excited, neighbours


def first_order_matrix(setup: PerturbationSetup) -> np.ndarray:
    """P1 V P1: entry (m, n) is -1 iff the configs differ by one flip, else 0.

    A read-only float64 (d, d) array over ``setup.manifold.configs`` in order.
    """
    bits = setup.manifold.bits
    x = bits[:, None] ^ bits
    entries = np.where((x != 0) & ((x & (x - 1)) == 0), -1.0, 0.0)
    entries.setflags(write=False)
    return entries


def second_order_matrix(setup: PerturbationSetup) -> np.ndarray:
    """P2 W P2 over the whole ground manifold, as a read-only float64 (d, d)
    array over ``setup.manifold.configs`` in order.

    Intermediates k are excluded from the manifold by the Q projector, so
    every denominator E_0 - E_k is strictly negative. Only the N flips of
    each ground config can contribute, so W is built from the (d, N) table
    of ``second_order_links``: one reciprocal per excited flip, added into W
    in the order of the per-config sum, which gives bitwise the same entries.
    """
    manifold = setup.manifold
    flips, excited, neighbours = second_order_links(
        manifold, setup.model.num_spins
    )
    denominators = manifold.energy - energy_table(setup.model)[flips]
    weights = np.divide(1.0, denominators, out=np.zeros(flips.shape), where=excited)
    # The per-config sum adds the terms of entry (a, b) by ascending spin i.
    # The diagonal has one term per excited flip of a, summed in sequence
    # along the row. A pair at distance 2 differs on two spins i, j and has
    # at most one term from each; the triples with i < j add one and those
    # with i > j the other, so neither pass repeats a pair. No other pair
    # has a term.
    a, i, j = np.nonzero(neighbours >= 0)
    b = neighbours[a, i, j]
    entries = np.zeros((manifold.degeneracy, manifold.degeneracy))
    np.fill_diagonal(entries, np.cumsum(weights, axis=1)[:, -1])
    for term in (i < j, i > j):
        entries[a[term], b[term]] += weights[a[term], i[term]]
    entries.setflags(write=False)
    return entries


def _is_inversion_doublet(setup: PerturbationSetup, u: np.ndarray) -> bool:
    """True when a 2-dim eigenspace maps onto itself under global spin flip.

    Without fields the manifold is closed under inversion, and inverting
    (bits -> mask - bits) reverses its ascending order.
    """
    if u.shape[1] != 2 or setup.model.has_fields:
        return False
    proj = u @ u.T
    return bool(np.abs(proj[::-1, ::-1] - proj).max() < DEGENERACY_TOL)


def perturbative_probabilities(setup: PerturbationSetup) -> PTResult:
    """Asymptotic sampling probabilities over the ground manifold.

    Resolution order: diagonalize the first-order matrix; stop there if its
    minimal eigenvalue is non-degenerate (a single inversion doublet counts
    as resolved). Otherwise project W onto the minimal first-order eigenspace
    and diagonalize again. If the final minimal eigenvalue keeps multiplicity
    g > 1, probabilities are the diagonal of the eigenspace projector divided
    by g, which reduces to squared eigenvector components at g = 1; unless
    that eigenspace is an inversion doublet, ``resolved`` is then false.
    """
    vals, vecs = np.linalg.eigh(first_order_matrix(setup))
    u = vecs[:, vals <= vals[0] + DEGENERACY_TOL]
    resolved_order = 1
    minimal = float(vals[0])
    span = u
    resolved = u.shape[1] == 1 or _is_inversion_doublet(setup, u)
    if not resolved:
        projected = u.T @ second_order_matrix(setup) @ u
        projected = 0.5 * (projected + projected.T)
        vals2, vecs2 = np.linalg.eigh(projected)
        v = vecs2[:, vals2 <= vals2[0] + DEGENERACY_TOL]
        span = u @ v
        resolved_order = 2
        minimal = float(vals2[0])
        resolved = span.shape[1] == 1 or _is_inversion_doublet(setup, span)
    multiplicity = span.shape[1]
    vector = np.zeros(1 << setup.model.num_spins)
    vector[setup.manifold.bits] = (span ** 2).sum(axis=1) / multiplicity
    return PTResult(
        resolved_order=resolved_order,
        minimal_eigenvalue=minimal,
        multiplicity=multiplicity,
        probabilities=ProbabilityVector(vector),
        resolved=resolved,
    )


def embedded_toy_reference_matrix(chain_strength: float) -> np.ndarray:
    """Closed-form -P2 W P2 for the shipped embedded toy model.

    Its six ground states form a ring of second-order couplings. Off-diagonal
    elements around the ring alternate {1, 1/J_F, 1, 1, 1/J_F, 1}: the 1/J_F
    links are mediated by broken-chain intermediates at gap 2*J_F. The
    diagonal is (2J_F+5)/(J_F+2) on the two fully aligned states and
    (4J_F+3)/(3J_F) on the other four.
    """
    jf = float(chain_strength)
    a = (2.0 * jf + 5.0) / (jf + 2.0)
    b = (4.0 * jf + 3.0) / (3.0 * jf)
    ring = [1.0, 1.0 / jf, 1.0, 1.0, 1.0 / jf, 1.0]
    m = np.zeros((6, 6))
    for i, diag in enumerate([a, b, b, a, b, b]):
        m[i, i] = diag
        j = (i + 1) % 6
        m[i, j] = m[j, i] = ring[i]
    return m


def find_basis_permutation(a: np.ndarray, b: np.ndarray) -> tuple[int, ...] | None:
    """Permutation p with a[p][:, p] == b entrywise within 1e-9, or None.

    Brute force over d! orderings; fine for the d <= 6 manifolds this
    package compares.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        return None
    d = a.shape[0]
    if d > _MAX_PERMUTATION_DIM:
        raise ValueError(f"permutation search limited to dimension {_MAX_PERMUTATION_DIM}")
    for perm in itertools.permutations(range(d)):
        p = np.asarray(perm)
        if np.abs(a[np.ix_(p, p)] - b).max() <= _MATCH_TOL:
            return perm
    return None


@dataclass(frozen=True)
class ClauseResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ToyValidationReport:
    clauses: tuple[ClauseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failures(self) -> tuple[ClauseResult, ...]:
        return tuple(c for c in self.clauses if not c.passed)


def _matrix_str(m: np.ndarray) -> str:
    return np.array2string(np.asarray(m), precision=10, suppress_small=True)


def validate_toy_model(
    source_path: str | Path, embedded_path: str | Path
) -> ToyValidationReport:
    """Cross-check the shipped toy-model data files against the closed form.

    Every clause on the embedded file is checked at each of the
    ``STANDARD_CHAIN_STRENGTHS``. The chain clauses read ``verify_embedding``:
    ``embedded_degeneracy_unbroken`` in the loop and, after every other
    clause, ``embedding_bijective``, which holds when the embedded ground
    manifold is exactly the lift of the source's.

    A failed clause points at mis-read couplings or a wrong assignment of the
    chained spin's couplings: the closed-form diagonal entries encode which
    physical spin carries which couplings, so this is the arbiter for the
    data files.
    """
    clauses: list[ClauseResult] = []
    source = load_model(source_path)
    src_manifold = enumerate_ground_states(source)
    clauses.append(
        ClauseResult(
            "source_degeneracy",
            src_manifold.degeneracy == 6,
            f"expected d = 6, found d = {src_manifold.degeneracy} "
            f"at E_0 = {src_manifold.energy:g}",
        )
    )
    src_first = first_order_matrix(PerturbationSetup(source, src_manifold))
    source_nonzero = float(np.abs(src_first).max()) > 0.0

    bijective: list[ClauseResult] = []
    for jf in STANDARD_CHAIN_STRENGTHS:
        tag = f"jf={jf:g}"
        embedded = apply_embedding(
            source, load_embedding(embedded_path, chain_strength=jf)
        )
        report = verify_embedding(embedded)
        unbroken = report.chains_unbroken
        clauses.append(
            ClauseResult(
                f"embedded_degeneracy_unbroken[{tag}]",
                report.embedded_degeneracy == 6 and unbroken,
                f"d = {report.embedded_degeneracy}, chains unbroken = {unbroken}",
            )
        )
        bijective.append(
            ClauseResult(
                f"embedding_bijective[{tag}]",
                report.bijective,
                f"unbroken={unbroken} bijective={report.bijective} "
                f"E_0={report.embedded_energy:g}",
            )
        )
        setup = PerturbationSetup.from_model(embedded.model)
        max_first = float(np.abs(first_order_matrix(setup)).max())
        clauses.append(
            ClauseResult(
                f"embedded_first_order_zero[{tag}]",
                max_first == 0.0,
                f"max |entry| = {max_first:g}",
            )
        )
        reference = embedded_toy_reference_matrix(jf)
        built = -second_order_matrix(setup)
        if built.shape != reference.shape:
            perm = None
            detail = (
                f"dimension mismatch: built {built.shape}, reference {reference.shape}"
            )
        else:
            perm = find_basis_permutation(built, reference)
            if perm is None:
                detail = (
                    "no basis permutation matches within 1e-9;\nbuilt =\n"
                    f"{_matrix_str(built)}\nreference =\n{_matrix_str(reference)}"
                )
            else:
                detail = f"matched under basis permutation {perm}"
        clauses.append(
            ClauseResult(f"second_order_closed_form[{tag}]", perm is not None, detail)
        )

    clauses.append(
        ClauseResult(
            "source_first_order_nonzero",
            source_nonzero,
            "single-flip pairs inside the source manifold couple at first "
            "order, which suppresses the isolated state"
            if source_nonzero
            else "source first-order matrix is zero",
        )
    )
    return ToyValidationReport(clauses=(*clauses, *bijective))
