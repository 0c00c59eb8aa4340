"""Shared fixtures and independent oracles for the test suite.

The expensive tau=1000 integrations run once per session and are reused by
the acceptance tests. Oracle helpers here deliberately avoid the package's
own vectorized code paths: energies come from a plain Python loop and dense
Hamiltonians from Kronecker products. A full-width copy of the CFM4
integrator, which never uses inversion symmetry and runs the step-doubling
estimate as a separate integration, lets the package's half-space and fused
results be compared with it bit for bit, and ``reference_exp_step`` keeps
the Taylor term loop as it was before its stopping pre-test, for the
package loop to match byte for byte. Per-config loop versions
of the energy table, the effective PT matrices and the gap analysis do the
same for the package's array versions. ``kernel_apply`` is the one helper
that runs package code: it drives the integrator's kernel on one state, for
the tests that check that kernel against the dense and gather oracles.
``fold_bits`` folds parallel bits values and weights by inversion class in
the given order; it is the oracle for folding a PT answer.
``member_project_state`` and ``set_verify_embedding`` project chain by chain,
member by member, and compare projected ground states as sets.
``embedded_instances`` draws random small models with chain embeddings for
the property tests.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

import qa_fairsample as qf
from qa_fairsample.data import toy_embedding_path, toy_source_path
from qa_fairsample.evolve import (
    _ALPHA1,
    _ALPHA2,
    _NODES,
    TAYLOR_TOL,
    THETA,
    _Kernel,
)

STANDARD_JFS = (0.5, 1.0, 1.5)

# Small models for brute-force cross-checks (N <= 4).
FIXTURE_MODELS = {
    "ferro2": qf.IsingModel(2, ((0, 1, 1.0),)),
    "triangle3": qf.IsingModel(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, -1.0))),
    "frustrated_square4": qf.IsingModel(
        4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, -1.0))
    ),
    "afm_chain4": qf.IsingModel(4, ((0, 1, -1.0), (1, 2, -1.0), (2, 3, -1.0))),
    "single_spin_field": qf.IsingModel(1, (), fields=(0.5,)),
    "pinned_pair": qf.IsingModel(2, ((0, 1, 1.0),), fields=(0.5, 0.0)),
}


def brute_energy(model: qf.IsingModel, bits: int) -> float:
    """Independent energy oracle: direct loop over couplings and fields."""
    spins = [1 if (bits >> i) & 1 else -1 for i in range(model.num_spins)]
    e = -sum(J * spins[i] * spins[j] for i, j, J in model.couplings)
    e -= sum(h * s for h, s in zip(model.fields, spins))
    return e


def brute_ground_bits(model: qf.IsingModel) -> tuple[float, list[int]]:
    """Independent exhaustive minimizer."""
    energies = [brute_energy(model, b) for b in range(1 << model.num_spins)]
    e0 = min(energies)
    return e0, [b for b, e in enumerate(energies) if e <= e0 + 1e-12 * max(1.0, abs(e0))]


def consensus_project_and_fold(probabilities, chains, manifold):
    """Independent fold oracle: project every entry by chain consensus.

    Walks all entries of ``probabilities`` in their own order, projecting
    each configuration onto the logical system (members of every chain must
    agree, else the entry is a broken chain) and keeping those that land in
    ``manifold``. Returns the inversion-folded ground classes and
    1 - (ground weight summed in entry order).
    """
    num_logical = len(chains)
    logical = {}
    ground_weight = 0.0
    for config, p in probabilities.items():
        bits = 0
        for i, chain in enumerate(chains):
            values = {(config.bits >> q) & 1 for q in chain}
            if len(values) != 1:
                break
            bits |= values.pop() << i
        else:
            projected = qf.SpinConfiguration(bits, num_logical)
            if projected in manifold.configs:
                logical[projected] = logical.get(projected, 0.0) + p
                ground_weight += p
    folded = {}
    for config, p in logical.items():
        rep = min(config, config.inverted())
        folded[rep] = folded.get(rep, 0.0) + p
    return folded, 1.0 - ground_weight


def fold_bits(bits, weights, num_spins: int) -> dict:
    """Inversion fold of parallel bits values and weights, summed in the given
    order into classes keyed by min(b, b ^ mask), in first-seen order."""
    mask = (1 << num_spins) - 1
    folded = {}
    for b, p in zip(bits, weights):
        rep = min(b, b ^ mask)
        folded[rep] = folded.get(rep, 0.0) + p
    return {qf.SpinConfiguration(rep, num_spins): p for rep, p in folded.items()}


def member_project_state(config, embedding):
    """Consensus projection oracle: compare every chain member with the first."""
    bits = 0
    for i, chain in enumerate(embedding.chains):
        first = (config.bits >> chain[0]) & 1
        for p in chain[1:]:
            if (config.bits >> p) & 1 != first:
                return None
        bits |= first << i
    return qf.SpinConfiguration(bits, embedding.num_logical)


def set_verify_embedding(embedded) -> qf.EmbeddingReport:
    """Embedding check oracle: project every embedded ground state and
    compare the projections with the source manifold as sets."""
    source_manifold = qf.enumerate_ground_states(embedded.source)
    embedded_manifold = qf.enumerate_ground_states(embedded.model)
    projected = [
        member_project_state(c, embedded.embedding) for c in embedded_manifold.configs
    ]
    unbroken = all(p is not None for p in projected)
    intact = [p for p in projected if p is not None]
    bijective = (
        unbroken
        and len(set(intact)) == len(intact)
        and set(intact) == set(source_manifold.configs)
    )
    return qf.EmbeddingReport(
        chains_unbroken=unbroken,
        bijective=bijective,
        source_energy=source_manifold.energy,
        embedded_energy=embedded_manifold.energy,
        source_degeneracy=len(source_manifold.configs),
        embedded_degeneracy=len(embedded_manifold.configs),
    )


MAGNITUDES = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)


@st.composite
def embedded_instances(draw):
    """A random model with N <= 4 and a chain embedding of it.

    Chains have 1-3 members drawn from a random permutation of the physical
    spins, so lifting is not monotone in bits. Coupling and field magnitudes
    come from {1, 2, 3}, so chains of strength J_F <= 1.5 often break in the
    embedded ground states.
    """
    n = draw(st.integers(1, 4))
    couplings = tuple(
        (i, j, draw(st.sampled_from(MAGNITUDES)))
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    )
    fields = tuple(draw(st.sampled_from((0.0, 0.0) + MAGNITUDES)) for _ in range(n))
    model = qf.IsingModel(n, couplings, fields)
    lengths = [draw(st.integers(1, 3)) for _ in range(n)]
    order = draw(st.permutations(range(sum(lengths))))
    chains = tuple(
        tuple(order[sum(lengths[:i]) : sum(lengths[: i + 1])]) for i in range(n)
    )
    assignment = tuple(
        ((i, j), (draw(st.sampled_from(chains[i])), draw(st.sampled_from(chains[j]))))
        for i, j, _ in couplings
    )
    return model, qf.Embedding(n, chains, 1.0, assignment)


def loop_energy_table(model: qf.IsingModel) -> np.ndarray:
    """Energy table built from one +-1 float spin array per coupled spin."""
    idx = np.arange(1 << model.num_spins, dtype=np.int64)
    table = np.zeros(idx.shape, dtype=np.float64)
    for i, j, J in model.couplings:
        si = 2.0 * ((idx >> i) & 1) - 1.0
        sj = 2.0 * ((idx >> j) & 1) - 1.0
        table -= J * si * sj
    for i, h in enumerate(model.fields):
        if h:
            table -= h * (2.0 * ((idx >> i) & 1) - 1.0)
    return table


def loop_first_order_entries(manifold: qf.GroundManifold) -> np.ndarray:
    """P1 V P1 by testing every pair of ground configs for one flip."""
    configs = manifold.configs
    d = len(configs)
    entries = np.zeros((d, d))
    for a in range(d):
        for b in range(a + 1, d):
            if (configs[a].bits ^ configs[b].bits).bit_count() == 1:
                entries[a, b] = entries[b, a] = -1.0
    return entries


def loop_second_order_entries(model, manifold) -> np.ndarray:
    """P2 W P2 over the manifold, one sum over intermediates per entry."""
    table = loop_energy_table(model)
    e0 = manifold.energy
    configs = manifold.configs
    man_bits = {c.bits for c in configs}
    d = len(configs)
    entries = np.zeros((d, d))
    for a, ca in enumerate(configs):
        for b, cb in enumerate(configs):
            acc = 0.0
            for i in range(model.num_spins):
                k = ca.bits ^ (1 << i)
                if k in man_bits:
                    continue
                if (k ^ cb.bits).bit_count() == 1:
                    acc += 1.0 / (e0 - table[k])
            entries[a, b] = acc
    return entries


def loop_partition_side(config, partition) -> str | None:
    """Side of a config: exact S or C member first, then its class rep;
    None when the partition covers neither."""
    rep = min(config, config.inverted())
    for candidate in (config, rep):
        if candidate in partition.s_set:
            return "S"
        if candidate in partition.c_set:
            return "C"
    return None


def loop_gap_ratio(model, manifold, partition) -> qf.GapReport:
    """``gap_ratio`` with every intermediate found by walking all pairs."""
    if manifold.degeneracy < 2:
        raise ValueError("gap analysis needs a degenerate manifold")
    table = loop_energy_table(model)
    e0 = manifold.energy
    man_bits = {c.bits for c in manifold.configs}

    configs = manifold.configs

    def connects(a, b) -> bool:
        """Some excited flip of a is one flip from b."""
        flips = (a.bits ^ (1 << i) for i in range(model.num_spins))
        return any(k not in man_bits and (k ^ b.bits).bit_count() == 1 for k in flips)

    if not any(
        connects(a, b)
        for a, b in itertools.combinations(configs, 2)
        if (a.bits ^ b.bits).bit_count() == 2
    ):
        raise ValueError("no second-order connections inside the manifold")

    per_state = {}
    side_gaps = {"S": [], "C": []}
    excluded = []
    for g in configs:
        gaps = []
        for i in range(model.num_spins):
            k = g.bits ^ (1 << i)
            if k in man_bits:
                continue
            mediates = any(
                (k ^ other.bits).bit_count() == 1
                for other in configs
                if other.bits != g.bits
            )
            if mediates:
                gaps.append(float(table[k] - e0))
        if gaps:
            per_state[g] = sum(gaps) / len(gaps)
        side = loop_partition_side(g, partition)
        if gaps and side is not None:
            side_gaps[side].append(per_state[g])
        else:
            excluded.append(g)
    if not side_gaps["S"] or not side_gaps["C"]:
        raise ValueError("a partition set has no state with mediating intermediates")
    delta_s = sum(side_gaps["S"]) / len(side_gaps["S"])
    delta_c = sum(side_gaps["C"]) / len(side_gaps["C"])
    return qf.GapReport(
        per_state=per_state,
        delta_e_s=delta_s,
        delta_e_c=delta_c,
        ratio=delta_s / delta_c,
        excluded=tuple(excluded),
    )


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
_ID = np.eye(2)


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    # Convention: bit i of the basis index selects the state of spin i, so
    # spin i's operator sits at Kronecker slot n-1-i.
    mats = [_ID] * n
    mats[n - 1 - site] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_target(model: qf.IsingModel) -> np.ndarray:
    """H_0 as a dense matrix built from Kronecker products (sign: bit set = up)."""
    n = model.num_spins
    # bit set means spin up (+1): diag of sigma_z must be (-1, +1) over (bit 0, bit 1)
    sz = -_SZ
    dim = 1 << n
    h = np.zeros((dim, dim))
    for i, j, J in model.couplings:
        zi = _site_operator(sz, i, n)
        zj = _site_operator(sz, j, n)
        h -= J * (zi @ zj)
    for i, hi in enumerate(model.fields):
        if hi:
            h -= hi * _site_operator(sz, i, n)
    return h


def dense_driver(n: int) -> np.ndarray:
    """-sum_i X_i as a dense matrix."""
    dim = 1 << n
    h = np.zeros((dim, dim))
    for i in range(n):
        h -= _site_operator(_SX, i, n)
    return h


def dense_annealing_hamiltonian(model: qf.IsingModel, s: float) -> np.ndarray:
    return (1.0 - s) * dense_driver(model.num_spins) + s * dense_target(model)


def _midpoint_probabilities(model: qf.IsingModel, tau: float, steps: int) -> np.ndarray:
    # product of exact exponentials exp(-i dt H(s_mid)) from eigh, one per step
    s = (np.arange(steps) + 0.5)[:, None, None] / steps
    driver, target = dense_driver(model.num_spins), dense_target(model)
    vals, vecs = np.linalg.eigh((1.0 - s) * driver + s * target)
    phases = np.exp(-1j * (tau / steps) * vals)
    dim = 1 << model.num_spins
    psi = np.full(dim, dim ** -0.5, dtype=np.complex128)
    for vec, phase in zip(vecs, phases):
        psi = vec @ (phase * (vec.T @ psi))
    return np.abs(psi) ** 2


def dense_anneal_probabilities(model: qf.IsingModel, tau: float, steps: int) -> np.ndarray:
    """Final probabilities by bits value, independent of the package integrator.

    The exponential midpoint rule on a fine grid, with exact exponentials of
    the dense Hamiltonian, is second order and symmetric; one Richardson step
    over steps and 2*steps cancels its dt^2 error term.
    """
    coarse = _midpoint_probabilities(model, tau, steps)
    fine = _midpoint_probabilities(model, tau, 2 * steps)
    return (4.0 * fine - coarse) / 3.0


def kernel_apply(model: qf.IsingModel, s: float, psi: np.ndarray) -> np.ndarray:
    """H(s) psi through the package's one-row full-width kernel."""
    kernel = _Kernel.allocate(1, model.num_spins)
    kernel.state[0] = psi
    kernel.apply(s * qf.energy_table(model), 1.0 - s)
    return kernel.state[0]


def reference_exp_step(
    kernel: _Kernel,
    psi: np.ndarray,
    tables: np.ndarray,
    s: np.ndarray,
    h: np.ndarray,
    emax: np.ndarray,
) -> None:
    """The Taylor term loop as it was before its cheap stopping pre-test.

    Kept as the oracle of ``evolve._exp_step``: every term runs the exact
    per-row stopping test, multiplies by the Python complex ``-1j / k``
    and by the (rows, 1) drive column. The package loop must leave ``psi``
    with the same bytes.
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


class FullSpaceKernel:
    """The full-width flip-sum kernel: one reshape view per spin, spin order 0..N-1."""

    def __init__(self, rows: int, num_spins: int):
        dim = 1 << num_spins
        self.state = np.empty((rows, dim), dtype=np.complex128)
        self._flips = np.empty_like(self.state)
        self._views = []
        for i in range(num_spins):
            shape = (rows, dim >> (i + 1), 2, 1 << i)
            self._views.append(
                (self._flips.reshape(shape), self.state.reshape(shape)[:, :, ::-1, :])
            )

    def apply(self, diag: np.ndarray, drive) -> None:
        (out, flipped), *rest = self._views
        np.copyto(out, flipped)
        for out, flipped in rest:
            np.add(out, flipped, out=out)
        np.multiply(self.state, diag, out=self.state)
        np.multiply(self._flips, drive, out=self._flips)
        np.subtract(self.state, self._flips, out=self.state)


def _full_space_exp_step(kernel, psi, tables, s, h, emax) -> None:
    num_spins = psi.shape[1].bit_length() - 1
    bound = (1.0 - s) * num_spins + s * emax
    substeps = np.maximum(np.ceil(bound * (h / THETA)), 1.0)
    h_sub = (h / substeps)[:, None]
    diag = (s * tables) * h_sub
    drive = (1.0 - s) * h_sub
    term = kernel.state
    for j in range(int(substeps.max())):
        active = substeps > j
        np.copyto(term, psi)
        k = 0
        while active.any():
            k += 1
            kernel.apply(diag, drive)
            np.multiply(term, -1j / k, out=term)
            np.add(psi, term, out=psi, where=active[:, None])
            active &= np.abs(term.view(np.float64)).max(axis=1) >= TAYLOR_TOL


def full_space_cfm4_weights(tables: np.ndarray, tau: float, steps: int) -> np.ndarray:
    """|psi|^2 rows of one CFM4 run that always integrates all 2^N amplitudes."""
    rows, dim = tables.shape
    num_spins = dim.bit_length() - 1
    psi = np.tile(qf.initial_state(num_spins), (rows, 1))
    dt = tau / steps
    if dt > 0.0:
        kernel = FullSpaceKernel(rows, num_spins)
        emax = np.abs(tables).max(axis=1)
        for k in range(steps):
            s1 = (k * dt + _NODES[0] * dt) / tau
            s2 = (k * dt + _NODES[1] * dt) / tau
            s_a = 2.0 * (_ALPHA2 * s1 + _ALPHA1 * s2)
            s_b = 2.0 * (_ALPHA1 * s1 + _ALPHA2 * s2)
            _full_space_exp_step(kernel, psi, tables, s_a, 0.5 * dt, emax)
            _full_space_exp_step(kernel, psi, tables, s_b, 0.5 * dt, emax)
    return np.abs(psi) ** 2


def full_space_evolve_many(models, schedule) -> list[qf.EvolutionResult]:
    """``evolve_many`` without the accuracy guard, from separate full-space runs.

    The fine run at ``steps`` and the coarse run at ceil(steps/2) are two
    independent integrations, normalised and compared as ``evolve_many``
    does, with the fourth-order Richardson factor.
    """
    tables = np.stack([qf.energy_table(m) for m in models])
    tau, steps = schedule.tau, schedule.steps
    fine = full_space_cfm4_weights(tables, tau, steps)
    norm_sq = fine.sum(axis=1)
    probs = fine / norm_sq[:, None]
    coarse_steps = (steps + 1) // 2
    if coarse_steps < steps:
        coarse = full_space_cfm4_weights(tables, tau, coarse_steps)
        coarse /= coarse.sum(axis=1)[:, None]
        richardson = (steps / coarse_steps) ** 4 - 1.0
        estimates = np.abs(probs - coarse).max(axis=1) / richardson
    else:
        estimates = np.full(len(models), 0.0 if tau == 0.0 else np.inf)
    return [
        qf.EvolutionResult(
            final_probabilities=qf.ProbabilityVector(p),
            norm_drift=float(abs(1.0 - n2)),
            tau=tau,
            steps=steps,
            norm_squared=float(n2),
            error_estimate=float(est),
        )
        for p, n2, est in zip(probs, norm_sq, estimates)
    ]


@pytest.fixture(scope="session")
def toy_source() -> qf.IsingModel:
    return qf.load_model(toy_source_path())


@pytest.fixture(scope="session")
def toy_template() -> qf.Embedding:
    return qf.load_embedding(toy_embedding_path(), chain_strength=1.0)


@pytest.fixture(scope="session")
def toy_manifold(toy_source) -> qf.GroundManifold:
    return qf.enumerate_ground_states(toy_source)


@pytest.fixture(scope="session")
def embedded_models(toy_source, toy_template) -> dict[float, qf.EmbeddedModel]:
    return {
        jf: qf.apply_embedding(toy_source, toy_template.with_chain_strength(jf))
        for jf in STANDARD_JFS
    }


@pytest.fixture(scope="session")
def embedded_runs_tau1000(embedded_models) -> dict[float, qf.EvolutionResult]:
    """One batched integration of all three chain strengths at tau = 1000."""
    models = [embedded_models[jf].model for jf in STANDARD_JFS]
    schedule = qf.AnnealSchedule.for_tau(1000.0)
    results = qf.evolve_many(models, schedule)
    return dict(zip(STANDARD_JFS, results))


@pytest.fixture(scope="session")
def source_run_tau1000(toy_source) -> qf.EvolutionResult:
    return qf.evolve(toy_source, qf.AnnealSchedule.for_tau(1000.0))
