"""Analysis module: folding, fairness ratio, gap ratios, sweeps, CSV output."""

import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qa_fairsample as qf
from qa_fairsample.errors import UndefinedRatioError
from qa_fairsample.pt import second_order_links

from conftest import (
    FIXTURE_MODELS,
    consensus_project_and_fold,
    embedded_instances,
    loop_gap_ratio,
)


def cfg(bits, n):
    return qf.SpinConfiguration(bits, n)


# --------------------------------------------------------------- folding


def test_inversion_classes_toy(toy_manifold):
    classes = qf.inversion_classes(toy_manifold)
    assert [tuple(c.bits for c in group) for group in classes] == [
        (0, 31),
        (3, 28),
        (12, 19),
    ]


def test_fold_uniform_source_through_identity(toy_source, toy_manifold):
    # uniform distribution: 6/32 on the manifold, the rest is excited
    probs = qf.ProbabilityVector([1.0 / 32.0] * 32)
    identity = qf.identity_embedding(toy_source)
    folded, excited = qf.project_and_fold(probs, identity, toy_manifold)
    assert all(p == pytest.approx(1.0 / 16.0) for p in folded.values())
    assert excited == pytest.approx(26.0 / 32.0)


def test_project_and_fold_uniform(toy_manifold, embedded_models):
    em = embedded_models[1.0]
    probs = qf.ProbabilityVector([1.0 / 64.0] * 64)
    folded, excited = qf.project_and_fold(probs, em.embedding, toy_manifold)
    assert all(p == pytest.approx(2.0 / 64.0) for p in folded.values())
    assert excited == pytest.approx(58.0 / 64.0)


def test_fold_rejects_distribution_of_other_size(
    toy_source, toy_manifold, embedded_models
):
    logical = qf.ProbabilityVector([1.0 / 32.0] * 32)
    physical = qf.ProbabilityVector([1.0 / 64.0] * 64)
    with pytest.raises(ValueError, match="does not match"):
        qf.project_and_fold(logical, embedded_models[1.0].embedding, toy_manifold)
    with pytest.raises(ValueError, match="does not match"):
        qf.project_and_fold(physical, qf.identity_embedding(toy_source), toy_manifold)


def test_fold_rejects_a_manifold_of_another_logical_size(embedded_models):
    # the bundled embedding maps 5 logical spins: lifting a 4-spin ring's
    # manifold through it would leave the fifth chain unread
    ring = qf.IsingModel(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)))
    manifold = qf.enumerate_ground_states(ring)
    probs = qf.ProbabilityVector([1.0 / 64.0] * 64)
    with pytest.raises(ValueError, match="maps 5 logical spins but the manifold has 4"):
        qf.project_and_fold(probs, embedded_models[1.0].embedding, manifold)


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(embedded_instances(), SEEDS)
def test_fold_matches_consensus_oracle_on_vectors(instance, seed):
    model, embedding = instance
    manifold = qf.enumerate_ground_states(model)
    rng = np.random.default_rng(seed)
    physical = rng.random(1 << embedding.num_physical)
    probs = qf.ProbabilityVector(physical / physical.sum())
    assert qf.project_and_fold(probs, embedding, manifold) == (
        consensus_project_and_fold(probs, embedding.chains, manifold)
    )
    logical = rng.random(1 << model.num_spins)
    probs = qf.ProbabilityVector(logical / logical.sum())
    identity = qf.identity_embedding(model)
    assert qf.project_and_fold(probs, identity, manifold) == (
        consensus_project_and_fold(probs, identity.chains, manifold)
    )


@settings(max_examples=60, deadline=None)
@given(embedded_instances(), SEEDS)
def test_fold_matches_consensus_oracle_on_sparse_vectors(instance, seed):
    # zero on most entries, as a PT answer is off its manifold
    model, embedding = instance
    manifold = qf.enumerate_ground_states(model)
    rng = np.random.default_rng(seed)
    m = embedding.num_physical
    ground = [qf.lift_state(g, embedding).bits for g in manifold.configs]
    # a random part of the lifted manifold, each of its configs with one
    # member of every long chain flipped (a broken chain), and random others
    keys = {b for b in ground if rng.random() < 0.7}
    keys |= {
        b ^ (1 << chain[0]) for b in ground for chain in embedding.chains if len(chain) > 1
    }
    keys |= set(rng.integers(0, 1 << m, size=6).tolist())
    vector = np.zeros(1 << m)
    vector[sorted(keys)] = rng.random(len(keys))
    probs = qf.ProbabilityVector(vector)
    if any(len(chain) > 1 for chain in embedding.chains):
        broken = (qf.SpinConfiguration(b, m) for b in keys)
        assert any(qf.project_state(c, embedding) is None for c in broken)
    folded, excited = qf.project_and_fold(probs, embedding, manifold)
    assert (folded, excited) == (
        consensus_project_and_fold(probs, embedding.chains, manifold)
    )
    # every class is listed, at 0 where no weight lands on its lifts
    assert len(folded) == len(qf.inversion_classes(manifold))


def test_probability_vector_view():
    probs = qf.ProbabilityVector([0.1, 0.2, 0.3, 0.4])
    assert probs.num_spins == 2 and len(probs) == 4
    assert probs[cfg(2, 2)] == 0.3
    assert list(probs) == [cfg(b, 2) for b in range(4)]
    assert cfg(0, 3) not in probs
    with pytest.raises(KeyError):
        probs[cfg(0, 1)]
    with pytest.raises(ValueError):
        probs.vector[0] = 1.0
    with pytest.raises(ValueError):
        qf.ProbabilityVector([0.5, 0.25, 0.25])


# ------------------------------------------------------------- partition


def test_partition_from_indices_defaults(toy_manifold):
    partition = qf.default_partition(toy_manifold)
    assert [c.bits for c in partition.s_set] == [0]
    assert [c.bits for c in partition.c_set] == [3, 12]


def test_partition_names_classes_as_folding_does():
    # ground bits 3 and 11: the class of 11 is named by its inversion 4,
    # which is excited, because folding keys it by min(c, ~c)
    model = qf.IsingModel(
        4, ((0, 1, 1.0), (1, 2, -1.0), (2, 3, 1.0), (0, 3, 1.0)),
        fields=(0.5, 0.0, -0.25, 0.0),
    )
    manifold = qf.enumerate_ground_states(model)
    assert [c.bits for c in manifold.configs] == [3, 11]
    partition = qf.default_partition(manifold)
    assert [c.bits for c in partition.s_set] == [3]
    assert [c.bits for c in partition.c_set] == [4]
    probs = np.zeros(16)
    probs[[3, 11]] = 0.5
    folded, _ = qf.project_and_fold(
        qf.ProbabilityVector(probs), qf.identity_embedding(model), manifold
    )
    assert [c.bits for c in folded] == [3, 4]
    assert qf.fairness_ratio(folded, partition) == 1.0


@pytest.mark.parametrize("index", [3, -1, True, 1.0])
def test_partition_rejects_bad_class_index(toy_manifold, index):
    with pytest.raises(ValueError, match=f"class index {index!r}"):
        qf.FairnessPartition.from_class_indices(toy_manifold, (index,))


def test_partition_validation(toy_manifold):
    rep = cfg(0, 5)
    with pytest.raises(ValueError):
        qf.FairnessPartition(s_set=(), c_set=(rep,))
    with pytest.raises(ValueError):
        qf.FairnessPartition(s_set=(rep,), c_set=(rep,))
    with pytest.raises(ValueError, match="same spin count"):
        qf.FairnessPartition(s_set=(rep,), c_set=(cfg(3, 5), cfg(3, 6)))


@pytest.mark.parametrize("s_indices", [(0, 1, 1), (0, 0, 1), (2, 2)])
def test_partition_rejects_repeated_members(toy_manifold, s_indices):
    # a repeat would weight its class twice in the set's mean
    with pytest.raises(ValueError, match="partition set S repeats a member"):
        qf.FairnessPartition.from_class_indices(toy_manifold, s_indices)
    rep = cfg(0, 5)
    with pytest.raises(ValueError, match="partition set C repeats a member"):
        qf.FairnessPartition(s_set=(cfg(3, 5),), c_set=(rep, rep))


# -------------------------------------------------------- fairness ratio


def _toy_partition():
    return qf.FairnessPartition(s_set=(cfg(0, 5),), c_set=(cfg(3, 5), cfg(12, 5)))


def test_fairness_uniform_is_one():
    folded = {cfg(0, 5): 1 / 3, cfg(3, 5): 1 / 3, cfg(12, 5): 1 / 3}
    assert qf.fairness_ratio(folded, _toy_partition()) == pytest.approx(1.0)


def test_fairness_zero_s_mean():
    folded = {cfg(0, 5): 0.0, cfg(3, 5): 0.5, cfg(12, 5): 0.5}
    assert qf.fairness_ratio(folded, _toy_partition()) == 0.0


def test_fairness_infinite_when_c_empty():
    folded = {cfg(0, 5): 1.0, cfg(3, 5): 0.0, cfg(12, 5): 0.0}
    assert qf.fairness_ratio(folded, _toy_partition()) == math.inf


def test_fairness_undefined_ratio():
    folded = {cfg(0, 5): 0.0, cfg(3, 5): 0.0, cfg(12, 5): 0.0}
    with pytest.raises(UndefinedRatioError):
        qf.fairness_ratio(folded, _toy_partition())


def test_fairness_scale_invariance():
    partition = _toy_partition()
    folded = {cfg(0, 5): 0.2, cfg(3, 5): 0.5, cfg(12, 5): 0.3}
    base = qf.fairness_ratio(folded, partition)
    scaled = {k: 7.5 * v for k, v in folded.items()}
    assert qf.fairness_ratio(scaled, partition) == pytest.approx(base)


def test_fairness_uniform_any_partition():
    keys = [cfg(b, 4) for b in (0, 1, 2, 4)]
    folded = {k: 0.25 for k in keys}
    for split in (1, 2, 3):
        partition = qf.FairnessPartition(
            s_set=tuple(keys[:split]), c_set=tuple(keys[split:])
        )
        assert qf.fairness_ratio(folded, partition) == pytest.approx(1.0)


def test_fairness_rejects_stray_classes():
    folded = {cfg(5, 5): 1.0}
    with pytest.raises(ValueError):
        qf.fairness_ratio(folded, _toy_partition())


# ------------------------------------------------------------- gap ratio


@pytest.mark.parametrize("jf", [0.5, 1.0, 1.5])
def test_gap_ratio_embedded(toy_manifold, embedded_models, jf):
    em = embedded_models[jf]
    manifold = qf.enumerate_ground_states(em.model)
    partition = qf.FairnessPartition(
        s_set=(cfg(0, 6),), c_set=(cfg(3, 6), cfg(12, 6))
    )
    report = qf.gap_ratio(em.model, manifold, partition)
    assert report.ratio == pytest.approx(2.0 / (1.0 + jf), abs=1e-12)
    assert report.delta_e_s == pytest.approx(2.0)
    assert report.delta_e_c == pytest.approx(1.0 + jf)
    assert not report.excluded
    # chain-flip connections are mediated by two broken-chain intermediates
    gaps, _, neighbours = second_order_links(em.model, manifold)
    a, b = manifold.configs.index(cfg(3, 6)), manifold.configs.index(cfg(51, 6))
    chain_gaps = [gap for gap, reach in zip(gaps[a], neighbours[a]) if b in reach]
    assert chain_gaps == [pytest.approx(2.0 * jf), pytest.approx(2.0 * jf)]


def test_gap_ratio_two_spin_symmetric():
    model = FIXTURE_MODELS["ferro2"]
    manifold = qf.enumerate_ground_states(model)
    partition = qf.FairnessPartition(s_set=(cfg(3, 2),), c_set=(cfg(0, 2),))
    report = qf.gap_ratio(model, manifold, partition)
    assert report.ratio == pytest.approx(1.0)


def test_gap_ratio_requires_connections():
    model = FIXTURE_MODELS["afm_chain4"]
    manifold = qf.enumerate_ground_states(model)
    partition = qf.FairnessPartition(
        s_set=(manifold.configs[0],), c_set=(manifold.configs[1],)
    )
    with pytest.raises(ValueError):
        qf.gap_ratio(model, manifold, partition)


def test_gap_ratio_excludes_ground_states_with_a_broken_chain():
    # at J_F = 1 the chain (0, 4) breaks in two of the eight physical ground
    # states, bits 3 and 28; both have mediating intermediates, but no class
    # of the lifted partition covers them, so they are left out of the means
    source = qf.IsingModel(4, ((0, 1, 1.0), (0, 3, 1.0), (1, 2, -2.0), (2, 3, 1.0)))
    embedding = qf.Embedding(
        4,
        ((0, 4), (1,), (2,), (3,)),
        1.0,
        (((0, 1), (0, 1)), ((0, 3), (4, 3)), ((1, 2), (1, 2)), ((2, 3), (2, 3))),
    )
    model = qf.apply_embedding(source, embedding).model
    manifold = qf.enumerate_ground_states(model)
    partition = map_partition(
        qf.default_partition(qf.enumerate_ground_states(source)),
        lambda c: qf.lift_state(c, embedding),
    )
    report = qf.gap_ratio(model, manifold, partition)
    broken = [c for c in manifold.configs if qf.project_state(c, embedding) is None]
    assert broken == [cfg(3, 5), cfg(28, 5)]
    assert report.excluded == tuple(broken)
    assert report.per_state.keys() == set(manifold.configs)
    assert (report.delta_e_s, report.delta_e_c, report.ratio) == (4.0, 4.0, 1.0)
    assert report == loop_gap_ratio(model, manifold, partition)


# Non-bundled instances whose gap ratio is not 1, from a seeded search (seed
# 7): N = 4-6 +-{1,2,3} couplings at edge probability 0.6, one 2-spin chain
# (c, N), each coupling on a random member of its chains. Entries are
# (N, c, J_F, ((i, j, J, p, q), ...)) with (p, q) the physical pair of (i, j).
UNEQUAL_GAP_INSTANCES = (
    (5, 0, 2.5, ((0, 1, -2, 0, 1), (0, 4, 2, 5, 4), (1, 3, 3, 1, 3),
                 (2, 4, -3, 2, 4), (3, 4, 2, 3, 4))),
    (6, 5, 1.5, ((0, 1, 1, 0, 1), (0, 4, -2, 0, 4), (0, 5, 1, 0, 5),
                 (1, 3, -1, 1, 3), (1, 4, -3, 1, 4), (1, 5, -2, 1, 5),
                 (2, 3, 2, 2, 3), (2, 4, -3, 2, 4), (2, 5, 1, 2, 6),
                 (3, 4, 1, 3, 4))),
    (6, 0, 2.5, ((0, 1, -3, 0, 1), (0, 2, -1, 6, 2), (0, 3, -3, 0, 3),
                 (0, 5, 1, 6, 5), (1, 2, -1, 1, 2), (1, 5, 2, 1, 5),
                 (2, 3, 3, 2, 3), (2, 4, 1, 2, 4), (4, 5, -1, 4, 5))),
    (4, 2, 2.5, ((0, 1, -3, 0, 1), (0, 3, 3, 0, 3), (1, 2, 2, 1, 4),
                 (1, 3, 1, 1, 3), (2, 3, 2, 2, 3))),
    (5, 2, 2.5, ((0, 1, -1, 0, 1), (0, 3, 1, 0, 3), (1, 3, 2, 1, 3),
                 (1, 4, 2, 1, 4), (2, 3, -1, 5, 3), (2, 4, 1, 5, 4))),
    (5, 0, 2.5, ((0, 3, 1, 5, 3), (0, 4, -3, 5, 4), (1, 2, 1, 1, 2),
                 (1, 3, 1, 1, 3), (1, 4, 2, 1, 4), (2, 3, 2, 2, 3),
                 (2, 4, 1, 2, 4), (3, 4, -2, 3, 4))),
)
UNEQUAL_GAP_RATIOS = (22 / 23, 96 / 41, 1.5, 1.35, 112 / 111, 1.5)


@pytest.mark.parametrize(
    "instance, ratio",
    zip(UNEQUAL_GAP_INSTANCES, UNEQUAL_GAP_RATIOS),
    ids=[str(k) for k in range(len(UNEQUAL_GAP_RATIOS))],
)
def test_sweep_gap_ratio_sides_match_the_loop_oracle(instance, ratio):
    # a gap ratio other than 1 shows which side each state was put on: a
    # swap of S and C anywhere on the sweep's path inverts it
    n, chain_spin, jf, couplings = instance
    source = qf.IsingModel(n, tuple((i, j, float(J)) for i, j, J, _, _ in couplings))
    chains = tuple((i, n) if i == chain_spin else (i,) for i in range(n))
    assignment = tuple(((i, j), (p, q)) for i, j, _, p, q in couplings)
    template = qf.Embedding(n, chains, 1.0, assignment)
    (row,) = qf.sweep_chain_strength(source, template, (jf,), methods=("PT",))

    em = qf.apply_embedding(source, template.with_chain_strength(jf))
    manifold = qf.enumerate_ground_states(em.model)
    partition = qf.default_partition(qf.enumerate_ground_states(source))
    lifted = lift_partition_through(partition, em.embedding)
    oracle = loop_gap_ratio(em.model, manifold, lifted)
    assert qf.gap_ratio(em.model, manifold, lifted) == oracle
    assert row.gap_ratio == oracle.ratio == pytest.approx(ratio, rel=1e-12)


def test_gap_ratio_rejects_a_partition_of_another_size(toy_manifold, embedded_models):
    # the logical partition names 5-spin classes; the variant has 6 spins
    model = embedded_models[1.0].model
    manifold = qf.enumerate_ground_states(model)
    partition = qf.default_partition(toy_manifold)
    with pytest.raises(ValueError, match="have 5 spins but the model has 6"):
        qf.gap_ratio(model, manifold, partition)


def test_gap_ratio_requires_degeneracy():
    model = FIXTURE_MODELS["pinned_pair"]
    manifold = qf.enumerate_ground_states(model)
    partition = _toy_partition()
    with pytest.raises(ValueError):
        qf.gap_ratio(model, manifold, partition)


# ------------------------------------------------------------ relabelling


def relabel(config, perm):
    """The config with physical spin p renamed perm[p]."""
    bits = sum(1 << perm[p] for p in range(config.num_spins) if (config.bits >> p) & 1)
    return qf.SpinConfiguration(bits, config.num_spins)


def map_partition(partition, fn):
    """The partition with each class representative c renamed min(fn(c), ~fn(c))."""

    def rep(c):
        return min(fn(c), fn(c).inverted())

    return qf.FairnessPartition(
        s_set=tuple(map(rep, partition.s_set)), c_set=tuple(map(rep, partition.c_set))
    )


@st.composite
def chained_instances(draw):
    """A +-1 model with N <= 6, one 2-spin chain, J_F and a physical relabelling."""
    n = draw(st.integers(3, 6))
    couplings = tuple(
        (i, j, draw(st.sampled_from((-1.0, 1.0))))
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.sampled_from((True, True, False)))
    )
    fields = tuple(draw(st.sampled_from((0.0, 0.0, 0.0, 1.0, -1.0))) for _ in range(n))
    chained = draw(st.integers(0, n - 1))
    chains = tuple((i, n) if i == chained else (i,) for i in range(n))
    assignment = tuple(
        ((i, j), (draw(st.sampled_from(chains[i])), draw(st.sampled_from(chains[j]))))
        for i, j, _ in couplings
    )
    jf = draw(st.sampled_from((0.5, 1.0, 1.5)))
    perm = draw(st.permutations(range(n + 1)))
    embedding = qf.Embedding(n, chains, jf, assignment)
    return qf.IsingModel(n, couplings, fields), embedding, perm


def pt_outcome(source, embedding):
    """PT folded classes and fairness ratio, or the refusal message."""
    try:
        manifold = qf.enumerate_ground_states(source)
        partition = qf.default_partition(manifold)
        model = qf.apply_embedding(source, embedding).model
        result = qf.perturbative_probabilities(qf.PerturbationSetup.from_model(model))
        folded, _ = qf.project_and_fold(result.probabilities, embedding, manifold)
        return folded, qf.fairness_ratio(folded, partition)
    except (ValueError, qf.FairSamplingError) as exc:
        return str(exc)


def gap_outcome(source, embedding, partition, perm):
    """The gap report with its physical configs relabelled by ``perm``, or the
    refusal message."""
    model = qf.apply_embedding(source, embedding).model
    try:
        r = qf.gap_ratio(model, qf.enumerate_ground_states(model), partition)
    except ValueError as exc:
        return str(exc)
    per_state = {relabel(c, perm): gap for c, gap in r.per_state.items()}
    excluded = {relabel(c, perm) for c in r.excluded}
    return per_state, excluded, r.delta_e_s, r.delta_e_c, r.ratio


@settings(max_examples=150, deadline=None)
@given(chained_instances())
def test_relabelling_physical_spins_changes_no_answer(instance):
    source, embedding, perm = instance
    relabelled = qf.Embedding(
        embedding.num_logical,
        tuple(tuple(perm[p] for p in chain) for chain in embedding.chains),
        embedding.chain_strength,
        tuple(
            (pair, (perm[p], perm[q])) for pair, (p, q) in embedding.coupling_assignment
        ),
    )
    identity = tuple(range(len(perm)))

    got, expected = pt_outcome(source, relabelled), pt_outcome(source, embedding)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got[0].keys() == expected[0].keys()
        for rep, p in expected[0].items():
            assert got[0][rep] == pytest.approx(p, rel=0.0, abs=1e-12)
        assert got[1] == pytest.approx(expected[1], rel=0.0, abs=1e-12)

    try:
        partition = qf.default_partition(qf.enumerate_ground_states(source))
    except ValueError:
        return  # a single inversion class, refused alike by pt_outcome above
    physical = map_partition(partition, lambda c: qf.lift_state(c, embedding))
    mapped = map_partition(physical, lambda c: relabel(c, perm))
    assert mapped == map_partition(partition, lambda c: qf.lift_state(c, relabelled))
    got = gap_outcome(source, relabelled, mapped, identity)
    expected = gap_outcome(source, embedding, physical, perm)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got[0].keys() == expected[0].keys() and got[1] == expected[1]
        for config, gap in expected[0].items():
            assert got[0][config] == pytest.approx(gap, rel=0.0, abs=1e-12)
        for a, b in zip(got[2:], expected[2:]):
            assert a == pytest.approx(b, rel=0.0, abs=1e-12)


# ----------------------------------------------------------------- sweeps


def test_sweep_tau_structure(toy_source, toy_template):
    embeddings = [
        (f"embedded[jf={jf:g}]", toy_template.with_chain_strength(jf))
        for jf in (0.5, 1.0)
    ]
    records = qf.sweep_tau(toy_source, embeddings, (1.0, 5.0))
    assert [r.model for r in records] == [
        "original", "embedded[jf=0.5]", "embedded[jf=1]",
    ] * 2
    assert [r.value for r in records] == [1.0, 1.0, 1.0, 5.0, 5.0, 5.0]
    for r in records:
        assert r.error is None
        assert r.method == "SE"
        assert r.parameter == "tau"
        assert r.norm_drift <= 1e-6
        assert 0.0 <= r.excited_weight <= 1.0
        total = sum(r.folded.values())
        assert total <= 1.0 + 1e-9
        assert total + r.excited_weight == pytest.approx(1.0, abs=1e-9)
        assert r.ratio >= 0.0


def test_sweep_tau_is_one_evolve_call(monkeypatch, toy_source, toy_template):
    # every variant at every tau, each row with its own schedule
    module = importlib.import_module("qa_fairsample.analysis")
    calls = []
    evolve_many = module.evolve_many

    def recording(models, schedules, **kwargs):
        calls.append([(m.num_spins, s.tau, s.steps) for m, s in zip(models, schedules)])
        return evolve_many(models, schedules, **kwargs)

    monkeypatch.setattr(module, "evolve_many", recording)
    embeddings = [("embedded[jf=1]", toy_template.with_chain_strength(1.0))]
    qf.sweep_tau(toy_source, embeddings, (1.0, 5.0), steps=8)
    assert calls == [[(5, 1.0, 8), (6, 1.0, 8), (5, 5.0, 8), (6, 5.0, 8)]]


@pytest.mark.parametrize("same_size", [False, True], ids=["alone", "batched"])
def test_sweep_tau_original_rows_are_evolve_and_fold(
    toy_source, toy_template, same_size
):
    # the source runs as its identity embedding; batched with a variant of
    # its own spin count or alone, its rows are those of a plain evolve
    embeddings = [("embedded[jf=1]", toy_template.with_chain_strength(1.0))]
    if same_size:
        embeddings.append(("identity", qf.identity_embedding(toy_source)))
    taus = (1.0, 5.0)
    records = qf.sweep_tau(toy_source, embeddings, taus)
    manifold = qf.enumerate_ground_states(toy_source)
    partition = qf.default_partition(manifold)
    original = [r for r in records if r.model == "original"]
    assert [r.value for r in original] == list(taus)
    for r, tau in zip(original, taus):
        result = qf.evolve(toy_source, qf.AnnealSchedule.for_tau(tau))
        folded, excited = qf.project_and_fold(
            result.final_probabilities, qf.identity_embedding(toy_source), manifold
        )
        assert r.folded == folded
        assert list(r.folded) == list(folded)
        assert r.excited_weight == excited
        assert r.norm_drift == result.norm_drift
        assert r.ratio == qf.fairness_ratio(folded, partition)


def test_sweep_error_rows_continue(tmp_path, toy_source, toy_template):
    # a hopelessly under-resolved schedule fails per row without aborting
    embeddings = [("embedded[jf=1]", toy_template.with_chain_strength(1.0))]
    records = qf.sweep_tau(toy_source, embeddings, (1000.0,), steps=10)
    assert len(records) == 2
    for r in records:
        assert r.error is not None and "drift" in r.error
        assert r.folded is None and r.ratio is None
    out = tmp_path / "errors.csv"
    qf.write_sweep_csv(records, out)
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    # no row carries probabilities, so no P_k columns appear at all
    assert lines[0] == "model,parameter,method,ratio_PS_PC,gap_ratio,excited_weight,norm_drift"
    cells = lines[1].split(",")
    assert cells[3] == "" and cells[5] == ""  # no ratio, no excited weight
    assert cells[-1] != ""  # the drift that failed is still reported


def test_sweep_tau_validation(toy_source):
    with pytest.raises(ValueError):
        qf.sweep_tau(toy_source, [], ())
    with pytest.raises(ValueError):
        qf.sweep_tau(toy_source, [], (5.0, 1.0))


def test_sweep_chain_strength_pt_rows(toy_source, toy_template):
    records = qf.sweep_chain_strength(
        toy_source, toy_template, (0.5, 1.0, 1.5), methods=("PT",)
    )
    assert len(records) == 3
    by_jf = {r.value: r for r in records}
    fair = by_jf[1.0]
    for p in fair.folded.values():
        assert p == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert fair.ratio == pytest.approx(1.0, abs=1e-9)
    assert fair.gap_ratio == pytest.approx(1.0)
    s_class = cfg(0, 5)
    assert by_jf[0.5].folded[s_class] < 1.0 / 3.0 < by_jf[1.5].folded[s_class]
    assert by_jf[0.5].gap_ratio > 1.0 > by_jf[1.5].gap_ratio
    for r in records:
        assert r.method == "PT"
        assert r.norm_drift is None


def test_sweep_chain_strength_validation(toy_source, toy_template):
    # the J_F check is the embedding's own, so nan and True are refused too
    for jf in (0.0, -1.0, math.nan, True):
        with pytest.raises(qf.EmbeddingError, match="chain strength must be positive"):
            qf.sweep_chain_strength(toy_source, toy_template, (1.0, jf))
    with pytest.raises(ValueError):
        qf.sweep_chain_strength(toy_source, toy_template, (1.0,), methods=("XX",))


def test_energy_table_memo_stays_bounded_over_a_sweep(toy_source, toy_template):
    # one table per J_F variant would pile up 40 here
    qf.energy_table.cache_clear()
    strengths = [k / 20.0 for k in range(1, 41)]
    qf.sweep_chain_strength(toy_source, toy_template, strengths, methods=("PT",))
    assert qf.energy_table.cache_info().currsize <= 4


def test_sweep_chain_strength_se_smoke(toy_source, toy_template):
    # short anneal: structure only, accuracy is covered at tau = 1000
    records = qf.sweep_chain_strength(
        toy_source, toy_template, (1.0,), tau=5.0, methods=("PT", "SE")
    )
    assert [r.method for r in records] == ["PT", "SE"]
    se = records[1]
    assert se.norm_drift is not None and se.norm_drift <= 1e-6
    assert se.gap_ratio == records[0].gap_ratio


def lift_partition_through(partition, embedding):
    """The partition's class representatives lifted through ``embedding``."""
    mask = (1 << embedding.num_physical) - 1

    def rep(config):
        bits = qf.lift_state(config, embedding).bits
        return cfg(min(bits, bits ^ mask), embedding.num_physical)

    return qf.FairnessPartition(
        tuple(map(rep, partition.s_set)), tuple(map(rep, partition.c_set))
    )


def composed_chain_sweep(source, template, strengths, methods, tau=1000.0):
    """``sweep_chain_strength`` rebuilt one J_F at a time from public calls.

    Each J_F embeds, runs PT and a one-row ``evolve_many``, folds, and takes
    the gap ratio with the partition lifted through its own embedding.
    """
    source_manifold = qf.enumerate_ground_states(source)
    partition = qf.default_partition(source_manifold)
    rows = []
    for jf in strengths:
        em = qf.apply_embedding(source, template.with_chain_strength(jf))
        manifold = qf.enumerate_ground_states(em.model)
        lifted = lift_partition_through(partition, em.embedding)
        gap = qf.gap_ratio(em.model, manifold, lifted).ratio
        label = f"embedded[jf={jf:g}]"
        answers = []
        if "PT" in methods:
            pt = qf.perturbative_probabilities(qf.PerturbationSetup(em.model, manifold))
            answers.append(("PT", pt.probabilities, None))
        if "SE" in methods:
            schedule = qf.AnnealSchedule.for_tau(tau)
            (result,) = qf.evolve_many([em.model], schedule, enforce_drift=False)
            answers.append(("SE", result.final_probabilities, result))
        for method, probabilities, result in answers:
            drift = None if result is None else result.norm_drift
            failure = None if result is None else qf.accuracy_failure(result)
            if failure is not None:
                rows.append(
                    qf.SweepRecord(
                        label, "jf", jf, method, None, None, gap, None, drift, failure
                    )
                )
                continue
            folded, excited = qf.project_and_fold(
                probabilities, em.embedding, source_manifold
            )
            ratio = qf.fairness_ratio(folded, partition)
            rows.append(
                qf.SweepRecord(label, "jf", jf, method, folded, ratio, gap, excited, drift)
            )
    return rows


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        for field in dataclasses.fields(qf.SweepRecord):
            assert getattr(got_row, field.name) == getattr(want_row, field.name), (
                f"{want_row.model} {want_row.method}: {field.name}"
            )


def test_sweep_chain_strength_rows_are_per_jf_compositions(toy_source, toy_template):
    # the sweep lifts the partition once; every J_F must see the same rows
    strengths = (0.5, 1.0, 1.5)
    got = qf.sweep_chain_strength(toy_source, toy_template, strengths, tau=5.0)
    want = composed_chain_sweep(toy_source, toy_template, strengths, ("PT", "SE"), 5.0)
    assert [r.method for r in got] == ["PT", "SE"] * 3
    assert all(r.error is None for r in got)
    assert_same_rows(got, want)


# most draws are refused (one inversion class, no second-order links);
# 250 examples reach about 30 answered sweeps
@settings(max_examples=250, deadline=None)
@given(
    embedded_instances(),
    st.lists(st.sampled_from((0.05, 0.5, 1.0, 1.5)), min_size=1, max_size=3, unique=True),
)
def test_sweep_chain_strength_matches_compositions_on_random_instances(
    instance, strengths
):
    source, template = instance
    try:
        want = composed_chain_sweep(source, template, strengths, ("PT",))
    except Exception as exc:
        # the sweep refuses with the first refusal of the compositions
        with pytest.raises(Exception) as info:
            qf.sweep_chain_strength(source, template, strengths, methods=("PT",))
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return
    got = qf.sweep_chain_strength(source, template, strengths, methods=("PT",))
    assert_same_rows(got, want)


# -------------------------------------------------------------------- CSV


def test_write_csv_layout(tmp_path, toy_source, toy_template):
    records = qf.sweep_chain_strength(
        toy_source, toy_template, (0.5, 1.0), methods=("PT",)
    )
    out = tmp_path / "sweep.csv"
    qf.write_sweep_csv(records, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == (
        "model,parameter,method,P_1,P_2,P_3,"
        "ratio_PS_PC,gap_ratio,excited_weight,norm_drift"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "embedded[jf=0.5]"
    assert first[1] == "0.5"
    assert first[2] == "PT"
    assert first[-1] == ""  # PT rows carry no norm drift
    # deterministic output: a second write is byte-identical
    again = tmp_path / "sweep2.csv"
    qf.write_sweep_csv(
        qf.sweep_chain_strength(toy_source, toy_template, (0.5, 1.0), methods=("PT",)),
        again,
    )
    assert out.read_bytes() == again.read_bytes()


def test_write_csv_atomic(tmp_path, toy_source, toy_template):
    records = qf.sweep_chain_strength(
        toy_source, toy_template, (1.0,), methods=("PT",)
    )
    out = tmp_path / "atomic.csv"
    qf.write_sweep_csv(records, out)
    assert out.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers
