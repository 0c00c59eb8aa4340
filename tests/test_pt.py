"""Perturbation-theory module: effective matrices, probabilities, validation."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qa_fairsample as qf
from qa_fairsample.data import toy_embedding_path, toy_source_path

from conftest import (
    FIXTURE_MODELS,
    dense_driver,
    dense_target,
    fold_bits,
    loop_energy_table,
    loop_first_order_entries,
    loop_gap_ratio,
    loop_second_order_entries,
)


def cfg(bits, n):
    return qf.SpinConfiguration(bits, n)


def setup_for(model):
    return qf.PerturbationSetup.from_model(model)


def ground_probabilities(result, manifold):
    """The PT answer on the ground configs, in the manifold's order."""
    return result.probabilities.vector[manifold.bits].tolist()


def folded_pt(setup):
    """The PT answer folded by inversion class over the setup's own manifold."""
    result = qf.perturbative_probabilities(setup)
    return qf.fold_ground_probabilities(result.probabilities, setup.manifold)[0]


# ----------------------------------------------------------- first order


def test_first_order_two_spin_zero():
    m = qf.first_order_matrix(setup_for(FIXTURE_MODELS["ferro2"]))
    assert m.shape == (2, 2) and m.dtype == np.float64
    assert not m.flags.writeable
    assert np.all(m == 0.0)


def test_first_order_triangle_entries():
    setup = setup_for(FIXTURE_MODELS["triangle3"])
    m = qf.first_order_matrix(setup)
    for a, ca in enumerate(setup.manifold.configs):
        for b, cb in enumerate(setup.manifold.configs):
            expected = -1.0 if (ca.bits ^ cb.bits).bit_count() == 1 else 0.0
            assert m[a, b] == expected
    assert np.abs(m).max() == 1.0
    assert np.all(np.diag(m) == 0.0)


def test_first_order_embedded_zero(embedded_models):
    setup = setup_for(embedded_models[1.0].model)
    assert np.all(qf.first_order_matrix(setup) == 0.0)


def test_first_order_source_nonzero(toy_source):
    setup = setup_for(toy_source)
    assert np.abs(qf.first_order_matrix(setup)).max() == 1.0


def test_first_order_source_single_flip_pairs(toy_source):
    setup = setup_for(toy_source)
    m = qf.first_order_matrix(setup)
    configs = setup.manifold.configs
    pairs = {
        (ca.bits, cb.bits)
        for a, ca in enumerate(configs)
        for b, cb in enumerate(configs)
        if a < b and m[a, b] == -1.0
    }
    assert pairs == {(3, 19), (12, 28)}


# ---------------------------------------------------------- second order


def test_second_order_two_spin():
    # each state reaches two single-flip intermediates with gap 2, and both
    # intermediates also connect the pair across distance 2
    m = qf.second_order_matrix(setup_for(FIXTURE_MODELS["ferro2"]))
    assert np.allclose(-m, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)


def test_second_order_symmetry(embedded_models):
    for jf in (0.5, 1.0, 1.5):
        m = qf.second_order_matrix(setup_for(embedded_models[jf].model))
        assert np.abs(m - m.T).max() <= 1e-12


def test_second_order_embedded_unit_strength(embedded_models):
    neg = -qf.second_order_matrix(setup_for(embedded_models[1.0].model))
    assert np.allclose(np.diag(neg), 7.0 / 3.0, atol=1e-12)
    off = neg[~np.eye(6, dtype=bool)]
    assert set(np.round(off, 12)) <= {0.0, 1.0}
    assert (off == 1.0).sum() == 12  # six ring edges, both triangles


def test_second_order_embedded_half_strength(embedded_models):
    neg = -qf.second_order_matrix(setup_for(embedded_models[0.5].model))
    diag = sorted(float(x) for x in np.round(np.diag(neg), 10))
    assert diag == [2.4, 2.4] + [pytest.approx(10.0 / 3.0)] * 4
    # chain-flip links are 1/J_F = 2, the rest of the ring is 1
    off = neg[~np.eye(6, dtype=bool)]
    assert set(np.round(off, 10)) == {0.0, 1.0, 2.0}
    assert (np.round(off, 10) == 2.0).sum() == 4


def test_second_order_nonnegative_negated(embedded_models):
    for jf in (0.5, 1.0, 1.5):
        m = qf.second_order_matrix(setup_for(embedded_models[jf].model))
        assert np.all(-m >= 0.0)
        assert np.all(np.diag(-m) > 0.0)


# --------------------------------------------------------- probabilities


def test_probabilities_two_spin():
    result = qf.perturbative_probabilities(setup_for(FIXTURE_MODELS["ferro2"]))
    assert result.probabilities[cfg(0, 2)] == pytest.approx(0.5, abs=1e-12)
    assert result.probabilities[cfg(3, 2)] == pytest.approx(0.5, abs=1e-12)


def test_probabilities_are_a_bits_indexed_vector(toy_source, embedded_models):
    # the type of a measured distribution: every config, zero off the manifold
    for model in (toy_source, embedded_models[0.5].model):
        setup = setup_for(model)
        probabilities = qf.perturbative_probabilities(setup).probabilities
        assert isinstance(probabilities, qf.ProbabilityVector)
        assert probabilities.num_spins == model.num_spins
        assert not probabilities.vector.flags.writeable
        off = np.ones(1 << model.num_spins, dtype=bool)
        off[setup.manifold.bits] = False
        assert not probabilities.vector[off].any()


def test_probabilities_embedded_fair_point(embedded_models):
    setup = setup_for(embedded_models[1.0].model)
    result = qf.perturbative_probabilities(setup)
    assert result.resolved_order == 2
    for p in ground_probabilities(result, setup.manifold):
        assert p == pytest.approx(1.0 / 6.0, abs=1e-10)
    for p in folded_pt(setup).values():
        assert p == pytest.approx(1.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("jf", [0.5, 1.5])
def test_probabilities_match_reference_eigenvector(embedded_models, jf):
    # independent route: Perron vector of the closed-form matrix
    reference = qf.embedded_toy_reference_matrix(jf)
    vals, vecs = np.linalg.eigh(reference)
    perron = vecs[:, -1]
    ref_folded = sorted(
        [
            perron[0] ** 2 + perron[3] ** 2,
            perron[1] ** 2 + perron[4] ** 2,
            perron[2] ** 2 + perron[5] ** 2,
        ]
    )
    got_folded = sorted(folded_pt(setup_for(embedded_models[jf].model)).values())
    assert np.allclose(got_folded, ref_folded, atol=1e-9)


def test_probability_ordering_flips_across_unit_strength(embedded_models):
    def aligned_class_probability(jf):
        return folded_pt(setup_for(embedded_models[jf].model))[cfg(0, 6)]

    assert aligned_class_probability(0.5) < 1.0 / 3.0 < aligned_class_probability(1.5)


def test_probabilities_source_suppression(toy_source):
    setup = setup_for(toy_source)
    result = qf.perturbative_probabilities(setup)
    assert result.resolved_order == 1
    assert result.probabilities[cfg(31, 5)] == 0.0
    assert result.probabilities[cfg(0, 5)] == 0.0
    folded = folded_pt(setup)
    assert folded[cfg(0, 5)] == 0.0
    assert folded[cfg(3, 5)] == pytest.approx(0.5, abs=1e-12)
    assert folded[cfg(12, 5)] == pytest.approx(0.5, abs=1e-12)


def test_probabilities_triangle_uniform():
    setup = setup_for(FIXTURE_MODELS["triangle3"])
    result = qf.perturbative_probabilities(setup)
    assert result.resolved_order == 1
    assert result.multiplicity == 1
    for p in ground_probabilities(result, setup.manifold):
        assert p == pytest.approx(1.0 / 6.0, abs=1e-10)


def test_probabilities_field_pinned_states():
    for name in ("single_spin_field", "pinned_pair"):
        setup = setup_for(FIXTURE_MODELS[name])
        result = qf.perturbative_probabilities(setup)
        assert ground_probabilities(result, setup.manifold) == [1.0]
        assert result.probabilities.vector.sum() == 1.0


def test_resolved_flag_on_resolved_answers(embedded_models, toy_source):
    embedded = qf.perturbative_probabilities(setup_for(embedded_models[0.5].model))
    assert (embedded.resolved_order, embedded.multiplicity) == (2, 1)
    assert embedded.resolved
    # two ground states two flips apart: the first-order minimum is one
    # inversion doublet, which counts as resolved
    pair = qf.perturbative_probabilities(setup_for(FIXTURE_MODELS["ferro2"]))
    assert (pair.resolved_order, pair.multiplicity, pair.resolved) == (1, 2, True)
    assert qf.perturbative_probabilities(setup_for(toy_source)).resolved


# Two independent three-spin chains: each has one inversion pair of ground
# states, so the four ground states are three flips apart and neither order
# connects them.
TWO_CHAINS = qf.IsingModel(6, ((0, 3, 1.0), (1, 3, -1.0), (2, 5, -1.0), (4, 5, 1.0)))


def test_resolved_flag_on_degeneracy_beyond_a_doublet():
    setup = setup_for(TWO_CHAINS)
    result = qf.perturbative_probabilities(setup)
    assert (result.resolved_order, result.multiplicity) == (2, 4)
    assert not result.resolved
    probabilities = ground_probabilities(result, setup.manifold)
    assert probabilities == pytest.approx([0.25] * 4, abs=1e-12)


def test_probabilities_sum_to_one(embedded_models):
    for model in [embedded_models[jf].model for jf in (0.5, 1.0, 1.5)] + list(
        FIXTURE_MODELS.values()
    ):
        result = qf.perturbative_probabilities(setup_for(model))
        assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-10)
        assert all(p >= 0.0 for p in result.probabilities.values())


def test_perron_positivity(toy_source, toy_template):
    # connected second-order support: the resolved eigenvector has no zeros
    for jf in (0.25, 0.8, 1.3, 2.0):
        embedded = qf.apply_embedding(toy_source, toy_template.with_chain_strength(jf))
        setup = setup_for(embedded.model)
        result = qf.perturbative_probabilities(setup)
        assert result.multiplicity == 1
        assert min(ground_probabilities(result, setup.manifold)) > 0.0


# ------------------------------------------ brute-force oracle (N <= 4)


def exact_ground_overlaps(model, lam):
    h = dense_target(model) + lam * dense_driver(model.num_spins)
    _, vecs = np.linalg.eigh(h)
    return np.abs(vecs[:, 0]) ** 2


@pytest.mark.parametrize("name", sorted(FIXTURE_MODELS))
@pytest.mark.parametrize("lam", [1e-2, 1e-3])
def test_brute_force_diagonalization_oracle(name, lam):
    model = FIXTURE_MODELS[name]
    setup = setup_for(model)
    result = qf.perturbative_probabilities(setup)
    overlaps = exact_ground_overlaps(model, lam)
    for b, p in zip(setup.manifold.bits, ground_probabilities(result, setup.manifold)):
        assert abs(overlaps[b] - p) <= 5.0 * lam


# ------------------------------- array layer against the per-config loops

VALUES = st.one_of(
    st.sampled_from((-1.0, 0.0, 1.0)),
    st.fractions(-3, 3, max_denominator=6).map(float),
    st.floats(-2.0, 2.0),
)


@st.composite
def loop_instances(draw):
    """A random N <= 9 model: +-1, rational or real couplings, maybe fields."""
    n = draw(st.integers(1, 9))
    couplings = tuple(
        (i, j, draw(VALUES))
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    )
    fields = tuple(draw(VALUES) for _ in range(n)) if draw(st.booleans()) else ()
    return qf.IsingModel(n, couplings, fields)


def gap_outcome(gap_fn, model, manifold, partition):
    """Every GapReport field, with dict items in order, or the ValueError."""
    try:
        r = gap_fn(model, manifold, partition)
    except ValueError as exc:
        return str(exc)
    return (
        list(r.per_state.items()),
        r.delta_e_s,
        r.delta_e_c,
        r.ratio,
        r.excluded,
    )


def assert_matches_loops(model, s_count):
    """Table, W1, W and gap report, bitwise."""
    manifold = qf.enumerate_ground_states(model)
    setup = qf.PerturbationSetup(model, manifold)
    assert qf.energy_table(model).tobytes() == loop_energy_table(model).tobytes()
    first = qf.first_order_matrix(setup)
    assert first.tobytes() == loop_first_order_entries(manifold).tobytes()
    w = qf.second_order_matrix(setup)
    assert w.dtype == first.dtype == np.float64
    assert w.shape == first.shape == (manifold.degeneracy,) * 2
    assert w.tobytes() == loop_second_order_entries(model, manifold).tobytes()
    reps = sorted({min(c, c.inverted()) for c in manifold.configs})
    if len(reps) > 1:
        k = min(s_count, len(reps) - 1)
        partition = qf.FairnessPartition(s_set=reps[:k], c_set=reps[k:])
    else:
        other = cfg(reps[0].bits ^ 1, model.num_spins)
        partition = qf.FairnessPartition(s_set=reps, c_set=(other,))
    assert gap_outcome(qf.gap_ratio, model, manifold, partition) == (
        gap_outcome(loop_gap_ratio, model, manifold, partition)
    )


@settings(max_examples=150, deadline=None)
@given(loop_instances(), st.data())
def test_array_layer_matches_per_config_loops(model, data):
    manifold = qf.enumerate_ground_states(model)
    assume(manifold.degeneracy <= 128)
    s_count = data.draw(st.integers(1, max(1, manifold.degeneracy // 2)))
    assert_matches_loops(model, s_count)


@settings(max_examples=100, deadline=None)
@given(loop_instances())
def test_folding_a_pt_answer_matches_the_bits_fold(model):
    manifold = qf.enumerate_ground_states(model)
    assume(manifold.degeneracy <= 128)
    result = qf.perturbative_probabilities(qf.PerturbationSetup(model, manifold))
    folded, excited = qf.fold_ground_probabilities(result.probabilities, manifold)
    weights = ground_probabilities(result, manifold)
    expected = fold_bits(manifold.bits.tolist(), weights, model.num_spins)
    assert list(folded.items()) == list(expected.items())
    assert excited == 1.0 - sum(weights)


def test_array_layer_matches_loops_on_a_wide_manifold():
    # three frustrated triangles of unequal strength: d = 6^3 = 216
    couplings = tuple(
        (3 * t + i, 3 * t + j, -(1.0 + 0.25 * t))
        for t in range(3)
        for i, j in ((0, 1), (0, 2), (1, 2))
    )
    model = qf.IsingModel(9, couplings)
    manifold = qf.enumerate_ground_states(model)
    assert manifold.degeneracy == 216
    assert_matches_loops(model, 3)


def test_array_layer_without_second_order_connections():
    # ground states 0000 and 1111 are four flips apart
    model = qf.IsingModel(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    manifold = qf.enumerate_ground_states(model)
    partition = qf.FairnessPartition(s_set=(cfg(0, 4),), c_set=(cfg(1, 4),))
    with pytest.raises(ValueError, match="no second-order connections"):
        qf.gap_ratio(model, manifold, partition)
    assert_matches_loops(model, 1)


# ------------------------------------------------------ reference matrix


def test_reference_matrix_values():
    m = qf.embedded_toy_reference_matrix(1.5)
    diag = sorted({float(x) for x in np.diag(m)})
    assert diag == [pytest.approx(9.0 / 4.5), pytest.approx(8.0 / 3.5)]
    off = sorted({float(x) for x in m[~np.eye(6, dtype=bool)] if x > 0})
    assert off == [pytest.approx(1.0 / 1.5), pytest.approx(1.0)]
    unit = qf.embedded_toy_reference_matrix(1.0)
    assert np.allclose(np.diag(unit), 7.0 / 3.0)


def test_find_basis_permutation():
    m = qf.embedded_toy_reference_matrix(0.5)
    assert qf.find_basis_permutation(m, m) == (0, 1, 2, 3, 4, 5)
    shuffle = (2, 0, 5, 1, 4, 3)
    p = np.asarray(shuffle)
    shuffled = m[np.ix_(p, p)]
    found = qf.find_basis_permutation(shuffled, m)
    assert found is not None
    q = np.asarray(found)
    assert np.allclose(shuffled[np.ix_(q, q)], m)
    assert qf.find_basis_permutation(m, np.eye(6)) is None
    with pytest.raises(ValueError):
        qf.find_basis_permutation(np.eye(9), np.eye(9))


# ------------------------------------------------------------ validation


def test_validate_shipped_data_files():
    report = qf.validate_toy_model(toy_source_path(), toy_embedding_path())
    assert report.passed
    names = [c.name for c in report.clauses]
    assert "source_degeneracy" in names
    assert "source_first_order_nonzero" in names
    for jf in ("0.5", "1", "1.5"):
        assert f"embedded_first_order_zero[jf={jf}]" in names
        assert f"second_order_closed_form[jf={jf}]" in names


def test_validate_detects_wrong_chain_assignment(tmp_path):
    # putting all of the chained spin's couplings on one physical spin keeps
    # the degeneracy but shifts the second-order diagonal
    data = json.loads(toy_embedding_path().read_text())
    data["coupling_assignment"] = [
        [[0, 1], [0, 1]],
        [[1, 2], [1, 2]],
        [[2, 3], [2, 3]],
        [[0, 3], [0, 3]],
        [[0, 4], [0, 4]],
        [[1, 4], [1, 4]],
        [[2, 4], [2, 4]],
        [[3, 4], [3, 4]],
    ]
    bad = tmp_path / "lopsided.json"
    bad.write_text(json.dumps(data))
    report = qf.validate_toy_model(toy_source_path(), bad)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert any(name.startswith("second_order_closed_form") for name in failed)


def test_validate_detects_flipped_coupling(tmp_path):
    data = json.loads(toy_source_path().read_text())
    data["couplings"][0][2] = -data["couplings"][0][2]
    bad = tmp_path / "flipped.json"
    bad.write_text(json.dumps(data))
    report = qf.validate_toy_model(bad, toy_embedding_path())
    assert not report.passed
    assert "source_degeneracy" in {c.name for c in report.failures()}
