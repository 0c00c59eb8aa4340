"""Model module: energies, exhaustive ground-state search, bit utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qa_fairsample as qf
from qa_fairsample.errors import ModelTooLargeError
from qa_fairsample.model import _components

from conftest import (
    brute_energy,
    brute_ground_bits,
    embedded_instances,
    loop_energy_table,
    search_components,
)


def cfg(bits, n):
    return qf.SpinConfiguration(bits, n)


def random_model(rng, num_spins, with_fields=False, integer=True):
    pairs = [(i, j) for i in range(num_spins) for j in range(i + 1, num_spins)]
    chosen = [p for p in pairs if rng.random() < 0.7]
    if not chosen:
        chosen = [pairs[0]]
    values = rng.choice([-1.0, 1.0], size=len(chosen))
    if not integer:
        values = values * rng.choice([0.5, 1.0, 1.5], size=len(chosen))
    couplings = tuple((i, j, float(v)) for (i, j), v in zip(chosen, values))
    fields = ()
    if with_fields:
        fields = tuple(float(h) for h in rng.choice([-1.0, 0.0, 1.0], size=num_spins))
    return qf.IsingModel(num_spins, couplings, fields)


# ---------------------------------------------------------------- energy


def test_energy_single_bond_satisfied():
    model = qf.IsingModel(2, ((0, 1, 1.0),))
    assert qf.energy_table(model)[0b11] == -1.0


def test_energy_single_bond_violated():
    model = qf.IsingModel(2, ((0, 1, 1.0),))
    assert qf.energy_table(model)[0b01] == 1.0


def test_energy_all_up_attains_toy_minimum(toy_source):
    e_min = min(brute_energy(toy_source, b) for b in range(32))
    assert qf.energy_table(toy_source)[(1 << 5) - 1] == e_min == -4.0


@pytest.mark.parametrize("seed", range(6))
def test_energy_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, int(rng.integers(2, 7)), with_fields=seed % 2 == 0)
    table = qf.energy_table(model)
    for bits in range(1 << model.num_spins):
        assert table[bits] == pytest.approx(brute_energy(model, bits), abs=1e-12)


def test_energy_table_matches_energy(toy_source):
    table = qf.energy_table(toy_source)
    for bits in range(32):
        assert table[bits] == brute_energy(toy_source, bits)


@settings(max_examples=80, deadline=None)
@given(st.lists(embedded_instances(), min_size=1, max_size=2), st.data())
def test_chain_strength_variants_share_exact_tables(instances, data):
    # the J_F variants of each embedding get the one-pass table in any call
    # order, and the one memo stays bounded
    strengths = st.lists(
        st.sampled_from((0.1, 0.5, 1.0, 1.7, 2.0)), min_size=1, max_size=4, unique=True
    )
    models = []
    for source, embedding in instances:
        models.append(source)
        for jf in data.draw(strengths):
            variant = embedding.with_chain_strength(jf)
            models.append(qf.apply_embedding(source, variant).model)
    for _ in range(2):
        qf.energy_table.cache_clear()
        assert qf.energy_table.cache_info().currsize == 0
        for model in data.draw(st.permutations(models)):
            table = qf.energy_table(model)
            assert table.tobytes() == loop_energy_table(model).tobytes()
            assert not table.flags.writeable
        assert qf.energy_table.cache_info().currsize <= 4


@st.composite
def kernel_edge_models(draw):
    """Models of 1-16 spins whose couplings sit at the table kernel's edge
    shapes: adjacent pairs, spin 0, the top spin, non-integer values, with
    or without fields; couplings come in draw order, not sorted."""
    n = draw(st.integers(1, 16))
    couplings = ()
    if n > 1:
        pairs = st.one_of(
            st.integers(0, n - 2).map(lambda i: (i, i + 1)),
            st.integers(1, n - 1).map(lambda j: (0, j)),
            st.integers(0, n - 2).map(lambda i: (i, n - 1)),
            st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(
                lambda p: tuple(sorted(p))
            ),
        )
        values = st.sampled_from((-1.5, -1.0, 0.1, 0.25, 1.0, 3.0))
        couplings = tuple(
            (i, j, draw(values)) for i, j in draw(st.lists(pairs, max_size=6, unique=True))
        )
    fields = draw(
        st.one_of(
            st.just(()),
            st.lists(st.sampled_from((0.0, -1.0, 0.5, 1.5)), min_size=n, max_size=n),
        )
    )
    return qf.IsingModel(n, couplings, tuple(fields))


@settings(max_examples=120, deadline=None)
@given(kernel_edge_models())
def test_energy_table_is_bitwise_the_loop_table_at_kernel_edges(model):
    qf.energy_table.cache_clear()
    table = qf.energy_table(model)
    assert table.tobytes() == loop_energy_table(model).tobytes()


def test_inversion_symmetry_without_fields():
    rng = np.random.default_rng(42)
    for num_spins in (3, 5, 10):
        model = random_model(rng, num_spins)
        table = qf.energy_table(model)
        mask = (1 << num_spins) - 1
        flipped = np.array([table[b ^ mask] for b in range(1 << num_spins)])
        assert np.array_equal(table, flipped)


def test_components_of_the_coupling_graph():
    # a zero coupling joins its spins; isolated spins are components of
    # their own; components come in order of their lowest spin
    model = qf.IsingModel(7, ((1, 5, 1.0), (3, 4, 0.0), (0, 5, -1.0)))
    assert _components(model) == [(0, 1, 5), (2,), (3, 4), (6,)]
    assert _components(qf.IsingModel(1, ())) == [(0,)]


@pytest.mark.parametrize("seed", range(20))
def test_components_match_a_breadth_first_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [pair for pair in pairs if rng.random() < 1.5 / n]
    model = qf.IsingModel(n, tuple((i, j, 1.0) for i, j in chosen))
    assert _components(model) == search_components(model)


# ------------------------------------------------- ground-state search


def test_enumerate_single_free_spin():
    manifold = qf.enumerate_ground_states(qf.IsingModel(1, ()))
    assert manifold.energy == 0.0
    assert manifold.degeneracy == 2
    assert [c.bits for c in manifold.configs] == [0, 1]


def test_enumerate_two_spin_ferromagnet():
    manifold = qf.enumerate_ground_states(qf.IsingModel(2, ((0, 1, 1.0),)))
    assert manifold.energy == -1.0
    assert [c.bits for c in manifold.configs] == [0, 3]


def test_enumerate_toy_manifold(toy_manifold):
    assert toy_manifold.degeneracy == 6
    assert [c.bits for c in toy_manifold.configs] == [0, 3, 12, 19, 28, 31]


def test_ground_manifold_bits_array(toy_manifold):
    bits = toy_manifold.bits
    assert bits.dtype == np.int64 and bits.tolist() == [0, 3, 12, 19, 28, 31]
    assert not bits.flags.writeable
    # derived from the configs, so it is neither an argument nor compared
    copy = qf.GroundManifold(energy=toy_manifold.energy, configs=toy_manifold.configs)
    assert copy == toy_manifold and hash(copy) == hash(toy_manifold)
    assert "bits" not in repr(copy)


@pytest.mark.parametrize(
    "bits, sizes, message",
    [
        ((3, 0), (2, 2), "ascending"),
        ((0, 0), (2, 2), "ascending"),
        ((0, 3), (2, 3), "same spin count"),
        ((), (), "at least one config"),
    ],
    ids=["reversed", "repeated", "mixed-size", "empty"],
)
def test_ground_manifold_rejects_malformed_input(bits, sizes, message):
    # PT and the gap analysis find configs by binary search on their bits: on
    # a reversed manifold gap_ratio once reported no second-order connections,
    # and an empty one made the fold and the class partition raise IndexError
    configs = tuple(cfg(b, n) for b, n in zip(bits, sizes))
    with pytest.raises(ValueError, match=message):
        qf.GroundManifold(energy=-1.0, configs=configs)


@pytest.mark.parametrize("seed", range(8))
def test_enumerate_matches_independent_argmin(seed):
    rng = np.random.default_rng(100 + seed)
    model = random_model(
        rng, int(rng.integers(2, 7)), with_fields=seed % 3 == 0, integer=seed % 2 == 0
    )
    e0, bits = brute_ground_bits(model)
    manifold = qf.enumerate_ground_states(model)
    assert manifold.energy == pytest.approx(e0, abs=1e-12)
    assert [c.bits for c in manifold.configs] == bits


def test_manifold_inversion_closed_and_even_without_fields():
    rng = np.random.default_rng(7)
    for _ in range(10):
        model = random_model(rng, int(rng.integers(2, 8)))
        manifold = qf.enumerate_ground_states(model)
        assert manifold.degeneracy % 2 == 0
        members = set(manifold.configs)
        assert all(c.inverted() in members for c in manifold.configs)


def test_non_integer_couplings_keep_degeneracy():
    # same frustrated triangle scaled by 0.5: relative tie tolerance must not
    # split the six-fold manifold
    model = qf.IsingModel(3, ((0, 1, 0.5), (0, 2, 0.5), (1, 2, -0.5)))
    assert qf.enumerate_ground_states(model).degeneracy == 6


def test_size_guard():
    with pytest.raises(ModelTooLargeError):
        qf.IsingModel(25, ())


def test_coupling_validation():
    with pytest.raises(ValueError):
        qf.IsingModel(3, ((1, 0, 1.0),))
    with pytest.raises(ValueError):
        qf.IsingModel(3, ((0, 0, 1.0),))
    with pytest.raises(ValueError):
        qf.IsingModel(3, ((0, 3, 1.0),))
    with pytest.raises(ValueError):
        qf.IsingModel(3, ((0, 1, 1.0), (0, 1, -1.0)))
    for bad in ((0.5, 1, 1.0), (0, True, 1.0), (0, 1, float("nan")), (0, 1, "1")):
        with pytest.raises(ValueError):
            qf.IsingModel(3, (bad,))
    with pytest.raises(ValueError):
        qf.IsingModel(True, ())
    with pytest.raises(ValueError):
        qf.IsingModel(2, (), fields=(float("inf"), 0.0))


def test_fields_length_validation():
    with pytest.raises(ValueError):
        qf.IsingModel(3, (), fields=(0.5,))


# ------------------------------------------------------ configurations


def test_spin_values_and_flips():
    c = cfg(0b10011, 5)
    assert c.inverted().bits == 0b01100
    assert c.to_bitstring() == "11001"
    assert c.to_arrows() == "↑↑↓↓↑"


def test_configuration_range_validation():
    with pytest.raises(ValueError):
        qf.SpinConfiguration(4, 2)
    with pytest.raises(ValueError):
        qf.SpinConfiguration(-1, 2)


# ----------------------------------------------------------------- I/O


def test_load_model_round_trip(tmp_path, toy_source):
    path = tmp_path / "model.json"
    import json

    path.write_text(json.dumps(toy_source.to_dict()))
    assert qf.load_model(path) == toy_source


def test_load_model_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"couplings": []}')
    with pytest.raises(ValueError):
        qf.load_model(path)


def test_load_model_bad_coupling_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"num_spins": 2, "couplings": [[0, 1]]}')
    with pytest.raises(ValueError):
        qf.load_model(path)
