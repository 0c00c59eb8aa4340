"""Embedding module: chain application, projection, verification."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qa_fairsample as qf
from qa_fairsample.errors import EmbeddingError

from conftest import (
    brute_energy,
    embedded_instances,
    member_project_state,
    set_verify_embedding,
)


def cfg(bits, n):
    return qf.SpinConfiguration(bits, n)


def coupling_multiset(model):
    return sorted(model.couplings)


def test_identity_embedding_preserves_model(toy_source):
    embedded = qf.apply_embedding(toy_source, qf.identity_embedding(toy_source))
    assert coupling_multiset(embedded.model) == coupling_multiset(toy_source)
    assert embedded.model.num_spins == toy_source.num_spins


@pytest.mark.parametrize("jf", [0.5, 1.0, 1.5])
def test_embedded_ground_energy_offset(toy_source, toy_template, jf):
    # one unbroken length-2 chain contributes -J_F in every ground state
    embedded = qf.apply_embedding(toy_source, toy_template.with_chain_strength(jf))
    source_manifold = qf.enumerate_ground_states(toy_source)
    embedded_manifold = qf.enumerate_ground_states(embedded.model)
    assert embedded_manifold.energy == pytest.approx(source_manifold.energy - jf)


def test_coupling_count(toy_source, toy_template):
    embedded = qf.apply_embedding(toy_source, toy_template)
    extra = sum(len(chain) - 1 for chain in toy_template.chains)
    assert len(embedded.model.couplings) == len(toy_source.couplings) + extra


def test_contracting_chains_recovers_source(toy_source, toy_template):
    embedded = qf.apply_embedding(toy_source, toy_template)
    chain_pairs = {
        (min(p, q), max(p, q))
        for chain in toy_template.chains
        for p, q in zip(chain, chain[1:])
    }
    inverse = {
        (min(p, q), max(p, q)): (i, j)
        for (i, j), (p, q) in toy_template.coupling_assignment
    }
    recovered = sorted(
        (*inverse[(i, j)], J)
        for i, j, J in embedded.model.couplings
        if (i, j) not in chain_pairs
    )
    assert recovered == coupling_multiset(toy_source)


def test_lift_project_round_trip(toy_template):
    for bits in range(32):
        logical = cfg(bits, 5)
        assert qf.project_state(qf.lift_state(logical, toy_template), toy_template) == logical


def test_project_intact_and_broken_chain(toy_template):
    # all six physical spins up -> all five logical spins up
    assert qf.project_state(cfg(0b111111, 6), toy_template) == cfg(0b11111, 5)
    # last chain member flipped -> broken
    assert qf.project_state(cfg(0b011111, 6), toy_template) is None


@pytest.mark.parametrize("jf", [0.5, 1.0, 1.5])
def test_projection_bijective_on_manifold(toy_source, toy_template, jf):
    embedding = toy_template.with_chain_strength(jf)
    embedded = qf.apply_embedding(toy_source, embedding)
    source_manifold = qf.enumerate_ground_states(toy_source)
    embedded_manifold = qf.enumerate_ground_states(embedded.model)
    projected = [qf.project_state(c, embedding) for c in embedded_manifold.configs]
    assert None not in projected
    assert len(set(projected)) == len(projected)
    assert set(projected) == set(source_manifold.configs)


def test_energy_identity_under_lift(toy_source, toy_template):
    rng = np.random.default_rng(3)
    embedding = toy_template.with_chain_strength(0.7)
    embedded = qf.apply_embedding(toy_source, embedding)
    offset = embedding.chain_strength * sum(len(c) - 1 for c in embedding.chains)
    for bits in rng.integers(0, 32, size=12):
        logical = cfg(int(bits), 5)
        lifted = qf.lift_state(logical, embedding)
        assert brute_energy(embedded.model, lifted.bits) == pytest.approx(
            brute_energy(toy_source, logical.bits) - offset
        )


def test_verify_identity_embedding(toy_source):
    embedded = qf.apply_embedding(toy_source, qf.identity_embedding(toy_source))
    report = qf.verify_embedding(embedded)
    assert report.chains_unbroken and report.bijective
    assert report.source_energy == report.embedded_energy


@pytest.mark.parametrize("jf", [0.5, 1.0, 1.5])
def test_verify_toy_embedding(toy_source, toy_template, jf):
    embedded = qf.apply_embedding(toy_source, toy_template.with_chain_strength(jf))
    report = qf.verify_embedding(embedded)
    assert report.chains_unbroken and report.bijective
    assert report.source_degeneracy == report.embedded_degeneracy == 6


def test_verify_weak_chain_reports(toy_source, toy_template):
    # no asserted outcome at J_F = 0.01; the report just records what holds
    embedded = qf.apply_embedding(toy_source, toy_template.with_chain_strength(0.01))
    report = qf.verify_embedding(embedded)
    assert isinstance(report.bijective, bool)
    assert isinstance(report.chains_unbroken, bool)


@settings(max_examples=100, deadline=None)
@given(embedded_instances(), st.sampled_from((0.05, 0.5, 1.0, 1.5)))
def test_projection_and_verification_match_oracles(instance, jf):
    # small J_F breaks chains in the ground states of many instances
    model, template = instance
    embedding = template.with_chain_strength(jf)
    for bits in range(1 << embedding.num_physical):
        config = cfg(bits, embedding.num_physical)
        assert qf.project_state(config, embedding) == member_project_state(
            config, embedding
        )
    embedded = qf.apply_embedding(model, embedding)
    assert qf.verify_embedding(embedded) == set_verify_embedding(embedded)


def test_verification_compares_manifolds_in_bits_order():
    # an antiferromagnetic pair whose spin 0 is chained to physical spins 1
    # and 2: its ground states, logical bits 1 and 2, lift to physical 6 and
    # 1, so the lifts must be sorted to meet the ascending embedded manifold
    source = qf.IsingModel(2, ((0, 1, -1.0),))
    embedding = qf.Embedding(2, ((1, 2), (0,)), 1.0, (((0, 1), (1, 0)),))
    embedded = qf.apply_embedding(source, embedding)
    ground = qf.enumerate_ground_states(embedded.model)
    assert [c.bits for c in ground.configs] == [1, 6]
    report = qf.verify_embedding(embedded)
    assert report.chains_unbroken and report.bijective
    # the same physical model checked against the ferromagnetic pair: every
    # chain is intact, but the projections are the wrong ground states
    wrong = qf.EmbeddedModel(
        model=embedded.model,
        embedding=embedding,
        source=qf.IsingModel(2, ((0, 1, 1.0),)),
    )
    report = qf.verify_embedding(wrong)
    assert report.chains_unbroken and not report.bijective
    assert report == set_verify_embedding(wrong)


@settings(max_examples=200, deadline=None)
@given(embedded_instances(), st.sampled_from((0.05, 0.5, 1.0, 1.5)))
def test_intact_embedded_ground_states_are_the_lifts(instance, jf):
    # On an intact config the physical energy is the source energy of its
    # projection less J_F per chain bond, a constant. So when every embedded
    # ground state is intact, they are exactly the lifts of the source's: an
    # intact but wrong manifold needs a mismatched source, as built above.
    model, template = instance
    embedded = qf.apply_embedding(model, template.with_chain_strength(jf))
    report = qf.verify_embedding(embedded)
    assert report.bijective == report.chains_unbroken


def test_fields_attach_to_first_chain_member(toy_template):
    source = qf.IsingModel(
        5,
        ((0, 1, 1.0), (1, 2, -1.0), (2, 3, 1.0), (0, 3, -1.0),
         (0, 4, 1.0), (1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0)),
        fields=(0.0, 0.0, 0.0, 0.0, 0.25),
    )
    embedded = qf.apply_embedding(source, toy_template)
    assert embedded.model.fields[4] == 0.25
    assert embedded.model.fields[5] == 0.0


@settings(max_examples=100, deadline=None)
@given(embedded_instances(), st.sampled_from((0.05, 1.0, 2.5, 1e300)))
def test_applied_model_is_a_fully_checked_model(instance, jf):
    # apply_embedding skips the per-coupling checks; the model it builds
    # must still be the one the checked constructor gives, down to types
    source, template = instance
    model = qf.apply_embedding(source, template.with_chain_strength(jf)).model
    checked = qf.IsingModel(model.num_spins, model.couplings, model.fields)
    assert model == checked and hash(model) == hash(checked)
    assert repr(model) == repr(checked)
    for got, want in zip(model.couplings, checked.couplings):
        assert list(map(type, got)) == list(map(type, want)) == [int, int, float]
    assert list(map(type, model.fields)) == [float] * model.num_spins
    qf.energy_table.cache_clear()
    table = qf.energy_table(model).tobytes()
    qf.energy_table.cache_clear()
    assert qf.energy_table(checked).tobytes() == table


def test_apply_keeps_the_size_and_overflow_refusals():
    # two bonds of a 3-member chain at 1e308 sum to inf
    source = qf.IsingModel(2, ((0, 1, 1.0),))
    embedding = qf.Embedding(2, ((0, 1, 2), (3,)), 1e308, (((0, 1), (2, 3)),))
    with pytest.raises(ValueError, match="overflows to inf"):
        qf.apply_embedding(source, embedding)
    # two bonds at half of it sum to a finite 1e308
    qf.apply_embedding(source, embedding.with_chain_strength(1e308 / 2))
    wide = qf.Embedding(2, (tuple(range(20)), tuple(range(20, 26))), 1.0, ())
    with pytest.raises(qf.ModelTooLargeError, match="26 spins"):
        qf.apply_embedding(qf.IsingModel(2, ()), wide)


def test_apply_rejects_size_mismatch(toy_template):
    small = qf.IsingModel(2, ((0, 1, 1.0),))
    with pytest.raises(EmbeddingError):
        qf.apply_embedding(small, toy_template)


def test_apply_rejects_uncovered_coupling(toy_source, toy_template):
    missing = tuple(
        pair for pair in toy_template.coupling_assignment if pair[0] != (0, 1)
    )
    embedding = qf.Embedding(
        num_logical=5,
        chains=toy_template.chains,
        chain_strength=1.0,
        coupling_assignment=missing,
    )
    with pytest.raises(EmbeddingError):
        qf.apply_embedding(toy_source, embedding)


def test_embedding_structural_validation(toy_template):
    with pytest.raises(EmbeddingError):
        toy_template.with_chain_strength(-1.0)
    with pytest.raises(EmbeddingError):
        toy_template.with_chain_strength(0.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(EmbeddingError):
            toy_template.with_chain_strength(value)
    with pytest.raises(EmbeddingError):
        qf.Embedding(2, ((0,), (2,)), 1.0, ())  # gap in physical indices
    with pytest.raises(EmbeddingError):
        qf.Embedding(2, ((0, 1), (1, 2)), 1.0, ())  # overlapping chains
    with pytest.raises(EmbeddingError):
        qf.Embedding(2, ((0,), (1,), (2,)), 1.0, ())  # wrong chain count
    with pytest.raises(EmbeddingError):
        # physical spin not in the claimed chain
        qf.Embedding(2, ((0,), (1, 2)), 1.0, (((0, 1), (2, 0)),))
    with pytest.raises(EmbeddingError):
        qf.Embedding(
            2, ((0,), (1,)), 1.0, (((0, 1), (0, 1)), ((0, 1), (0, 1)))
        )  # duplicate assignment


@pytest.mark.parametrize("value", [True, "0.5", None, 1 + 0j, -0.5, float("nan")])
def test_chain_strength_must_be_a_positive_real_number(toy_template, value):
    with pytest.raises(EmbeddingError, match="chain strength must be positive and finite"):
        toy_template.with_chain_strength(value)
    with pytest.raises(EmbeddingError, match="chain strength must be positive and finite"):
        qf.Embedding(
            toy_template.num_logical,
            toy_template.chains,
            value,
            toy_template.coupling_assignment,
        )


@pytest.mark.parametrize("value", [0.3, 2, np.float64(1.5), np.int64(3), 1e-300])
def test_with_chain_strength_equals_a_fresh_embedding(toy_template, value):
    changed = toy_template.with_chain_strength(value)
    fresh = qf.Embedding(
        toy_template.num_logical,
        toy_template.chains,
        value,
        toy_template.coupling_assignment,
    )
    assert changed == fresh
    assert hash(changed) == hash(fresh)
    assert type(changed.chain_strength) is float
    assert (changed.num_physical, changed.chain_masks) == (
        fresh.num_physical,
        fresh.chain_masks,
    )
    assert toy_template.chain_strength == 1.0


def test_chain_masks_hold_each_chain(toy_template):
    # logical spin 4 is the chain (4, 5)
    assert toy_template.num_physical == 6
    assert toy_template.chain_masks == (1, 2, 4, 8, 48)


@pytest.mark.parametrize(
    "args",
    [
        (2, ((0,), (1.7,)), 1.0, ()),  # fractional chain member
        (2, ((0,), (True,)), 1.0, ()),  # bool chain member
        (True, ((0,),), 1.0, ()),  # bool num_logical
        (2.0, ((0,), (1,)), 1.0, ()),  # float num_logical
        (2, ((0,), (1,)), 1.0, (((0, 1.0), (0, 1)),)),  # float logical index
        (2, ((0,), (1,)), 1.0, (((0, 1), (False, 1)),)),  # bool physical index
    ],
)
def test_embedding_rejects_non_integer_indices(args):
    with pytest.raises(EmbeddingError, match="must be an integer"):
        qf.Embedding(*args)


def test_embedding_keeps_integer_indices_as_int():
    embedding = qf.Embedding(np.int64(2), ((np.int64(1),), (0,)), 1, ())
    assert type(embedding.num_logical) is int
    assert type(embedding.chains[0][0]) is int


def test_load_embedding_placeholder(tmp_path):
    from qa_fairsample.data import toy_embedding_path

    with pytest.raises(ValueError):
        qf.load_embedding(toy_embedding_path())  # placeholder needs a value
    embedding = qf.load_embedding(toy_embedding_path(), chain_strength=1.25)
    assert embedding.chain_strength == 1.25

    data = json.loads(toy_embedding_path().read_text())
    data["chain_strength"] = 0.75
    concrete = tmp_path / "emb.json"
    concrete.write_text(json.dumps(data))
    assert qf.load_embedding(concrete).chain_strength == 0.75
    # an explicit argument overrides the file value
    assert qf.load_embedding(concrete, chain_strength=2.0).chain_strength == 2.0


def test_load_embedding_rejects_negative_strength(tmp_path):
    from qa_fairsample.data import toy_embedding_path

    data = json.loads(toy_embedding_path().read_text())
    data["chain_strength"] = -1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(EmbeddingError):
        qf.load_embedding(bad)
