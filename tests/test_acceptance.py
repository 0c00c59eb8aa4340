"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line on success; a pytest failure is the FAIL line.
The expensive tau = 1000 integrations come from session fixtures so the whole
suite stays within a couple of minutes.
"""

import itertools

import numpy as np
import pytest

import qa_fairsample as qf
import qa_fairsample.cli as cli

from conftest import STANDARD_JFS, FIXTURE_MODELS, dense_driver, dense_target


def cfg(bits, n):
    return qf.SpinConfiguration(bits, n)


@pytest.fixture
def announce(capsys):
    """Print a criterion verdict on the live terminal, bypassing capture."""

    def _announce(message):
        with capsys.disabled():
            print("\n" + message)

    return _announce


def toy_partition():
    return qf.FairnessPartition(s_set=(cfg(0, 5),), c_set=(cfg(3, 5), cfg(12, 5)))


def folded_logical(result, embedded, source_manifold):
    return qf.project_and_fold(
        result.final_probabilities, embedded.embedding, source_manifold
    )


def test_criterion_1_second_order_closed_form(embedded_models, announce):
    """Numerically built -P2 W P2 matches the closed form up to permutation."""
    for jf in STANDARD_JFS:
        setup = qf.PerturbationSetup.from_model(embedded_models[jf].model)
        built = -qf.second_order_matrix(setup)
        a = (2.0 * jf + 5.0) / (jf + 2.0)
        b = (4.0 * jf + 3.0) / (3.0 * jf)
        ring = [1.0, 1.0 / jf, 1.0, 1.0, 1.0 / jf, 1.0]
        reference = np.zeros((6, 6))
        for i, diag in enumerate([a, b, b, a, b, b]):
            reference[i, i] = diag
            j = (i + 1) % 6
            reference[i, j] = reference[j, i] = ring[i]
        matched = None
        for perm in itertools.permutations(range(6)):
            p = np.asarray(perm)
            if np.abs(built[np.ix_(p, p)] - reference).max() <= 1e-9:
                matched = perm
                break
        assert matched is not None, f"no permutation matches at jf={jf}"
    announce("PASS criterion 1: second-order matrix matches the closed form "
          "at J_F in {0.5, 1.0, 1.5} within 1e-9")


def test_criterion_2_fair_point(embedded_models, toy_manifold, announce):
    """PT folded probabilities at J_F = 1 are exactly uniform."""
    em = embedded_models[1.0]
    result = qf.perturbative_probabilities(qf.PerturbationSetup.from_model(em.model))
    folded, _ = qf.project_and_fold(result.probabilities, em.embedding, toy_manifold)
    assert len(folded) == 3
    for p in folded.values():
        assert abs(p - 1.0 / 3.0) <= 1e-10
    announce("PASS criterion 2: PT folded probabilities at J_F = 1 are "
          "(1/3, 1/3, 1/3) within 1e-10")


def test_criterion_3_pt_matches_dynamics(
    embedded_models, embedded_runs_tau1000, toy_manifold, announce
):
    """Folded probabilities from tau = 1000 dynamics match PT within 0.01."""
    worst = 0.0
    for jf in STANDARD_JFS:
        em = embedded_models[jf]
        se_folded, _ = folded_logical(embedded_runs_tau1000[jf], em, toy_manifold)
        pt = qf.perturbative_probabilities(qf.PerturbationSetup.from_model(em.model))
        pt_folded, _ = qf.project_and_fold(
            pt.probabilities, em.embedding, toy_manifold
        )
        for rep, p in pt_folded.items():
            diff = abs(se_folded[rep] - p)
            worst = max(worst, diff)
            assert diff <= 0.01, f"jf={jf}, class {rep}: |PT - SE| = {diff}"
    announce(f"PASS criterion 3: PT and tau=1000 dynamics agree within 0.01 "
          f"per folded probability (worst |diff| = {worst:.2e})")


def test_criterion_4_embedding_restores_ratio(
    toy_source, source_run_tau1000, embedded_models, embedded_runs_tau1000,
    toy_manifold, announce,
):
    """Original model suppresses S at tau = 1000; embedded models do not."""
    partition = toy_partition()
    folded, _ = qf.project_and_fold(
        source_run_tau1000.final_probabilities, qf.identity_embedding(toy_source),
        toy_manifold,
    )
    original_ratio = qf.fairness_ratio(folded, partition)
    assert original_ratio < 0.05
    embedded_ratios = {}
    for jf in STANDARD_JFS:
        se_folded, _ = folded_logical(
            embedded_runs_tau1000[jf], embedded_models[jf], toy_manifold
        )
        embedded_ratios[jf] = qf.fairness_ratio(se_folded, partition)
        assert embedded_ratios[jf] > 0.05
    announce(f"PASS criterion 4: original ratio {original_ratio:.4f} < 0.05 < "
          f"embedded ratios " +
          ", ".join(f"{v:.3f} (jf={k:g})" for k, v in embedded_ratios.items()))


def test_criterion_5_gap_ratio_relation(toy_source, toy_template, announce):
    """P_S decreases with the gap ratio, crossing 1/3 exactly at ratio 1."""
    grid = [k / 20.0 for k in range(1, 41)]
    records = qf.sweep_chain_strength(toy_source, toy_template, grid, methods=("PT",))
    s_class = cfg(0, 5)
    points = [(r.gap_ratio, r.folded[s_class]) for r in records]
    by_ratio = sorted(points)
    for (r1, p1), (r2, p2) in zip(by_ratio, by_ratio[1:]):
        assert p2 <= p1 + 1e-12, f"P_S increased from ratio {r1} to {r2}"
    for ratio, p_s in points:
        if ratio > 1.0 + 1e-12:
            assert p_s < 1.0 / 3.0
    at_unit = [p for ratio, p in points if ratio == 1.0]
    assert at_unit, "grid must contain the fair point J_F = 1"
    assert abs(at_unit[0] - 1.0 / 3.0) <= 1e-6
    announce("PASS criterion 5: over 40 grid points P_S is monotone "
          "non-increasing in the gap ratio, P_S < 1/3 for ratio > 1, and "
          f"P_S = {at_unit[0]:.9f} at ratio 1")


def test_criterion_6_integrator_properties(
    toy_source, embedded_models, source_run_tau1000, embedded_runs_tau1000, announce
):
    """Norm drift, step-doubling stability, and inversion symmetry."""
    runs = [source_run_tau1000] + [embedded_runs_tau1000[jf] for jf in STANDARD_JFS]
    for extra_tau in (1.0, 10.0):
        runs.append(qf.evolve(toy_source, qf.AnnealSchedule.for_tau(extra_tau)))
    worst_drift = max(r.norm_drift for r in runs)
    assert worst_drift <= 1e-6

    # inverting every spin maps bits b to 2^N - 1 - b, the reversed index
    worst_asym = max(
        np.abs(r.final_probabilities.vector - r.final_probabilities.vector[::-1]).max()
        for r in runs
    )
    assert worst_asym <= 1e-8

    # step doubling: each base run against a separate run at twice its steps
    doubling_diffs = []
    embedded = embedded_models[1.0].model
    mid = qf.evolve(embedded, qf.AnnealSchedule.for_tau(200.0))
    for model, base in ((toy_source, source_run_tau1000), (embedded, mid)):
        doubled = qf.evolve(model, qf.AnnealSchedule(base.tau, 2 * base.steps))
        doubling_diffs.append(
            np.abs(
                base.final_probabilities.vector - doubled.final_probabilities.vector
            ).max()
        )
    assert max(doubling_diffs) <= 1e-6
    announce(f"PASS criterion 6: drift <= {worst_drift:.2e}, step-doubling "
          f"moves probabilities <= {max(doubling_diffs):.2e}, inversion "
          f"asymmetry <= {worst_asym:.2e}")


def test_criterion_7_small_instance_oracle(announce):
    """Exact diagonalization at lambda = 1e-3 confirms PT on all N <= 4 fixtures."""
    lam = 1e-3
    worst = 0.0
    for name, model in sorted(FIXTURE_MODELS.items()):
        h = dense_target(model) + lam * dense_driver(model.num_spins)
        _, vecs = np.linalg.eigh(h)
        overlaps = np.abs(vecs[:, 0]) ** 2
        setup = qf.PerturbationSetup.from_model(model)
        pt = qf.perturbative_probabilities(setup)
        for b in setup.manifold.bits:
            diff = abs(overlaps[b] - pt.probabilities.vector[b])
            worst = max(worst, diff)
            assert diff <= 5e-3, f"{name}: |overlap^2 - PT| = {diff}"
    announce(f"PASS criterion 7: exact diagonalization matches PT within 5e-3 "
          f"on all small fixtures (worst |diff| = {worst:.2e})")


def test_criterion_8_validation_gate(capsys):
    """The shipped data files pass every validation clause through the CLI."""
    code = cli.main(["validate"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    for jf in ("0.5", "1", "1.5"):
        assert f"PASS  embedded_first_order_zero[jf={jf}]" in out
    assert "PASS  source_first_order_nonzero" in out
    with capsys.disabled():
        print("\nPASS criterion 8: cmd_validate passes all clauses on the "
              "shipped data files")


def test_adiabatic_ground_support(toy_source, source_run_tau1000,
                                  embedded_runs_tau1000, embedded_models,
                                  toy_manifold):
    """Supporting invariant: at tau = 1000 the folded ground weight is >= 0.99."""
    folded, excited = qf.project_and_fold(
        source_run_tau1000.final_probabilities, qf.identity_embedding(toy_source),
        toy_manifold,
    )
    assert sum(folded.values()) >= 0.99
    for jf in STANDARD_JFS:
        folded, excited = folded_logical(
            embedded_runs_tau1000[jf], embedded_models[jf], toy_manifold
        )
        assert sum(folded.values()) >= 0.99
        assert excited <= 0.01
