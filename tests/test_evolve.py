"""Integrator module: the matrix-free Hamiltonian kernel and CFM4 evolution."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qa_fairsample as qf
from qa_fairsample.errors import IntegrationAccuracyError, ModelTooLargeError

from conftest import (
    dense_anneal_probabilities,
    dense_annealing_hamiltonian,
    full_space_evolve_many,
    kernel_apply,
    reference_exp_step,
)


def cfg(bits, n):
    return qf.SpinConfiguration(bits, n)


# -------------------------------------------------------- initial state


def test_initial_state_single_spin():
    psi = qf.initial_state(1)
    assert np.allclose(psi, 0.7071067811865476)
    assert psi.dtype == np.complex128


def test_initial_state_amplitudes():
    assert np.all(qf.initial_state(2) == 0.5)
    assert np.all(qf.initial_state(6) == 0.125)


@pytest.mark.parametrize("num_spins", [0, -1, True, 2.0, "3"])
def test_initial_state_rejects_a_bad_spin_count(num_spins):
    with pytest.raises(ValueError, match="num_spins"):
        qf.initial_state(num_spins)


def test_initial_state_guard():
    with pytest.raises(ModelTooLargeError):
        qf.initial_state(25)


def test_integration_over_the_cost_budget_is_refused(toy_source):
    # 10^10 steps, each at least 2 amplitude-steps, so over the budget on
    # their own: refused before any allocation in proportion to the count
    schedule = qf.AnnealSchedule(tau=20.0, steps=10**10)
    with pytest.raises(ModelTooLargeError, match="more than 1000000000 steps"):
        qf.evolve(toy_source, schedule)
    # the default policy refuses a step count no integration could afford,
    # before 2 * tau overflows it
    for tau in (5.1e8, 1e308):
        with pytest.raises(
            ModelTooLargeError, match="default policy.*over the budget of 2e\\+09"
        ):
            qf.AnnealSchedule.for_tau(tau)
    assert qf.default_steps(5e8) == 10**9


def _forbid_integration(monkeypatch):
    def integrate(*args):
        raise AssertionError("a batch was integrated before the cost guard refused")

    monkeypatch.setattr(importlib.import_module("qa_fairsample.evolve"),
                        "_cfm4_weights", integrate)


def test_mixed_sizes_over_the_budget_are_refused_before_integrating(
    toy_source, monkeypatch
):
    # a 22-spin zero-field chain alone needs 2 x 1 x 2^21 x 500 = 2.1e9
    # amplitude-steps at tau = 100; the 5-spin source must not run first
    chain = qf.IsingModel(22, tuple((i, i + 1, -1.0) for i in range(21)))
    schedule = qf.AnnealSchedule.for_tau(100.0)
    _forbid_integration(monkeypatch)
    for models in ((toy_source, chain), (chain, toy_source)):
        with pytest.raises(ModelTooLargeError, match="2.1e\\+09 amplitude-steps"):
            qf.evolve_many(models, schedule, enforce_drift=False)


def test_batches_under_the_budget_alone_are_refused_together(
    toy_source, embedded_models, monkeypatch
):
    # 2 x 16 x 25e6 = 8e8 and 2 x 32 x 25e6 = 1.6e9 amplitude-steps pass
    # alone; together they need 2.4e9, over the 2e9 budget
    models = (toy_source, embedded_models[1.0].model)
    schedule = qf.AnnealSchedule(tau=20.0, steps=25_000_000)
    _forbid_integration(monkeypatch)
    with pytest.raises(ModelTooLargeError) as excinfo:
        qf.evolve_many(models, schedule, enforce_drift=False)
    assert str(excinfo.value) == (
        "integration needs 2.4e+09 amplitude-steps "
        "(2 x 1 rows x 16 amplitudes x 25000000 steps + "
        "2 x 1 rows x 32 amplitudes x 25000000 steps), "
        "over the budget of 2e+09"
    )


# ------------------------------------------------ Hamiltonian application


def test_apply_at_s_one_is_diagonal(toy_source):
    rng = np.random.default_rng(0)
    psi = rng.normal(size=32) + 1j * rng.normal(size=32)
    out = kernel_apply(toy_source, 1.0, psi)
    assert np.allclose(out, qf.energy_table(toy_source) * psi)


def test_apply_at_s_zero_uniform_is_eigenstate(toy_source):
    psi = qf.initial_state(5)
    out = kernel_apply(toy_source, 0.0, psi)
    assert np.allclose(out, -5.0 * psi)


def test_apply_half_weight_on_basis_state():
    # ferromagnetic pair, state |up,up>: diagonal gives 0.5 * (-1), the
    # driver scatters -0.5 onto each single-flip neighbor
    model = qf.IsingModel(2, ((0, 1, 1.0),))
    psi = np.zeros(4, dtype=np.complex128)
    psi[0b11] = 1.0
    out = kernel_apply(model, 0.5, psi)
    assert out[0b11] == pytest.approx(-0.5)
    assert out[0b01] == pytest.approx(-0.5)
    assert out[0b10] == pytest.approx(-0.5)
    assert out[0b00] == 0.0


def _random_model(rng):
    n = int(rng.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    couplings = tuple(
        (i, j, float(rng.choice([-1.0, 1.0]))) for i, j in pairs if rng.random() < 0.8
    )
    fields = tuple(float(h) for h in rng.choice([0.0, 0.5, -0.5], size=n))
    return qf.IsingModel(n, couplings, fields)


@pytest.mark.parametrize("seed", range(4))
def test_apply_matches_dense_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    model = _random_model(rng)
    n = model.num_spins
    s = float(rng.uniform(0.0, 1.0))
    dim = 1 << n
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    dense = dense_annealing_hamiltonian(model, s)
    assert np.allclose(kernel_apply(model, s, psi), dense @ psi, atol=1e-12)


def _sequential_flip_sum(psi, num_spins, half):
    # reference flip sum: each spin's flipped amplitudes, added in spin order;
    # on the half space spin N-1's flip is the reversed half, added last
    amplitudes = np.arange(psi.shape[1])
    flipped = [amplitudes ^ (1 << i) for i in range(num_spins - half)]
    if half:
        flipped.append(amplitudes[::-1])
    acc = psi[:, flipped[0]]
    for index in flipped[1:]:
        acc = acc + psi[:, index]
    return acc


@pytest.mark.parametrize("n", range(1, 11))
def test_apply_matches_gather_kernel_bitwise(monkeypatch, n):
    # each shape runs through both forms of the flip sum (a gather limit of
    # 0 forces the views, one of 2^30 the gather), on the full and the half
    # space and at row widths 1-9, with signed zeros and per-row diag and
    # drive; results are compared by their bytes
    module = importlib.import_module("qa_fairsample.evolve")
    rng = np.random.default_rng(300 + n)
    for half in (False, True):
        dim = 1 << (n - 1 if half else n)
        for rows in range(1, 10):
            psi = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
            psi.real[rng.random(psi.shape) < 0.3] = -0.0
            psi.imag[rng.random(psi.shape) < 0.3] = -0.0
            diag = rng.normal(size=(rows, dim))
            drive = rng.normal(size=(rows, 1))
            expected = psi * diag - _sequential_flip_sum(psi, n, half) * drive
            for limit in (0, 1 << 30):
                monkeypatch.setattr(module, "_GATHER_MAX", limit)
                kernel = module._Kernel.allocate(rows, n, half)
                kernel.state[:] = psi
                kernel.apply(diag, drive)
                assert kernel.state.tobytes() == expected.tobytes(), (half, rows, limit)


def _signed_zero_rows(rng, rows, dim):
    psi = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    psi.real[rng.random(psi.shape) < 0.3] = -0.0
    psi.imag[rng.random(psi.shape) < 0.3] = -0.0
    return psi


@pytest.mark.parametrize("n", range(11, 16))
def test_wide_view_kernel_matches_the_reference_bitwise(monkeypatch, n):
    # the view form takes its short flips (runs of 1, 2 and 4 amplitudes)
    # through an index and adds the long ones as views, on the full and the
    # half space at 1-3 rows, with signed zeros; a gather limit of 0 keeps
    # the narrow shapes on the views too
    module = importlib.import_module("qa_fairsample.evolve")
    monkeypatch.setattr(module, "_GATHER_MAX", 0)
    rng = np.random.default_rng(400 + n)
    for half in (False, True):
        dim = 1 << (n - 1 if half else n)
        for rows in (1, 2, 3):
            psi = _signed_zero_rows(rng, rows, dim)
            diag = rng.normal(size=(rows, dim))
            drive = rng.normal(size=(rows, 1))
            expected = psi * diag - _sequential_flip_sum(psi, n, half) * drive
            kernel = module._Kernel.allocate(rows, n, half)
            assert len(kernel._taken) == 3
            assert len(kernel._views) == n - 3
            kernel.state[:] = psi
            kernel.apply(diag, drive)
            assert kernel.state.tobytes() == expected.tobytes(), (half, rows)


def test_spans_share_one_scratch_and_index_without_leaking():
    # N = 11 at 3 rows: the kernel and its 2-row spans take their short flips
    # into one scratch through one index per flip, and its 1-row spans
    # gather; spans applied in alternation to fresh rows each match the
    # reference, so nothing one span leaves in the scratch reaches another
    module = importlib.import_module("qa_fairsample.evolve")
    n, rows = 11, 3
    dim = 1 << n
    kernel = module._Kernel.allocate(rows, n)
    shared = kernel._shared
    assert shared.scratch.shape == kernel.state.shape
    assert len(shared.taken) == 3
    rng = np.random.default_rng(41)
    spans = [(0, 3), (1, 3), (1, 2), (0, 2), (2, 3), (0, 1), (1, 3), (0, 3)]
    for lo, hi in spans * 2:
        span = kernel.rows(lo, hi)
        if span._views is not None:
            assert np.shares_memory(span._scratch, shared.scratch)
            assert all(a is b for a, b in zip(span._taken, shared.taken))
        psi = _signed_zero_rows(rng, hi - lo, dim)
        diag = rng.normal(size=(hi - lo, dim))
        drive = rng.normal(size=(hi - lo, 1))
        expected = psi * diag - _sequential_flip_sum(psi, n, False) * drive
        span.state[:] = psi
        span.apply(diag, drive)
        assert span.state.tobytes() == expected.tobytes(), (lo, hi)
    forms = {hi - lo: kernel.rows(lo, hi)._views is None for lo, hi in spans}
    assert forms == {3: False, 2: False, 1: True}


@pytest.mark.parametrize("n", range(1, 11))
def test_taylor_loop_matches_the_reference_bitwise(monkeypatch, n):
    # random rows on the full and the half space, through both forms of the
    # flip sum, with 1-3 substeps and their own stopping terms per row; one
    # start state is real, so every part of its first term's real half is
    # zero and the stopping pre-test fires on a term no row stops at
    module = importlib.import_module("qa_fairsample.evolve")
    widths = []
    apply = module._Kernel.apply

    def recording_apply(kernel, diag, drive):
        widths.append(kernel.state.shape[0])
        return apply(kernel, diag, drive)

    monkeypatch.setattr(module._Kernel, "apply", recording_apply)
    rng = np.random.default_rng(900 + n)
    for half in (False, True):
        dim = 1 << (n - 1 if half else n)
        for rows, real in ((1, False), (3, True), (8, False)):
            scale = rng.uniform(0.5, 4.0, size=(rows, 1))
            tables = rng.normal(size=(rows, dim)) * scale
            emax = np.abs(tables).max(axis=1)
            s = rng.uniform(0.0, 1.0, size=rows)
            # 1, 2 and 3 substeps in turn, each row at its own length
            bound = (1.0 - s) * n + s * emax
            lengths = np.resize([0.7, 1.6, 2.6], rows) * rng.uniform(0.9, 1.1, size=rows)
            h = lengths * module.THETA / bound
            psi = rng.normal(size=(rows, dim)).astype(np.complex128)
            if not real:
                psi.imag = rng.normal(size=(rows, dim))
            for limit in (0, 1 << 30):
                monkeypatch.setattr(module, "_GATHER_MAX", limit)
                results = []
                for exp_step in (reference_exp_step, module._exp_step):
                    widths.clear()
                    out = psi.copy()
                    exp_step(module._Kernel.allocate(rows, n, half), out, tables, s, h, emax)
                    results.append(out.tobytes())
                assert results[0] == results[1], (half, rows, real, limit)
                # rows leave the span at their own substep and term
                assert rows < 8 or min(widths) < rows


def test_apply_rejects_dimension_mismatch(toy_source):
    with pytest.raises(ValueError):
        kernel_apply(toy_source, 0.5, np.zeros(16, dtype=np.complex128))


# -------------------------------------------------------------- schedule


def test_schedule_validation():
    with pytest.raises(ValueError):
        qf.AnnealSchedule(tau=-1.0, steps=10)
    with pytest.raises(ValueError):
        qf.AnnealSchedule(tau=1.0, steps=0)


@pytest.mark.parametrize(
    "tau, steps",
    [
        (float("nan"), 10),
        (float("inf"), 10),
        (True, 10),
        (1.0, True),
        (1.0, 10.0),
        (1.0, 2.5),
    ],
)
def test_schedule_rejects_nonfinite_tau_and_noninteger_steps(tau, steps):
    with pytest.raises(ValueError):
        qf.AnnealSchedule(tau=tau, steps=steps)


@pytest.mark.parametrize("tau", [float("inf"), float("nan")])
def test_step_policy_rejects_nonfinite_tau(tau):
    with pytest.raises(ValueError):
        qf.AnnealSchedule.for_tau(tau)
    with pytest.raises(ValueError):
        qf.default_steps(tau)


def test_default_step_policy(toy_source):
    # dt = 0.2 up to tau = 400, 2000 steps up to tau = 1000, dt = 0.5 beyond
    for tau, steps in ((1.0, 50), (100.0, 500), (400.0, 2000), (1000.0, 2000),
                       (3000.0, 6000)):
        assert qf.default_steps(tau) == steps
    assert qf.AnnealSchedule.for_tau(0.0).steps == 50
    assert qf.AnnealSchedule.for_tau(10.0, steps=50).steps == 50
    # the policy resolves the toy anneal; a tenth of its steps trips the estimate
    resolved = qf.evolve(toy_source, qf.AnnealSchedule.for_tau(100.0))
    assert resolved.error_estimate <= 1e-6
    with pytest.raises(IntegrationAccuracyError) as excinfo:
        qf.evolve(toy_source, qf.AnnealSchedule(tau=100.0, steps=resolved.steps // 10))
    assert excinfo.value.result.error_estimate > 1e-6


def test_default_policy_resolves_past_tau_1000(toy_source):
    # the dt = 0.5 branch; a flat 2000 steps would miss the budget here
    result = qf.evolve(toy_source, qf.AnnealSchedule.for_tau(3000.0))
    assert result.steps == 6000
    assert result.norm_drift <= 1e-6 and result.error_estimate <= 1e-6


# -------------------------------------------------------------- evolution


def test_two_spin_adiabatic_limit():
    model = qf.IsingModel(2, ((0, 1, 1.0),))
    result = qf.evolve(model, qf.AnnealSchedule.for_tau(100.0))
    p_up = result.final_probabilities[cfg(0b11, 2)]
    p_down = result.final_probabilities[cfg(0b00, 2)]
    assert abs(p_up - p_down) < 1e-8
    assert p_up + p_down >= 0.99
    assert result.norm_drift <= 1e-6


def test_tau_zero_keeps_uniform_distribution(toy_source):
    result = qf.evolve(toy_source, qf.AnnealSchedule(tau=0.0, steps=1))
    for p in result.final_probabilities.values():
        assert p == pytest.approx(1.0 / 32.0, abs=1e-12)
    assert result.norm_drift <= 1e-12


def test_single_spin_field_adiabatic():
    model = qf.IsingModel(1, (), fields=(1.0,))
    result = qf.evolve(model, qf.AnnealSchedule.for_tau(50.0))
    assert result.final_probabilities[cfg(1, 1)] >= 0.99


def test_short_time_against_matrix_exponential(toy_source):
    # over a tiny window the midpoint propagator is exact to O(tau^3)
    tau = 1e-3
    schedule = qf.AnnealSchedule(tau=tau, steps=10)
    psi = qf.initial_state(5)
    # s at the midpoint of [0, tau] is 1/2 regardless of tau
    vals, vecs = np.linalg.eigh(dense_annealing_hamiltonian(toy_source, 0.5))
    propagator = vecs @ np.diag(np.exp(-1j * vals * tau)) @ vecs.conj().T
    expected = propagator @ psi

    # integrate with the package and compare amplitudes via probabilities
    result = qf.evolve_many((toy_source,), schedule, enforce_drift=False)[0]
    probs = np.array(
        [result.final_probabilities[cfg(b, 5)] for b in range(32)]
    )
    assert np.allclose(probs, np.abs(expected) ** 2, atol=1e-7)


def test_norm_drift_raises_with_result_attached(toy_source):
    # CFM4 is unitary, so on an under-resolved schedule the norm holds and
    # the step-doubling estimate must trip instead
    schedule = qf.AnnealSchedule(tau=200.0, steps=40)
    with pytest.raises(IntegrationAccuracyError) as excinfo:
        qf.evolve(toy_source, schedule)
    attached = excinfo.value.result
    assert attached is not None
    assert attached.norm_drift <= 1e-6
    assert attached.error_estimate > 1e-6
    assert "error estimate" in str(excinfo.value)
    # the trip is real: the attached probabilities are off by more than 1e-6
    resolved = qf.evolve(toy_source, qf.AnnealSchedule.for_tau(200.0))
    error = max(
        abs(p - resolved.final_probabilities[c])
        for c, p in attached.final_probabilities.items()
    )
    assert error > 1e-6


@pytest.mark.parametrize(
    "drift, estimate",
    [(float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 0.0), (0.0, 2e-6)],
)
def test_accuracy_guard_rejects_nan_and_overruns(drift, estimate):
    result = qf.EvolutionResult({}, drift, 1.0, 1, 1.0 - drift, estimate)
    assert qf.accuracy_failure(result) is not None


def test_accuracy_guard_accepts_budget():
    result = qf.EvolutionResult({}, 1e-6, 1.0, 1, 1.0 - 1e-6, 1e-6)
    assert qf.accuracy_failure(result) is None


def test_single_step_has_no_estimate(toy_source):
    # a single step has no coarser run to compare with
    result = qf.evolve_many(
        (toy_source,), qf.AnnealSchedule(tau=1e-3, steps=1), enforce_drift=False
    )[0]
    assert result.error_estimate == float("inf")
    with pytest.raises(IntegrationAccuracyError):
        qf.evolve(toy_source, qf.AnnealSchedule(tau=1e-3, steps=1))


def _probability_vector(result, n):
    return np.array([result.final_probabilities[cfg(b, n)] for b in range(1 << n)])


@pytest.mark.parametrize("tau", [1.0, 10.0, 100.0])
def test_default_policy_matches_dense_oracle(tau):
    # bound fixed in advance: the accuracy budget the guard promises
    rng = np.random.default_rng(int(tau))
    for _ in range(2):
        model = _random_model(rng)
        n = model.num_spins
        result = qf.evolve(model, qf.AnnealSchedule.for_tau(tau))
        oracle = dense_anneal_probabilities(model, tau, max(200, int(20 * tau)))
        assert np.abs(_probability_vector(result, n) - oracle).max() <= 1e-6


def test_estimate_covers_true_error_when_underresolved():
    rng = np.random.default_rng(17)
    for _ in range(3):
        model = _random_model(rng)
        n = model.num_spins
        result = qf.evolve_many(
            (model,), qf.AnnealSchedule(tau=10.0, steps=10), enforce_drift=False
        )[0]
        oracle = dense_anneal_probabilities(model, 10.0, 200)
        true_error = np.abs(_probability_vector(result, n) - oracle).max()
        assert result.error_estimate > 1e-6
        assert result.error_estimate >= true_error


def test_inversion_symmetry_of_probabilities(toy_source):
    result = qf.evolve(toy_source, qf.AnnealSchedule.for_tau(10.0))
    for bits in range(32):
        p = result.final_probabilities[cfg(bits, 5)]
        p_flip = result.final_probabilities[cfg(bits ^ 31, 5)]
        assert abs(p - p_flip) <= 1e-8


def test_zero_field_probabilities_exactly_inversion_symmetric(
    toy_source, embedded_models
):
    rng = np.random.default_rng(11)
    couplings = tuple(
        (i, j, float(rng.choice((-1.0, 1.0))))
        for i in range(11)
        for j in range(i + 1, 11)
        if rng.random() < 0.3
    )
    random11 = qf.IsingModel(11, couplings)
    schedule = qf.AnnealSchedule.for_tau(3.0)
    for model in (toy_source, embedded_models[1.0].model, random11):
        (result,) = qf.evolve_many((model,), schedule, enforce_drift=False)
        vector = result.final_probabilities.vector
        assert (vector == vector[::-1]).all()


def test_probabilities_renormalized(toy_source):
    result = qf.evolve(toy_source, qf.AnnealSchedule.for_tau(5.0))
    assert sum(result.final_probabilities.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(p >= 0.0 for p in result.final_probabilities.values())


# ---------------------------------------------------------- convergence


def doubling_difference(model, tau, steps):
    """Largest probability change from ``steps`` to ``2 * steps`` steps, from
    two separate runs, and the run at ``2 * steps``."""
    base, doubled = (
        qf.evolve_many((model,), qf.AnnealSchedule(tau, n), enforce_drift=False)[0]
        for n in (steps, 2 * steps)
    )
    diff = np.abs(
        base.final_probabilities.vector - doubled.final_probabilities.vector
    ).max()
    return diff, doubled


def test_convergence_default_policy_unflagged(toy_source):
    steps = qf.default_steps(5.0)
    diff, _ = doubling_difference(toy_source, 5.0, steps)
    assert diff <= 1e-6


def test_convergence_underresolved_flagged(toy_source):
    diff, _ = doubling_difference(toy_source, 1000.0, 10)
    assert not diff <= 1e-6


def test_convergence_tau_zero(toy_source):
    diff, _ = doubling_difference(toy_source, 0.0, 1)
    assert diff <= 1e-12


@pytest.mark.parametrize("tau, steps", [(5.0, 50), (40.0, 7), (1000.0, 10), (3.0, 1)])
def test_convergence_matches_two_separate_runs(toy_source, tau, steps):
    # the run at 2*steps carries the steps run as its coarse rows, so its
    # estimate is the two runs' difference over the Richardson factor 15
    diff, doubled = doubling_difference(toy_source, tau, steps)
    assert doubled.error_estimate == diff / 15.0


# ------------------------------------------------------------- batching


def test_batch_matches_single_runs(toy_source, embedded_models):
    models = [embedded_models[jf].model for jf in (0.5, 1.0, 1.5)]
    schedule = qf.AnnealSchedule.for_tau(2.0)
    batch = qf.evolve_many(models, schedule)
    singles = [qf.evolve(m, schedule) for m in models]
    for b, s in zip(batch, singles):
        for config, p in b.final_probabilities.items():
            assert p == s.final_probabilities[config]


def test_rows_with_different_substeps_stay_independent(embedded_models):
    # an under-resolved schedule gives each row its own substep count and
    # Taylor stopping point
    models = [embedded_models[jf].model for jf in (0.5, 1.0, 1.5)]
    schedule = qf.AnnealSchedule(tau=40.0, steps=4)
    batch = qf.evolve_many(models, schedule, enforce_drift=False)
    for model, b in zip(models, batch):
        (alone,) = qf.evolve_many((model,), schedule, enforce_drift=False)
        assert b.final_probabilities == alone.final_probabilities
        assert b.error_estimate == alone.error_estimate


@pytest.mark.parametrize("steps", [3, 5])
def test_odd_step_estimate_uses_its_richardson_factor(toy_source, steps):
    # ceil(n/2) coarse steps: the factor is (n/m)^4 - 1, not 15
    coarse_steps = (steps + 1) // 2
    fine, coarse = (
        qf.evolve_many((toy_source,), qf.AnnealSchedule(4.0, n), enforce_drift=False)[0]
        for n in (steps, coarse_steps)
    )
    diff = np.abs(
        fine.final_probabilities.vector - coarse.final_probabilities.vector
    ).max()
    assert fine.error_estimate == diff / ((steps / coarse_steps) ** 4 - 1.0)


def _result_bits(result):
    """The probability vector's bytes and the hex of every scalar field."""
    scalars = ("norm_drift", "tau", "steps", "norm_squared", "error_estimate")
    return (
        result.final_probabilities.vector.tobytes(),
        [float(getattr(result, name)).hex() for name in scalars],
    )


def test_mixed_sizes_batch_by_spin_count(toy_source, embedded_models):
    # N = 5, 6, 5: each result is bitwise its model's in a batch of its own
    # size, in input order; at 30 steps only the rescaled source misses the
    # budget, and the raised error still carries every result
    rescaled = qf.IsingModel(
        5, tuple((i, j, 2.0 * J) for i, j, J in toy_source.couplings)
    )
    models = (toy_source, embedded_models[1.0].model, rescaled)
    schedule = qf.AnnealSchedule(tau=10.0, steps=30)
    mixed = qf.evolve_many(models, schedule, enforce_drift=False)
    five = qf.evolve_many(models[::2], schedule, enforce_drift=False)
    six = qf.evolve_many(models[1:2], schedule, enforce_drift=False)
    want = [_result_bits(r) for r in (five[0], six[0], five[1])]
    assert [_result_bits(r) for r in mixed] == want
    failures = [qf.accuracy_failure(r) for r in mixed]
    assert failures[0] is None and failures[1] is None and failures[2] is not None
    with pytest.raises(IntegrationAccuracyError) as excinfo:
        qf.evolve_many(models, schedule)
    assert str(excinfo.value).startswith(failures[2])
    assert [_result_bits(r) for r in excinfo.value.result] == want


def _mixed_schedule_rows(toy_source, embedded_models):
    """(model, schedule) rows mixing tau, step count, spin count and fields."""
    fielded = qf.IsingModel(5, toy_source.couplings, (0.5, 0.0, 0.0, -0.25, 0.0))
    six = embedded_models[1.0].model
    three = qf.IsingModel(3, ((0, 1, 1.0), (1, 2, -1.0)), (0.25, 0.0, 0.0))
    schedule = qf.AnnealSchedule
    return [
        (toy_source, schedule(20.0, 40)),
        (six, schedule(3.0, 7)),
        (fielded, schedule(20.0, 1)),
        (toy_source, schedule(0.0, 5)),
        (six, schedule(12.0, 2)),
        (fielded, schedule(3.0, 7)),
        (toy_source, schedule(3.0, 7)),
        (three, schedule(5.0, 3)),
        (six, schedule(0.0, 1)),
        (toy_source, schedule(40.0, 4)),
        (six, schedule(3.0, 7)),
    ]


def test_mixed_schedules_batch_bitwise_like_rows_alone(toy_source, embedded_models):
    # even, odd and single steps and tau = 0 share batches of 5 spins (zero
    # field and fielded, so the full space) and of 6 spins (the half space);
    # each row is bitwise its own run, in input order
    rows = _mixed_schedule_rows(toy_source, embedded_models)
    models, schedules = zip(*rows)
    batch = qf.evolve_many(models, schedules, enforce_drift=False)
    alone = [qf.evolve_many((m,), sch, enforce_drift=False)[0] for m, sch in rows]
    assert [_result_bits(r) for r in batch] == [_result_bits(r) for r in alone]
    assert [(r.tau, r.steps) for r in batch] == [(s.tau, s.steps) for s in schedules]


@st.composite
def scheduled_models(draw):
    """One to four random models of 1-4 spins, each with its own schedule."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 4))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        values = st.floats(-2.0, 2.0)
        couplings = tuple((i, j, draw(values)) for i, j in sorted(chosen))
        fields = tuple(draw(values) for _ in range(n)) if draw(st.booleans()) else ()
        schedule = qf.AnnealSchedule(
            draw(st.sampled_from((0.0, 0.5, 3.0, 12.0))), draw(st.integers(1, 7))
        )
        rows.append((qf.IsingModel(n, couplings, fields), schedule))
    return rows


@settings(max_examples=40, deadline=None)
@given(scheduled_models())
def test_rows_of_any_schedules_batch_bitwise_like_rows_alone(rows):
    models, schedules = zip(*rows)
    batch = qf.evolve_many(models, schedules, enforce_drift=False)
    alone = [qf.evolve_many((m,), sch, enforce_drift=False)[0] for m, sch in rows]
    assert [_result_bits(r) for r in batch] == [_result_bits(r) for r in alone]


def test_cost_guard_sums_each_rows_own_steps(toy_source, embedded_models, monkeypatch):
    # 2 x 2 x 16 x 3e7 + 2 x 1 x 32 x 2e6 = 2.048e9 is over the 2e9 budget:
    # each row counts its own steps, and the tau = 0 row, which takes no
    # step, costs none
    schedule = qf.AnnealSchedule
    models = (toy_source, embedded_models[1.0].model, toy_source, toy_source)
    schedules = (
        schedule(20.0, 30_000_000), schedule(20.0, 2_000_000),
        schedule(0.0, 10**12), schedule(5.0, 30_000_000),
    )
    _forbid_integration(monkeypatch)
    with pytest.raises(ModelTooLargeError) as excinfo:
        qf.evolve_many(models, schedules, enforce_drift=False)
    assert str(excinfo.value) == (
        "integration needs 2.05e+09 amplitude-steps "
        "(2 x 2 rows x 16 amplitudes x 30000000 steps + "
        "2 x 1 rows x 32 amplitudes x 2000000 steps), "
        "over the budget of 2e+09"
    )


def test_cost_guard_counts_taylor_substeps(toy_source, toy_template, monkeypatch):
    # at J_F = 1e6, max|E| = 1000004: at tau = 1000 and 2000 steps each fine
    # exponential takes up to ceil(1000004 x 1000 / (2 x 2000 x 4)) = 62501
    # substeps, and counting steps alone let the run start and last hours
    strong = qf.apply_embedding(
        toy_source, toy_template.with_chain_strength(1e6)
    ).model
    _forbid_integration(monkeypatch)
    with pytest.raises(ModelTooLargeError) as excinfo:
        qf.evolve(strong, qf.AnnealSchedule.for_tau(1000.0))
    assert str(excinfo.value) == (
        "integration needs 8e+09 amplitude-steps "
        "(2 x 1 rows x 32 amplitudes x 2000 steps x 62501 substeps), "
        "over the budget of 2e+09"
    )
    # at tau = 1 (50 steps) the estimate is 8e6: within the budget, so that
    # run is allowed; the estimate shows under a lower budget
    monkeypatch.setattr(
        importlib.import_module("qa_fairsample.evolve"), "MAX_AMPLITUDE_STEPS", 10**6
    )
    with pytest.raises(ModelTooLargeError, match="x 50 steps x 2501 substeps"):
        qf.evolve(strong, qf.AnnealSchedule.for_tau(1.0))


def test_overflowing_energies_are_refused_before_integrating(monkeypatch):
    # finite couplings whose sums overflow to +-inf are refused as a model;
    # finite energies whose Taylor substep bound overflows at a long tau are
    # refused by the cost guard
    couplings = ((0, 1, 1.0), (0, 2, 1.0), (1, 2, -1.0), (0, 3, 1e308), (1, 3, 1e308))
    with pytest.raises(ValueError, match="sum of \\|J\\| and \\|h\\| must be finite"):
        qf.IsingModel(4, couplings)
    model = qf.IsingModel(4, couplings[:3] + ((0, 3, 1e300),))
    assert np.isfinite(qf.energy_table(model)).all()
    # no step, no exponential: tau = 0 still returns the start state
    assert qf.evolve(model, qf.AnnealSchedule(0.0, 1)).error_estimate == 0.0
    _forbid_integration(monkeypatch)
    with pytest.raises(ModelTooLargeError, match="substep bound .* of inf"):
        qf.evolve(model, qf.AnnealSchedule(1e10, 50))


@pytest.mark.parametrize("fields", [(), (0.5, 0.0, 0.0, -0.25, 0.0)])
def test_step_counts_too_large_for_a_float(fields):
    # a tau > 0 row takes at least 2 x steps amplitude-steps, so a count
    # over half the budget is refused, however many digits it has; at tau = 0
    # no step is taken and any count returns the start state, with no error
    model = qf.IsingModel(5, ((0, 1, 1.0), (1, 2, -1.0), (3, 4, 1.0)), fields)
    huge = 10**400 + 1
    with pytest.raises(ModelTooLargeError, match="more than 1000000000 steps.*2e\\+09"):
        qf.evolve(model, qf.AnnealSchedule(20.0, huge))
    with pytest.raises(ModelTooLargeError, match="more than 1000000000 steps"):
        qf.evolve_many(
            (model, model), [qf.AnnealSchedule(0.0, 3), qf.AnnealSchedule(1.0, 10**9 + 1)]
        )
    results = qf.evolve_many(
        (model, model), [qf.AnnealSchedule(0.0, huge), qf.AnnealSchedule(2.0, 20)]
    )
    start = qf.evolve(model, qf.AnnealSchedule(0.0, 1))
    assert results[0].steps == huge
    assert results[0].error_estimate == 0.0
    assert results[0].final_probabilities.vector.tobytes() == (
        start.final_probabilities.vector.tobytes()
    )
    alone = qf.evolve(model, qf.AnnealSchedule(2.0, 20))
    assert _result_bits(results[1]) == _result_bits(alone)


def test_schedules_must_be_one_or_one_per_model(toy_source):
    schedule = qf.AnnealSchedule(3.0, 4)
    with pytest.raises(ValueError, match="2 schedules for 1 models"):
        qf.evolve_many((toy_source,), (schedule, schedule))
    with pytest.raises(ValueError, match="1 schedules for 2 models"):
        qf.evolve_many((toy_source, toy_source), [schedule])
    with pytest.raises(TypeError, match="AnnealSchedule"):
        qf.evolve_many((toy_source,), (3.0,))


def test_batch_on_views_matches_rows_alone_on_the_gather(monkeypatch):
    # N = 10 with fields: alone, a model's fine and coarse rows gather their
    # flip sum; two models batched run the shared exponential on views
    module = importlib.import_module("qa_fairsample.evolve")
    n = 10
    assert 2 * n * (1 << n) <= module._GATHER_MAX < 4 * n * (1 << n)
    rng = np.random.default_rng(17)
    models = [
        qf.IsingModel(
            n,
            tuple((i, i + 1, float(rng.choice([-1.0, 1.0]))) for i in range(n - 1)),
            tuple(float(h) for h in rng.uniform(-0.5, 0.5, size=n)),
        )
        for _ in range(2)
    ]
    forms = []
    apply = module._Kernel.apply

    def recording_apply(kernel, diag, drive):
        forms.append((kernel.state.shape[0], kernel._views is None))
        return apply(kernel, diag, drive)

    monkeypatch.setattr(module._Kernel, "apply", recording_apply)
    schedule = qf.AnnealSchedule(tau=2.0, steps=4)
    batched = qf.evolve_many(models, schedule, enforce_drift=False)
    assert (4, False) in forms
    forms.clear()
    alone = [qf.evolve_many((m,), schedule, enforce_drift=False)[0] for m in models]
    assert forms and all(gathered for _, gathered in forms)
    assert [_result_bits(r) for r in batched] == [_result_bits(r) for r in alone]


def test_runs_are_deterministic(toy_source):
    schedule = qf.AnnealSchedule.for_tau(3.0)
    first = qf.evolve(toy_source, schedule)
    second = qf.evolve(toy_source, schedule)
    assert first.final_probabilities == second.final_probabilities
    assert first.norm_drift == second.norm_drift


# ------------------------------------------------ half-space sector


def _assert_bitwise_equal(results, oracle):
    assert len(results) == len(oracle)
    for got, want in zip(results, oracle):
        assert (got.final_probabilities.vector == want.final_probabilities.vector).all()
        assert got.norm_squared == want.norm_squared
        assert got.norm_drift == want.norm_drift
        assert got.error_estimate == want.error_estimate


@st.composite
def same_size_batches(draw):
    """One to three random models of one size N <= 7, each with or without fields."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    values = st.floats(-2.0, 2.0)
    models = []
    for _ in range(draw(st.integers(1, 3))):
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        couplings = tuple((i, j, draw(values)) for i, j in sorted(chosen))
        fields = tuple(draw(values) for _ in range(n)) if draw(st.booleans()) else ()
        models.append(qf.IsingModel(n, couplings, fields))
    return models


@settings(max_examples=40, deadline=None)
@given(
    same_size_batches(),
    st.sampled_from((0.0, 0.5, 3.0, 12.0)),
    st.sampled_from((None, 2)),  # 2 steps: several Taylor substeps per exponential
)
def test_half_space_matches_full_space_bitwise(models, tau, steps):
    schedule = qf.AnnealSchedule.for_tau(tau, steps)
    results = qf.evolve_many(models, schedule, enforce_drift=False)
    _assert_bitwise_equal(results, full_space_evolve_many(models, schedule))


@pytest.mark.parametrize("fields", [(), (0.0,), (0.5,)])
def test_single_spin_matches_full_space_bitwise(fields):
    model = qf.IsingModel(1, (), fields)
    schedule = qf.AnnealSchedule.for_tau(3.0)
    results = qf.evolve_many((model,), schedule, enforce_drift=False)
    _assert_bitwise_equal(results, full_space_evolve_many((model,), schedule))


@settings(max_examples=40, deadline=None)
@given(
    same_size_batches(),
    st.sampled_from((0.0, 0.5, 3.0, 12.0)),
    st.sampled_from((1, 2, 3, 4, 5, 7, None)),
)
def test_fused_coarse_rows_match_separate_runs_bitwise(models, tau, steps):
    schedule = qf.AnnealSchedule.for_tau(tau, steps)
    results = qf.evolve_many(models, schedule, enforce_drift=False)
    _assert_bitwise_equal(results, full_space_evolve_many(models, schedule))


@pytest.mark.parametrize("steps", [3, 4])
def test_active_span_shrinking_from_both_ends_keeps_rows_bitwise(
    monkeypatch, toy_source, steps
):
    # weak, strong, weak: rows 0..2 run fine and 3..5 coarse in one span
    # of live rows, and the weak rows stop first, so the span of rows still
    # summing loses rows at both of its ends
    models = [
        qf.IsingModel(5, tuple((i, j, f * J) for i, j, J in toy_source.couplings))
        for f in (0.25, 3.0, 0.5)
    ]
    module = importlib.import_module("qa_fairsample.evolve")
    spans = []
    rows = module._Kernel.rows

    def recording_rows(kernel, lo, hi):
        spans.append((kernel.state.shape[0], lo, hi))
        return rows(kernel, lo, hi)

    monkeypatch.setattr(module._Kernel, "rows", recording_rows)
    schedule = qf.AnnealSchedule(tau=40.0, steps=steps)
    results = qf.evolve_many(models, schedule, enforce_drift=False)
    assert any(width == 6 and 0 < lo and hi < 6 for width, lo, hi in spans)
    _assert_bitwise_equal(results, full_space_evolve_many(models, schedule))


@pytest.mark.parametrize("steps", [50, 51])
def test_batch_makes_two_exponentials_per_step_of_its_longest_row(
    monkeypatch, toy_source, steps
):
    # the coarse row of an odd step count takes its ceil(steps/2) steps
    # inside the loop steps of its fine row, with no exponential of its own
    module = importlib.import_module("qa_fairsample.evolve")
    calls = []
    exp_step = module._exp_step

    def counting_exp_step(*args):
        calls.append(args)
        return exp_step(*args)

    monkeypatch.setattr(module, "_exp_step", counting_exp_step)
    schedules = [qf.AnnealSchedule(3.0, steps), qf.AnnealSchedule(3.0, 7),
                 qf.AnnealSchedule(0.0, 9)]
    qf.evolve_many([toy_source] * 3, schedules, enforce_drift=False)
    assert len(calls) == 2 * steps


def _mixed_batch(toy_source):
    fielded = qf.IsingModel(5, toy_source.couplings, (0.5, 0.0, 0.0, -0.25, 0.0))
    scaled = qf.IsingModel(5, tuple((i, j, 1.5 * J) for i, j, J in toy_source.couplings))
    return (toy_source, fielded, scaled)


@pytest.mark.parametrize("steps", [None, 4])
def test_mixed_batch_matches_full_space_bitwise(toy_source, steps):
    models = _mixed_batch(toy_source)
    schedule = qf.AnnealSchedule.for_tau(12.0, steps)
    results = qf.evolve_many(models, schedule, enforce_drift=False)
    _assert_bitwise_equal(results, full_space_evolve_many(models, schedule))
