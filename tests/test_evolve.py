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
    # 2 x 1 row x 16 kept amplitudes x 10^10 steps, refused before any
    # allocation in proportion to the step count
    schedule = qf.AnnealSchedule(tau=20.0, steps=10**10)
    with pytest.raises(ModelTooLargeError, match="3.2e\\+11 amplitude-steps"):
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


def _gather_flip_sum(psi):
    # reference kernel: gather each spin's flipped column, add in spin order
    n = psi.size.bit_length() - 1
    indices = np.arange(psi.size)
    acc = psi[indices ^ 1]
    for i in range(1, n):
        acc += psi[indices ^ (1 << i)]
    return acc


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_apply_matches_gather_kernel_bitwise(n):
    rng = np.random.default_rng(300 + n)
    couplings = tuple((i, i + 1, float(rng.normal())) for i in range(n - 1))
    model = qf.IsingModel(n, couplings, tuple(float(h) for h in rng.normal(size=n)))
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    s = 0.3
    expected = (s * qf.energy_table(model)) * psi - (1.0 - s) * _gather_flip_sum(psi)
    assert np.array_equal(kernel_apply(model, s, psi), expected)


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
    # weak, strong, weak: in the shared slot rows 0..2 run fine and 3..5
    # coarse, and the weak rows stop first, so the span of rows still
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
