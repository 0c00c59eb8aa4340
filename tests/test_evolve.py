"""Integrator module: the matrix-free Hamiltonian kernel and CFM4 evolution."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qa_fairsample as qf
from qa_fairsample.errors import IntegrationAccuracyError, ModelTooLargeError
from qa_fairsample.evolve import THETA, _accuracy_failure, _default_steps, _initial_state
from qa_fairsample.model import _components

from conftest import (
    FIXTURE_MODELS,
    count_calls,
    dense_anneal_probabilities,
    dense_annealing_hamiltonian,
    forbid_integration,
    full_space_evolve_many,
    joint_full_space_evolve_many,
    kernel_apply,
    reference_cfm4_weights,
    reference_exp_step,
    sequential_flip_sum,
)


def cfg(bits, n):
    return qf.SpinConfiguration(bits, n)


# -------------------------------------------------------- initial state


def test_initial_state_single_spin():
    psi = _initial_state(1)
    assert np.allclose(psi, 0.7071067811865476)
    assert psi.dtype == np.complex128


def test_initial_state_amplitudes():
    assert np.all(_initial_state(2) == 0.5)
    assert np.all(_initial_state(6) == 0.125)


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
    assert _default_steps(5e8) == 10**9


def test_mixed_sizes_over_the_budget_are_refused_before_integrating(
    toy_source, monkeypatch
):
    # a 22-spin zero-field chain alone needs 2 x 1 x 2^21 x 500 = 2.1e9
    # amplitude-steps at tau = 100, and its loop and the source's 3e7 more;
    # the 5-spin source must not run first
    chain = qf.IsingModel(22, tuple((i, i + 1, -1.0) for i in range(21)))
    schedule = qf.AnnealSchedule.for_tau(100.0)
    forbid_integration(monkeypatch)
    for models in ((toy_source, chain), (chain, toy_source)):
        with pytest.raises(ModelTooLargeError, match="2.13e\\+09 amplitude-steps"):
            qf.evolve_many(models, schedule, enforce_drift=False)


def test_batches_under_the_budget_alone_are_refused_together(
    toy_source, embedded_models, monkeypatch
):
    # 2 x 16 x 99600 + 1e4 x 2 x 99600 = 1.9952e9 and 2 x 32 x 99600 + 1e4
    # x 2 x 99600 = 1.9984e9 amplitude-steps pass alone; together, in one
    # loop, they need 2 x 16 x 99600 + 2 x 32 x 99600 + 1e4 x 2 x 99600 =
    # 2.0016e9 (2e+09 to three digits), over the 2e9 budget
    models = (toy_source, embedded_models[1.0].model)
    schedule = qf.AnnealSchedule(tau=20.0, steps=99_600)
    forbid_integration(monkeypatch)
    with pytest.raises(ModelTooLargeError) as excinfo:
        qf.evolve_many(models, schedule, enforce_drift=False)
    assert str(excinfo.value) == (
        "integration needs 2e+09 amplitude-steps "
        "(2 x 1 rows x 16 amplitudes x 99600 steps + "
        "2 x 1 rows x 32 amplitudes x 99600 steps + "
        "10000 x 2 x 99600 steps x 1 loop substeps), "
        "over the budget of 2e+09"
    )
    # alone, each passes the guard and reaches the integration
    for model in models:
        with pytest.raises(AssertionError, match="integrated before the cost guard"):
            qf.evolve_many((model,), schedule, enforce_drift=False)


# ------------------------------------------------ Hamiltonian application


def test_apply_at_s_one_is_diagonal(toy_source):
    rng = np.random.default_rng(0)
    psi = rng.normal(size=32) + 1j * rng.normal(size=32)
    out = kernel_apply(toy_source, 1.0, psi)
    assert np.allclose(out, qf.energy_table(toy_source) * psi)


def test_apply_at_s_zero_uniform_is_eigenstate(toy_source):
    psi = _initial_state(5)
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
            psi = _signed_zero_rows(rng, rows, dim)
            diag = rng.normal(size=(rows, dim))
            drive = rng.normal(size=(rows, 1))
            expected = psi * diag - sequential_flip_sum(psi, n, half) * drive
            for limit in (0, 1 << 30):
                monkeypatch.setattr(module, "_GATHER_MAX", limit)
                kernel = module._Kernel.allocate([n] * rows, [half] * rows)
                assert (kernel._views is None) == bool(limit)
                kernel.state[:] = psi.ravel()
                _apply_by_rows(kernel, 0, diag, drive)
                assert kernel.state.tobytes() == expected.tobytes(), (half, rows, limit)


def _apply_by_rows(kernel, lo, diag, drives):
    """Apply a kernel over rows lo.. with each row's diag and drive, in its
    layout: diag in the shape of its own, drive per amplitude or per row."""
    diag = np.concatenate([np.ravel(row) for row in diag]).reshape(kernel.diag.shape)
    kernel.apply(diag, np.take(np.ravel(drives), kernel.spread - lo))


def _signed_zero_rows(rng, rows, dim):
    psi = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    psi.real[rng.random(psi.shape) < 0.3] = -0.0
    psi.imag[rng.random(psi.shape) < 0.3] = -0.0
    return psi


def test_gather_kernel_mixes_row_sizes_and_spaces_bitwise():
    # rows of 1-9 spins, full and half space, in one gather kernel: each row's
    # flip sum pads its missing flips with -0.0 and matches its own
    # sequential sum, all -0.0 rows included
    module = importlib.import_module("qa_fairsample.evolve")
    rng = np.random.default_rng(77)
    shapes = [(9, True), (1, True), (4, False), (1, False), (6, True), (2, False),
              (9, False), (3, True)]
    kernel = module._Kernel.allocate(*zip(*shapes))
    rows = [_signed_zero_rows(rng, 1, 1 << (n - half))[0] for n, half in shapes]
    rows[3][:] = complex(-0.0, -0.0)
    drives = rng.normal(size=len(rows))
    diag = [rng.normal(size=row.size) for row in rows]
    kernel.state[:] = np.concatenate(rows)
    _apply_by_rows(kernel, 0, diag, drives)
    expected = [
        row * d - sequential_flip_sum(row, n, half) * drive
        for row, d, drive, (n, half) in zip(rows, diag, drives, shapes)
    ]
    assert kernel.state.tobytes() == np.concatenate(expected).tobytes()
    assert kernel._batch.index.shape == (9, kernel.state.size)


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
            expected = psi * diag - sequential_flip_sum(psi, n, half) * drive
            kernel = module._Kernel.allocate([n] * rows, [half] * rows)
            assert len(kernel._taken) == 3
            assert len(kernel._views) == n - 3
            kernel.state[:] = psi.ravel()
            _apply_by_rows(kernel, 0, diag, drive)
            assert kernel.state.tobytes() == expected.tobytes(), (half, rows)


def test_spans_share_one_scratch_and_index_without_leaking():
    # a view kernel (N = 11 at 3 rows) and a gather kernel of mixed rows: the
    # spans of each share one scratch or one index and gather buffer, and
    # spans applied in alternation to fresh rows each match the reference,
    # so nothing one span leaves in a shared buffer reaches another
    module = importlib.import_module("qa_fairsample.evolve")
    rng = np.random.default_rng(41)
    spans = [(0, 3), (1, 3), (1, 2), (0, 2), (2, 3), (0, 1), (1, 3), (0, 3)]
    for shapes in ([(11, False)] * 3, [(5, False), (2, True), (4, True)]):
        kernel = module._Kernel.allocate(*zip(*shapes))
        batch = kernel._batch
        for lo, hi in spans * 2:
            span = kernel.rows(lo, hi)
            if span._views is None:
                assert np.shares_memory(span._index, batch.columns)
                assert np.shares_memory(span._gathered, batch.gathered)
            else:
                assert np.shares_memory(span._scratch, batch.scratch)
                assert span._taken is batch.taken
            rows = [_signed_zero_rows(rng, 1, 1 << (n - half))[0] for n, half in shapes[lo:hi]]
            diag = [rng.normal(size=row.size) for row in rows]
            drives = rng.normal(size=hi - lo)
            expected = [
                row * d - sequential_flip_sum(row, n, half) * drive
                for row, d, drive, (n, half) in zip(rows, diag, drives, shapes[lo:hi])
            ]
            span.state[:] = np.concatenate(rows)
            _apply_by_rows(span, lo, diag, drives)
            assert span.state.tobytes() == np.concatenate(expected).tobytes(), (lo, hi)
        # the view kernel's spans all add views; the gather kernel's all gather
        assert {kernel.rows(*span)._views is None for span in spans} == {len(set(shapes)) > 1}


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
        widths.append(len(kernel.active))
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
            expected = psi.copy()
            reference_exp_step(expected, tables, [half] * rows, s, h, emax)
            for limit in (0, 1 << 30):
                monkeypatch.setattr(module, "_GATHER_MAX", limit)
                widths.clear()
                out = psi.ravel().copy()
                kernel = module._Kernel.allocate([n] * rows, [half] * rows)
                module._exp_step(kernel, out, tables.ravel(), s,
                                 *module._substeps(n, s, h, emax))
                assert out.tobytes() == expected.tobytes(), (half, rows, real, limit)
                # rows leave the span at their own substep and term
                assert rows < 8 or min(widths) < rows


@st.composite
def cfm4_batches(draw):
    """Kept tables of 1-10 spins and 1-8 rows of mixed schedules.

    The tables are random, each of the half or the full space, of one size
    or of mixed sizes. Each row is at tau = 0 or takes 1-7 steps whose
    exponentials take about 1-4 substeps.
    """
    sizes = draw(st.lists(st.integers(1, 10), min_size=1, max_size=4))
    if draw(st.booleans()):
        sizes = sizes[:1] * len(sizes)
    halves = [draw(st.booleans()) for _ in sizes]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # |E| about n, so an exponential of length h takes about n h / THETA
    # substeps at any s; each row's length is drawn in units of THETA / n
    tables = [rng.normal(size=1 << (n - half)) * n / 2 for n, half in zip(sizes, halves)]
    schedules = []
    for _ in range(draw(st.integers(len(sizes), 8))):
        steps = draw(st.integers(1, 7))
        h = draw(st.sampled_from((0.0, 0.5, 1.5, 2.5))) * THETA / max(sizes)
        schedules.append(qf.AnnealSchedule(2.0 * steps * h, steps))
    return tables, halves, schedules


@settings(max_examples=25, deadline=None)
@given(cfm4_batches())
def test_cfm4_loop_matches_the_reference_bitwise(batch):
    # the whole step loop against its row-by-row oracle, through both forms
    # of the flip sum where the rows share a size, and at schedule blocks of
    # 1, 3 and the package's own number of steps: each row's weights are
    # the same bytes, and so are those of the row run alone
    tables, halves, schedules = batch
    module = importlib.import_module("qa_fairsample.evolve")
    expected = [w.tobytes() for w in reference_cfm4_weights(tables, halves, schedules)]
    with pytest.MonkeyPatch.context() as patch:
        for limit in (0, 1 << 30):
            patch.setattr(module, "_GATHER_MAX", limit)
            for block in (1, 3, module._STEP_BLOCK):
                patch.setattr(module, "_STEP_BLOCK", block)
                got = module._cfm4_weights(tables, halves, schedules)
                assert [w.tobytes() for w in got] == expected, (limit, block)
    alone = [
        module._cfm4_weights([tables[r % len(tables)]], [halves[r % len(tables)]], [schedule])[0]
        for r, schedule in enumerate(schedules)
    ]
    assert [w.tobytes() for w in alone] == expected


@pytest.mark.parametrize("half", [False, True])
def test_wide_view_kernel_batches_match_the_reference_bitwise(half):
    # 13 spins on the full and 14 on the half space, 8,192 amplitudes a row:
    # 7 rows of mixed schedules, odd step counts and one at tau = 0 among
    # them, on one view kernel of the 6 moving rows at the package's own
    # gather limit; each row's weights are the same bytes
    module = importlib.import_module("qa_fairsample.evolve")
    n = 13 + half
    rng = np.random.default_rng(1313 + half)
    tables = list(rng.normal(size=(3, 1 << (n - half))) * 2.0)
    schedule = qf.AnnealSchedule
    schedules = [schedule(1.0, 3), schedule(0.0, 4), schedule(1.5, 5), schedule(0.5, 1),
                 schedule(1.0, 2), schedule(2.0, 5), schedule(0.7, 3)]
    assert module._Kernel.allocate([n] * 6, [half] * 6)._views is not None
    weights = module._cfm4_weights(tables, [half] * 3, schedules)
    expected = reference_cfm4_weights(tables, [half] * 3, schedules)
    assert [w.tobytes() for w in weights] == [w.tobytes() for w in expected]


def test_toy_embedding_batch_makes_a_pinned_number_of_kernel_applies(
    monkeypatch, embedded_models
):
    # the Taylor loop's work is fixed by the arithmetic: 3,054 applies for
    # the three chain strengths at tau = 20 under the default 100 steps, and
    # 3,044 beside a short and a tau = 0 schedule; computing the schedule in
    # blocks or testing for stops differently must not change them
    module = importlib.import_module("qa_fairsample.evolve")
    applies = 0
    apply = module._Kernel.apply

    def counting_apply(kernel, diag, drive):
        nonlocal applies
        applies += 1
        return apply(kernel, diag, drive)

    monkeypatch.setattr(module._Kernel, "apply", counting_apply)
    models = [embedded_models[jf].model for jf in (0.5, 1.0, 1.5)]
    schedule = qf.AnnealSchedule
    for schedules, pinned in (
        (schedule.for_tau(20.0), 3054),
        ([schedule(20.0, 100), schedule(5.0, 7), schedule(0.0, 3)], 3044),
    ):
        applies = 0
        qf.evolve_many(models, schedules, enforce_drift=False)
        assert applies == pinned


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
        _default_steps(tau)


def test_default_step_policy(toy_source):
    # dt = sqrt(tau/250) up to tau = 10, dt = 0.2 up to tau = 400, 2000 steps
    # up to tau = 1000, dt = 0.5 beyond, and never fewer than 2 steps
    for tau, steps in ((1.0, 16), (100.0, 500), (400.0, 2000), (1000.0, 2000),
                       (3000.0, 6000)):
        assert _default_steps(tau) == steps
    assert qf.AnnealSchedule.for_tau(0.0).steps == 2
    assert qf.AnnealSchedule.for_tau(10.0, steps=50).steps == 50
    # the policy resolves the toy anneal; a tenth of its steps trips the estimate
    resolved = qf.evolve(toy_source, qf.AnnealSchedule.for_tau(100.0))
    assert resolved.error_estimate <= 1e-6
    coarse = qf.AnnealSchedule(tau=100.0, steps=resolved.steps // 10)
    with pytest.raises(IntegrationAccuracyError):
        qf.evolve(toy_source, coarse)
    tripped = qf.evolve_many((toy_source,), coarse, enforce_drift=False)[0]
    assert tripped.error_estimate > 1e-6


def test_default_policy_resolves_past_tau_1000(toy_source):
    # the dt = 0.5 branch; a flat 2000 steps would miss the budget here
    result = qf.evolve(toy_source, qf.AnnealSchedule.for_tau(3000.0))
    assert result.steps == 6000
    assert result.norm_drift <= 1e-6 and result.error_estimate <= 1e-6


def test_default_steps_from_tau_10_are_the_fixed_dt_policy():
    # sqrt(250 tau) <= 5 tau from tau = 10 on, so the square-root term adds
    # no step there: every run at tau >= 10 takes the steps it always took
    for tau in (10.0, 10.2, 400.0, 1000.0, 3000.0, 1e4, 16000.0, 1e5):
        fixed_dt = max(50, min(math.ceil(5.0 * tau), 2000), math.ceil(2.0 * tau))
        assert _default_steps(tau) == fixed_dt, tau


def test_short_anneals_at_the_default_steps_meet_the_budget(toy_source, toy_template):
    # below tau = 10 the policy steps at dt = sqrt(tau/250); on the bundled
    # source, its embedding and the 3- and 4-spin chains at J* + 0.5, each run
    # is within the budget, and off a run at 8x its steps by at most the
    # budget and at most twice its own error estimate
    data = Path(__file__).parent / "data"
    embeddings = [toy_template.with_chain_strength(jf) for jf in (0.5, 1.0, 1.5, 2.0)]
    embeddings += [
        qf.load_embedding(data / "matsuda5_chain3.json", chain_strength=1.5),
        qf.load_embedding(data / "matsuda5_chain4.json", chain_strength=2.5),
    ]
    models = [toy_source]
    models += [qf.apply_embedding(toy_source, embedding).model for embedding in embeddings]
    rows = [
        (model, tau)
        for tau in (0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 9.9)
        for model in models
    ]
    runs, references = (
        qf.evolve_many(
            [model for model, _ in rows],
            [qf.AnnealSchedule(tau, factor * _default_steps(tau)) for _, tau in rows],
            enforce_drift=False,
        )
        for factor in (1, 8)
    )
    for (model, tau), run, reference in zip(rows, runs, references):
        assert _accuracy_failure(run) is None, (model.num_spins, tau)
        error = np.abs(
            run.final_probabilities.vector - reference.final_probabilities.vector
        ).max()
        assert error <= 1e-6, (model.num_spins, tau, error)
        assert error <= 2.0 * run.error_estimate, (model.num_spins, tau, error)


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
    psi = _initial_state(5)
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


def test_underresolved_schedule_trips_the_error_estimate(toy_source):
    # CFM4 is unitary, so on an under-resolved schedule the norm holds and
    # the step-doubling estimate must trip instead
    schedule = qf.AnnealSchedule(tau=200.0, steps=40)
    with pytest.raises(IntegrationAccuracyError) as excinfo:
        qf.evolve(toy_source, schedule)
    assert "error estimate" in str(excinfo.value)
    tripped = qf.evolve_many((toy_source,), schedule, enforce_drift=False)[0]
    assert str(excinfo.value).startswith(_accuracy_failure(tripped))
    assert tripped.norm_drift <= 1e-6
    assert tripped.error_estimate > 1e-6
    # the trip is real: the tripped probabilities are off by more than 1e-6
    resolved = qf.evolve(toy_source, qf.AnnealSchedule.for_tau(200.0))
    error = max(
        abs(p - resolved.final_probabilities[c])
        for c, p in tripped.final_probabilities.items()
    )
    assert error > 1e-6


@pytest.mark.parametrize(
    "drift, estimate",
    [(float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 0.0), (0.0, 2e-6)],
)
def test_accuracy_guard_rejects_nan_and_overruns(drift, estimate):
    result = qf.EvolutionResult({}, drift, 1.0, 1, 1.0 - drift, estimate)
    assert _accuracy_failure(result) is not None


def test_accuracy_guard_accepts_budget():
    result = qf.EvolutionResult({}, 1e-6, 1.0, 1, 1.0 - 1e-6, 1e-6)
    assert _accuracy_failure(result) is None


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
    steps = _default_steps(5.0)
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


def test_mixed_sizes_share_one_loop_bitwise_like_batches_of_one_size(
    monkeypatch, toy_source, embedded_models
):
    # N = 5, 6, 5 in one loop: each result is bitwise its model's in a batch
    # of its own size, in input order; at 30 steps only the rescaled source
    # misses the budget, and the raised error names its failure
    rescaled = qf.IsingModel(
        5, tuple((i, j, 2.0 * J) for i, j, J in toy_source.couplings)
    )
    models = (toy_source, embedded_models[1.0].model, rescaled)
    schedule = qf.AnnealSchedule(tau=10.0, steps=30)
    kernels = _recorded_kernels(monkeypatch)
    mixed = qf.evolve_many(models, schedule, enforce_drift=False)
    assert [sorted(set(kernel)) for kernel in kernels] == [[(5, True), (6, True)]]
    five = qf.evolve_many(models[::2], schedule, enforce_drift=False)
    six = qf.evolve_many(models[1:2], schedule, enforce_drift=False)
    want = [_result_bits(r) for r in (five[0], six[0], five[1])]
    assert [_result_bits(r) for r in mixed] == want
    failures = [_accuracy_failure(r) for r in mixed]
    assert failures[0] is None and failures[1] is None and failures[2] is not None
    with pytest.raises(IntegrationAccuracyError) as excinfo:
        qf.evolve_many(models, schedule)
    assert str(excinfo.value).startswith(failures[2])


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


@st.composite
def shared_batches(draw):
    """One to four models of 1-12 spins, each connected or split in two,
    with or without fields, each under its own schedule: tau = 0 and 1-step
    rows among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 12))
        first = draw(st.integers(1, n))
        sizes = (first, n - first) if first < n else (n,)
        model = _split_model(rng, sizes, draw(st.booleans()))
        tau = draw(st.sampled_from((0.0, 0.3, 1.0, 2.0)))
        rows.append((model, qf.AnnealSchedule(tau, draw(st.integers(1, 3)))))
    return rows


@settings(max_examples=20, deadline=None)
@given(shared_batches())
def test_rows_of_every_size_share_a_batch_bitwise_like_alone_and_the_oracle(rows):
    # component rows of every size that gathers share one kernel and loop,
    # padded to the largest's flips; each model's result is bitwise its own
    # run's and the full-space oracle's, which runs each component alone
    models, schedules = zip(*rows)
    batch = qf.evolve_many(models, schedules, enforce_drift=False)
    alone = [qf.evolve_many((m,), sch, enforce_drift=False)[0] for m, sch in rows]
    assert [_result_bits(r) for r in batch] == [_result_bits(r) for r in alone]
    for (model, schedule), result in zip(rows, batch):
        (oracle,) = full_space_evolve_many((model,), schedule)
        assert _result_bits(result) == _result_bits(oracle), model


def test_cost_guard_sums_each_rows_own_steps(toy_source, embedded_models, monkeypatch):
    # 2 x 2 x 16 x 99900 + 2 x 1 x 32 x 1e4 + 1e4 x 2 x 99900 = 2.005e9 is
    # over the 2e9 budget: each row counts its own steps, the one loop its
    # longest row's, and the tau = 0 row, which takes no step, costs none
    schedule = qf.AnnealSchedule
    models = (toy_source, embedded_models[1.0].model, toy_source, toy_source)
    schedules = (
        schedule(20.0, 99_900), schedule(20.0, 10_000),
        schedule(0.0, 10**12), schedule(5.0, 99_900),
    )
    forbid_integration(monkeypatch)
    with pytest.raises(ModelTooLargeError) as excinfo:
        qf.evolve_many(models, schedules, enforce_drift=False)
    assert str(excinfo.value) == (
        "integration needs 2.01e+09 amplitude-steps "
        "(2 x 2 rows x 16 amplitudes x 99900 steps + "
        "2 x 1 rows x 32 amplitudes x 10000 steps + "
        "10000 x 2 x 99900 steps x 1 loop substeps), "
        "over the budget of 2e+09"
    )


def test_cost_guard_counts_taylor_substeps(toy_source, toy_template, monkeypatch):
    # at J_F = 1e6, max|E| = 1000004: at tau = 1000 and 2000 steps each fine
    # exponential takes up to ceil(1000004 x 1000 / (2 x 2000 x 4)) = 62501
    # substeps, and each coarse one (1000 steps) up to 125001, and counting
    # steps alone let the run start and last hours
    strong = qf.apply_embedding(
        toy_source, toy_template.with_chain_strength(1e6)
    ).model
    forbid_integration(monkeypatch)
    with pytest.raises(ModelTooLargeError) as excinfo:
        qf.evolve(strong, qf.AnnealSchedule.for_tau(1000.0))
    assert str(excinfo.value) == (
        "integration needs 5.01e+12 amplitude-steps "
        "(2 x 1 rows x 32 amplitudes x 2000 steps x 62501 substeps + "
        "10000 x 2 x 2000 steps x 125001 loop substeps), "
        "over the budget of 2e+09"
    )
    # at tau = 1 (16 steps) the rows need 8e6, within the budget, but the
    # loop's up to 2 x 16 x 15626 substeps, at their fixed cost each, are not:
    # counting amplitudes alone let this run start and never finish
    with pytest.raises(ModelTooLargeError) as excinfo:
        qf.evolve(strong, qf.AnnealSchedule.for_tau(1.0))
    assert str(excinfo.value) == (
        "integration needs 5.01e+09 amplitude-steps "
        "(2 x 1 rows x 32 amplitudes x 16 steps x 7813 substeps + "
        "10000 x 2 x 16 steps x 15626 loop substeps), "
        "over the budget of 2e+09"
    )


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
    forbid_integration(monkeypatch)
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
        forms.append((len(kernel.active), kernel._views is None))
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
        spans.append((len(kernel.active), lo, hi))
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


# ------------------------------------------------ connected components


def _split_model(rng, sizes, fields):
    """A random model whose components have ``sizes`` spins, each a random
    spanning tree plus a few more couplings, over shuffled spin labels."""
    labels = rng.permutation(sum(sizes)).tolist()
    couplings = {}
    for start, size in zip(np.cumsum((0, *sizes[:-1])).tolist(), sizes):
        spins = labels[start : start + size]
        pairs = [(spins[int(rng.integers(0, k))], spins[k]) for k in range(1, size)]
        pairs += [tuple(rng.choice(spins, 2, replace=False)) for _ in range(size // 2)]
        for a, b in pairs:
            couplings[min(a, b), max(a, b)] = float(rng.normal())
    n = sum(sizes)
    values = tuple(float(h) for h in rng.normal(size=n)) if fields else ()
    return qf.IsingModel(n, tuple((i, j, J) for (i, j), J in sorted(couplings.items())), values)


@st.composite
def split_models(draw):
    """A model of 2-3 components of 1-4 spins, with or without fields."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _split_model(rng, sizes, draw(st.booleans()))


@settings(max_examples=30, deadline=None)
@given(split_models(), st.sampled_from((0.5, 3.0, 12.0)))
def test_split_models_agree_with_the_joint_run(model, tau):
    # the product of the components' runs against one integration of all
    # 2^N amplitudes, under the default step policy
    assert len(_components(model)) >= 2
    schedule = qf.AnnealSchedule.for_tau(tau)
    (got,) = qf.evolve_many((model,), schedule, enforce_drift=False)
    (joint,) = joint_full_space_evolve_many((model,), schedule)
    difference = got.final_probabilities.vector - joint.final_probabilities.vector
    assert np.abs(difference).max() <= 1e-12
    assert abs(got.error_estimate - joint.error_estimate) <= 1e-12
    assert abs(got.norm_squared - joint.norm_squared) <= 1e-12


def test_a_split_model_batches_bitwise_like_alone(toy_source, embedded_models):
    # 6 spins in components of 4 and 2, zero-field and fielded, beside
    # connected models of 6, 5 and 4 spins: each component row joins the
    # batch of its size, and every result is bitwise its own run's
    rng = np.random.default_rng(6)
    split = [_split_model(rng, (4, 2), fields) for fields in (False, True)]
    four = qf.IsingModel(4, ((0, 1, 1.0), (1, 2, -1.0), (2, 3, 0.5)), (0.25, 0, 0, 0))
    models = (split[0], embedded_models[1.0].model, toy_source, split[1], four)
    schedule = qf.AnnealSchedule.for_tau(3.0)
    batch = qf.evolve_many(models, schedule, enforce_drift=False)
    alone = [qf.evolve_many((m,), schedule, enforce_drift=False)[0] for m in models]
    assert [_result_bits(r) for r in batch] == [_result_bits(r) for r in alone]


def _recorded_kernels(monkeypatch) -> list[list[tuple[int, bool]]]:
    """The (spins, half) rows of every kernel allocated from now on."""
    module = importlib.import_module("qa_fairsample.evolve")
    kernels = []
    allocate = module._Kernel.allocate.__func__

    def recording_allocate(cls, spins, halves):
        kernels.append([(int(n), bool(half)) for n, half in zip(spins, halves)])
        return allocate(cls, spins, halves)

    monkeypatch.setattr(module._Kernel, "allocate", classmethod(recording_allocate))
    return kernels


def test_a_wide_split_model_allocates_only_its_components_kernels(monkeypatch):
    # 15 spins without fields in components of 10 and 5, shaped like the
    # perfbench wide-state instances: one kernel is allocated, over the fine
    # and coarse rows of both components, each on its half space, and no
    # 15-spin row; its loop makes two exponentials per step of the fine rows
    kernels = _recorded_kernels(monkeypatch)
    calls = count_calls(monkeypatch, "_exp_step")
    model = _split_model(np.random.default_rng(15), (10, 5), fields=False)
    assert sorted(map(len, _components(model))) == [5, 10]
    schedule = qf.AnnealSchedule.for_tau(2.0)
    result = qf.evolve(model, schedule)
    assert [sorted(kernel) for kernel in kernels] == [[(5, True)] * 2 + [(10, True)] * 2]
    assert len(calls) == 2 * schedule.steps
    assert result.final_probabilities.vector.size == 1 << 15


def test_split_groups_of_views_keep_loops_of_their_own(monkeypatch):
    # two zero-field 11-spin trees (4 half rows of 1,024 amplitudes: 45,056
    # gather elements, over the limit) and a 3-spin model: the 11-spin rows
    # run on a view kernel of their own, the 3-spin rows on a gather kernel
    rng = np.random.default_rng(22)
    models = [_split_model(rng, (11, 11), fields=False), FIXTURE_MODELS["triangle3"]]
    kernels = _recorded_kernels(monkeypatch)
    schedule = qf.AnnealSchedule(1.0, 2)
    batch = qf.evolve_many(models, schedule, enforce_drift=False)
    assert sorted(kernels) == [[(3, True)] * 2, [(11, True)] * 4]
    alone = [qf.evolve_many((m,), schedule, enforce_drift=False)[0] for m in models]
    assert [_result_bits(r) for r in batch] == [_result_bits(r) for r in alone]


def test_a_tau_sweep_of_the_bundled_models_runs_one_loop(
    monkeypatch, capsys, tmp_path, toy_source, toy_template
):
    # the source (5 spins) and its embeddings (6 spins) at every tau share
    # one kernel, whose loop makes two exponentials per step of the longest
    # row; reproduce fig2, at its 20 taus and three J_F, hands the fine and
    # coarse rows of its 80 models to one integration
    kernels = _recorded_kernels(monkeypatch)
    calls = count_calls(monkeypatch, "_exp_step")
    embeddings = [("e", toy_template.with_chain_strength(jf)) for jf in (0.5, 1.5)]
    qf.sweep_tau(toy_source, embeddings, [1.0, 3.0])
    assert [sorted(set(kernel)) for kernel in kernels] == [[(5, True), (6, True)]]
    assert len(calls) == 2 * qf.AnnealSchedule.for_tau(3.0).steps
    module = importlib.import_module("qa_fairsample.evolve")
    integrations = []

    def uniform_weights(tables, halves, schedules):
        integrations.append(len(schedules))
        sizes = [tables[r % len(tables)].size << halves[r % len(tables)]
                 for r in range(len(schedules))]
        return [np.full(size, 1.0 / size) for size in sizes]

    monkeypatch.setattr(module, "_cfm4_weights", uniform_weights)
    assert qf.cli.main(["reproduce", "fig2", "--out", str(tmp_path / "fig2.csv")]) == 0
    capsys.readouterr()
    assert integrations == [2 * 20 * 4]


def test_cost_guard_counts_component_rows(monkeypatch):
    # a zero-field component of 3 spins (4 kept amplitudes on the half
    # space) and a fielded one of 2 (4 amplitudes): two rows of 4, not one
    # of 2^5, sharing one loop: 2 x 4 x 100200 x 2 + 1e4 x 2 x 100200 =
    # 2.0056e9 amplitude-steps
    model = qf.IsingModel(
        5, ((0, 2, 1.0), (2, 4, -1.0), (1, 3, 0.5)), (0.0, 0.25, 0.0, 0.0, 0.0)
    )
    forbid_integration(monkeypatch)
    with pytest.raises(ModelTooLargeError) as excinfo:
        qf.evolve(model, qf.AnnealSchedule(tau=20.0, steps=100_200))
    assert str(excinfo.value) == (
        "integration needs 2.01e+09 amplitude-steps "
        "(2 x 1 rows x 4 amplitudes x 100200 steps + "
        "2 x 1 rows x 4 amplitudes x 100200 steps + "
        "10000 x 2 x 100200 steps x 1 loop substeps), "
        "over the budget of 2e+09"
    )
