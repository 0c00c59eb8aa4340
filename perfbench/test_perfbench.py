"""Self-tests of the benchmark: seeded inputs, checks that reject bad output,
and a traced composition that matches the package's sweep.

Run from the checkout root with `python3 -m pytest -q perfbench`.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import instances  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from qa_fairsample import (  # noqa: E402
    IntegrationAccuracyError,
    SpinConfiguration,
    enumerate_ground_states,
    inversion_classes,
    sweep_chain_strength,
    write_sweep_csv,
)
from qa_fairsample.model import model_from_dict  # noqa: E402


def build(workload_cls, seed, workdir, **kwargs):
    """Write a workload's seeded inputs to `workdir` and load them."""
    return workload_cls(workload_cls.inputs(seed, workdir, **kwargs), workdir)


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    assert instances.chain_sweep_strengths(3) == instances.chain_sweep_strengths(3)
    assert instances.chain_sweep_strengths(3) != instances.chain_sweep_strengths(4)
    assert instances.wide_state_instance(3) == instances.wide_state_instance(3)
    assert instances.wide_state_instance(3) != instances.wide_state_instance(4)
    assert instances.pt_ensemble(3, 20) == instances.pt_ensemble(3, 20)
    assert instances.pt_ensemble(3, 20) != instances.pt_ensemble(4, 20)


def test_instance_families_have_the_stated_shape():
    lo, hi = instances.CHAIN_SWEEP_JF_RANGE
    strengths = instances.chain_sweep_strengths(0)
    assert len(strengths) == instances.CHAIN_SWEEP_BATCH
    assert all(lo <= jf <= hi for jf in strengths)

    wide = instances.wide_state_instance(0)
    assert wide.model["num_spins"] == instances.WIDE_LOGICAL
    assert "fields" not in wide.model
    assert sum(len(c) for c in wide.embedding["chains"]) == instances.WIDE_LOGICAL + 1

    for member in instances.pt_ensemble(0, 10):
        assert member.model["num_spins"] == instances.PT_LOGICAL
        assert all(abs(J) == 1.0 for _, _, J in member.model["couplings"])
        assert all(0.0 < jf <= 2.0 for jf in member.chain_strengths)
        assert member.cli_jf in member.chain_strengths
        assert member.embedding["chain_strength"] is None


@pytest.mark.parametrize("seed", range(5))
def test_wide_state_always_has_a_partition(seed):
    """Two components give at least two inversion classes by construction."""
    model = model_from_dict(instances.wide_state_instance(seed).model)
    assert len(inversion_classes(enumerate_ground_states(model))) >= 2


def _moved(mapping, delta=0.02):
    first = next(iter(mapping))
    return {**mapping, first: mapping[first] + delta}


@pytest.fixture(scope="module")
def pt_rows(tmp_path_factory):
    """Real PT rows and CLI output from ensemble members the package answers."""
    ensemble = build(workloads.PtEnsemble, 0, tmp_path_factory.mktemp("pt"), count=40)
    answered = []
    for index in range(ensemble.size):
        instance, (model_path, emb_path), source, template = ensemble.members[index]
        try:
            records = sweep_chain_strength(
                source, template, instance.chain_strengths, methods=("PT",)
            )
        except ValueError:
            continue
        argv = ["pt", str(model_path), "--embedding", str(emb_path),
                "--jf", repr(instance.cli_jf)]
        code, stdout = ensemble._cli(NullTracer(), argv)
        match = next(r for r in records if r.value == instance.cli_jf)
        answered.append((records, code, stdout, match))
    assert answered, "no ensemble member was answered"
    return answered


def test_pt_ensemble_checks_pass_and_reject_perturbations(pt_rows):
    records, code, stdout, match = pt_rows[0]
    for r in records:
        assert checks.sums_to_one(r.folded, r.excited_weight, checks.PT_SUM_TOL) == []
    payload = json.loads(stdout)
    assert code == 0 and checks.cli_agrees(payload, match) == []

    assert checks.sums_to_one(_moved(match.folded), match.excited_weight, checks.PT_SUM_TOL)
    assert checks.cli_agrees({**payload, "folded": _moved(payload["folded"])}, match)
    assert checks.cli_agrees({**payload, "ratio_PS_PC": match.ratio + 0.02}, match)


def test_chain_sweep_checks_reject_perturbations(pt_rows):
    pt = pt_rows[0][0][0]
    se = dataclasses.replace(pt, method="SE", norm_drift=1e-9)
    assert checks.pt_matches_se(pt, se) == [] and checks.drift_within(se) == []
    assert checks.pt_matches_se(pt, dataclasses.replace(se, folded=_moved(se.folded)))
    assert checks.drift_within(dataclasses.replace(se, norm_drift=2e-6))
    failed = dataclasses.replace(se, folded=None, error="norm drift")
    assert checks.pt_matches_se(pt, failed)


def test_wide_state_checks_reject_perturbations():
    probs = {SpinConfiguration(b, 3): 0.125 for b in range(8)}
    assert checks.inversion_symmetric(probs) == []
    assert checks.inversion_symmetric(_moved(probs))
    folded = {SpinConfiguration(0, 3): 0.25, SpinConfiguration(1, 3): 0.25}
    assert checks.sums_to_one(folded, 0.5, checks.FOLD_SUM_TOL) == []
    assert checks.sums_to_one(_moved(folded), 0.5, checks.FOLD_SUM_TOL)


def test_csv_check_rejects_one_changed_byte(pt_rows, tmp_path):
    records = pt_rows[0][0]
    path = tmp_path / "rows.csv"
    write_sweep_csv(records, path)
    first = path.read_bytes()
    assert workloads.rewrite_problems(records, first, tmp_path / "again.csv") == []
    changed = bytearray(first)
    changed[len(changed) // 2] ^= 1
    assert checks.same_bytes(bytes(changed), first)


def test_composed_sweep_matches_the_package_sweep():
    """The traced composition gives the package's rows, SE included (short tau)."""
    chain = build(workloads.ChainSweep, 0, Path("."))
    args = (chain.source, chain.template, chain.strengths)
    expected = sweep_chain_strength(*args, tau=2.0, methods=("PT", "SE"))
    tracer = Tracer()
    got = workloads.composed_sweep(tracer, *args, ("PT", "SE"), tau=2.0)
    assert got == expected
    assert tracer.counters["evolve.calls"] == 1
    assert all(s.layer in {"model", "embed", "evolve", "pt", "analysis"} for s in tracer.spans)


def test_outcomes_count_refusals_apart_from_failures():
    out = workloads.settle(workloads.Outcome(attempted=9), ValueError("no x at SpinConfiguration(0101)"))
    assert out.refused == {"ValueError: no x at SpinConfiguration(...)": 9} and not out.failed
    out = workloads.settle(workloads.Outcome(attempted=1), IntegrationAccuracyError("drift 1.5e-06"))
    assert out.failed == {"IntegrationAccuracyError: drift <x>": 1} and not out.refused


def test_run_op_counts_rows_of_a_pt_ensemble_pass(tmp_path):
    ensemble = build(workloads.PtEnsemble, 1, tmp_path, count=30)
    outcomes = [workloads.run_op(ensemble, i, NullTracer()) for i in range(ensemble.size)]
    assert sum(o.attempted for o in outcomes) == sum(ensemble.rows(i) for i in range(30))
    assert not any(o.failed for o in outcomes)
    assert all(o.ok + sum(o.refused.values()) == o.attempted for o in outcomes)
    assert any(o.ok for o in outcomes) and any(o.refused for o in outcomes)


class _Broken:
    """A workload whose output fails its check, or whose check raises."""

    def __init__(self, tmp_path, check):
        self.csv = tmp_path / "broken.csv"
        self.check = check

    def rows(self, index):
        return 3

    def solve(self, index, tracer):
        write_sweep_csv([], self.csv)
        return [], self.csv.read_bytes(), None


def test_run_op_fails_rows_whose_check_rejects_or_raises(tmp_path):
    def reject(index, records, extra, out):
        out.failed["check: moved by 0.02"] += 3

    out = workloads.run_op(_Broken(tmp_path, reject), 0, NullTracer())
    assert out.ok == 0 and out.failed == {"check: moved by 0.02": 3}

    def raises(index, records, extra, out):
        out.ok += 1
        raise TypeError("bad payload")

    out = workloads.run_op(_Broken(tmp_path, raises), 0, NullTracer())
    assert out.ok == 0 and out.failed == {"check raised TypeError: bad payload": 3}
