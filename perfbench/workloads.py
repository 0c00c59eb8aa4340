"""The benchmark workloads: inputs from a seed, one operation, its checks.

Each workload writes its seeded inputs to a working directory (`inputs`),
loads them through the package (the constructor), and then runs operations
by index. An operation returns an Outcome: how many result rows
it attempted, how many completed and passed the output checks, its solve
time, and the reasons the other rows were refused or failed.

Untraced, the sweep workloads call the package's own `sweep_chain_strength`.
Traced, they compose the same public calls the sweep makes, one span each,
so the per-layer split can be read off; `trace.coverage` shows when that
composition has drifted from the sweep.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import instances
from qa_fairsample import cli
from qa_fairsample.analysis import (
    FairnessPartition,
    SweepRecord,
    default_partition,
    fairness_ratio,
    gap_ratio,
    project_and_fold,
    sweep_chain_strength,
    write_sweep_csv,
)
from qa_fairsample.data import toy_embedding_path, toy_source_path
from qa_fairsample.embed import apply_embedding, lift_state, load_embedding
from qa_fairsample.errors import FairSamplingError, IntegrationAccuracyError
from qa_fairsample.evolve import DRIFT_BUDGET, AnnealSchedule, evolve, evolve_many
from qa_fairsample.model import enumerate_ground_states, load_model
from qa_fairsample.pt import (
    PerturbationSetup,
    perturbative_probabilities,
    second_order_matrix,
)

FIG3_TAU = 1000.0


@dataclass
class Outcome:
    attempted: int
    ok: int = 0
    solve_s: float = 0.0
    refused: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    digest: str | None = None


def ledger_key(exc: BaseException) -> str:
    """Exception class and message with instance-specific values elided."""
    message = re.sub(r"SpinConfiguration\([01]+\)", "SpinConfiguration(...)", str(exc))
    message = re.sub(r"\d+(\.\d+)?e[-+]\d+", "<x>", message)
    return f"{type(exc).__name__}: {message}"


def settle(outcome: Outcome, exc: BaseException) -> Outcome:
    """Count every row of an operation that raised.

    Input errors the CLI maps to exit code 2 mean the package declined to
    answer the instance: those rows are refused. A drift-budget error or any
    other exception is a failure.
    """
    key = ledger_key(exc)
    refused = isinstance(exc, (ValueError, FairSamplingError)) and not isinstance(
        exc, IntegrationAccuracyError
    )
    (outcome.refused if refused else outcome.failed)[key] += outcome.attempted
    return outcome


def csv_bytes(records, path: Path, tracer) -> bytes:
    tracer.call("analysis", write_sweep_csv, records, path)
    return path.read_bytes()


def rewrite_problems(records, first: bytes, path: Path) -> list[str]:
    """Write the same rows again and compare: CSV output must be byte-identical."""
    write_sweep_csv(records, path)
    return checks.same_bytes(first, path.read_bytes())


def lift_partition(partition, embedding):
    """Logical S/C representatives mapped to physical ones, as the sweep does."""

    def lift_rep(config):
        lifted = lift_state(config, embedding)
        return min(lifted, lifted.inverted())

    return FairnessPartition(
        s_set=tuple(lift_rep(c) for c in partition.s_set),
        c_set=tuple(lift_rep(c) for c in partition.c_set),
    )


def fold(tracer, probabilities, embedding, manifold):
    tracer.count("embed.project_calls", len(probabilities))
    return tracer.call("analysis", project_and_fold, probabilities, embedding, manifold)


def enumerate_traced(tracer, model):
    tracer.count("model.enumerate_calls")
    tracer.count("model.configs_scanned", 1 << model.num_spins)
    return tracer.call("model", enumerate_ground_states, model)


def evolve_traced(tracer, fn, target, schedule, **kwargs):
    """`evolve_many` on a list of models or `evolve` on one; returns a list."""
    results = tracer.call("evolve", fn, target, schedule, **kwargs)
    results = results if isinstance(results, list) else [results]
    rows, dim = len(results), len(results[0].final_probabilities)
    tracer.count("evolve.calls")
    tracer.count("evolve.rows", rows)
    tracer.count("evolve.steps", schedule.steps)
    tracer.count("evolve.row_steps", rows * schedule.steps)
    tracer.count("evolve.amplitude_steps", rows * dim * schedule.steps)
    tracer.high("evolve.state_bytes", rows * dim * 16)
    tracer.high("evolve.max_norm_drift", max(r.norm_drift for r in results))
    return results


def composed_sweep(tracer, source, template, strengths, methods, tau=FIG3_TAU):
    """`sweep_chain_strength` rebuilt from its public calls, one span per call.

    Rows, their order and their values match the package's sweep; the traced
    CSV is compared with the untraced one to catch drift.
    """
    source_manifold = enumerate_traced(tracer, source)
    partition = tracer.call("analysis", default_partition, source_manifold)
    variants = []
    for jf in strengths:
        tracer.count("embed.apply_calls")
        embedding = template.with_chain_strength(jf)
        variants.append((jf, tracer.call("embed", apply_embedding, source, embedding)))

    se_results = {}
    if "SE" in methods:
        schedule = AnnealSchedule.for_tau(tau)
        batch = evolve_traced(
            tracer, evolve_many, [em.model for _, em in variants], schedule,
            enforce_drift=False,
        )
        se_results = dict(zip(strengths, batch))

    records = []
    for jf, em in variants:
        label = f"embedded[jf={jf:g}]"
        manifold = enumerate_traced(tracer, em.model)
        lifted = tracer.call("embed", lift_partition, partition, em.embedding)
        gap = tracer.call("analysis", gap_ratio, em.model, manifold, lifted).ratio
        if "PT" in methods:
            setup = PerturbationSetup(em.model, manifold)
            result = tracer.call("pt", perturbative_probabilities, setup)
            tracer.count("pt.calls")
            tracer.count("pt.manifold_dim_sum", manifold.degeneracy)
            if result.resolved_order == 2:
                tracer.count("pt.order2_calls")
                tracer.call("pt", second_order_matrix, setup, probe=True)
            folded, excited = fold(tracer, result.probabilities, em.embedding, source_manifold)
            ratio = tracer.call("analysis", fairness_ratio, folded, partition)
            records.append(
                SweepRecord(label, "jf", jf, "PT", folded, ratio, gap, excited, None)
            )
        if "SE" in methods:
            result = se_results[jf]
            folded, excited = fold(
                tracer, result.final_probabilities, em.embedding, source_manifold
            )
            if result.norm_drift > DRIFT_BUDGET:
                records.append(
                    SweepRecord(
                        label, "jf", jf, "SE", None, None, gap, None, result.norm_drift,
                        error=f"norm drift {result.norm_drift:.3e} exceeds the "
                        f"{DRIFT_BUDGET:.0e} budget",
                    )
                )
            else:
                ratio = tracer.call("analysis", fairness_ratio, folded, partition)
                records.append(
                    SweepRecord(
                        label, "jf", jf, "SE", folded, ratio, gap, excited,
                        result.norm_drift,
                    )
                )
    return records


def sweep(tracer, source, template, strengths, methods):
    if tracer.enabled:
        return composed_sweep(tracer, source, template, strengths, methods)
    return sweep_chain_strength(
        source, template, strengths, tau=FIG3_TAU, methods=methods
    )


def run_op(workload, index: int, tracer) -> Outcome:
    """Solve one operation, time it, and check what it produced.

    The solve time excludes the output checks and any probe calls the
    tracer made. A check that raises counts every row as failed.
    """
    out = Outcome(attempted=workload.rows(index))
    probe_before = tracer.probe_s
    start = time.perf_counter()
    try:
        records, written, extra = workload.solve(index, tracer)
    except Exception as exc:
        return settle(out, exc)
    finally:
        out.solve_s = time.perf_counter() - start - (tracer.probe_s - probe_before)
    out.digest = hashlib.sha256(written).hexdigest()
    try:
        again = workload.csv.with_suffix(".again.csv")
        if rewrite_problems(records, written, again):
            out.failed["check: CSV not byte-identical"] += out.attempted
        else:
            workload.check(index, records, extra, out)
    except Exception as exc:
        out.ok = 0
        out.failed.clear()
        out.failed[f"check raised {ledger_key(exc)}"] = out.attempted
    return out


class ChainSweep:
    name = "chain-sweep"
    why = (
        "fig3a on the bundled instance: PT + tau=1000 SE rows at seeded J_F in "
        "[0.1, 2]; evolve per-step overhead on 64-amplitude rows is >99% of the work"
    )
    size = 1
    warm_up = False

    @staticmethod
    def inputs(seed: int, workdir: Path):
        return instances.chain_sweep_strengths(seed)

    def __init__(self, strengths, workdir: Path):
        self.source = load_model(toy_source_path())
        self.template = load_embedding(toy_embedding_path(), chain_strength=1.0)
        self.strengths = strengths
        self.csv = workdir / "chain-sweep.csv"

    def rows(self, index: int) -> int:
        return 2 * len(self.strengths)

    def solve(self, index: int, tracer):
        records = sweep(tracer, self.source, self.template, self.strengths, ("PT", "SE"))
        return records, csv_bytes(records, self.csv, tracer), None

    def check(self, index, records, extra, out: Outcome):
        for pt_row, se_row in zip(records[::2], records[1::2]):
            if checks.pt_matches_se(pt_row, se_row) or checks.drift_within(se_row):
                out.failed["check: PT vs SE or drift"] += 2
            else:
                out.ok += 2


class WideState:
    name = "wide-state"
    why = (
        "seeded 14-spin zero-field instance, one 2-spin chain (N=15), short-tau "
        "anneal then fold: 2^15-amplitude kernel and 2^N dicts, not per-step overhead"
    )
    size = 1
    # The first anneal in a process page-faults on its 512 KB temporaries
    # (~730k minor faults, ~15% slower) until the allocator keeps them; runs
    # make one unmeasured operation first so the count of operations that
    # fit in a run does not change the rate.
    warm_up = True

    @staticmethod
    def inputs(seed: int, workdir: Path):
        return instances.write_instance(instances.wide_state_instance(seed), workdir)

    def __init__(self, paths, workdir: Path):
        model_path, embedding_path = paths
        self.source = load_model(model_path)
        self.embedding = load_embedding(embedding_path)
        self.schedule = AnnealSchedule.for_tau(instances.WIDE_TAU)
        self.csv = workdir / "wide-state.csv"

    def rows(self, index: int) -> int:
        return 1

    def solve(self, index: int, tracer):
        """What `qa-fairsample anneal --embedding` does, call by call."""
        manifold = enumerate_traced(tracer, self.source)
        partition = tracer.call("analysis", default_partition, manifold)
        tracer.count("embed.apply_calls")
        em = tracer.call("embed", apply_embedding, self.source, self.embedding)
        (result,) = evolve_traced(tracer, evolve, em.model, self.schedule)
        folded, excited = fold(tracer, result.final_probabilities, self.embedding, manifold)
        ratio = tracer.call("analysis", fairness_ratio, folded, partition)
        record = SweepRecord(
            f"embedded[jf={self.embedding.chain_strength:g}]", "tau", self.schedule.tau,
            "SE", folded, ratio, None, excited, result.norm_drift,
        )
        return [record], csv_bytes([record], self.csv, tracer), result

    def check(self, index, records, result, out: Outcome):
        (record,) = records
        problems = checks.inversion_symmetric(result.final_probabilities) + checks.sums_to_one(
            record.folded, record.excited_weight, checks.FOLD_SUM_TOL
        )
        if problems:
            out.failed[f"check: {problems[0]}"] += 1
        else:
            out.ok = 1


class PtEnsemble:
    name = "pt-ensemble"
    why = (
        "seeded 12-spin +-1 instances with one chain, PT sweep over 8 J_F plus one "
        "`pt` CLI call each: pt/analysis/model/embed/cli under load, evolve idle"
    )
    warm_up = False

    @staticmethod
    def inputs(seed: int, workdir: Path, count: int = instances.PT_INSTANCES):
        return [
            (instance, instances.write_instance(instance, workdir))
            for instance in instances.pt_ensemble(seed, count)
        ]

    def __init__(self, written, workdir: Path):
        self.members = [
            (instance, paths, load_model(paths[0]),
             load_embedding(paths[1], chain_strength=1.0))
            for instance, paths in written
        ]
        self.csv = workdir / "pt-ensemble.csv"
        self.size = len(self.members)

    def rows(self, index: int) -> int:
        """One per PT row of the sweep, plus the CLI answer."""
        return len(self.members[index][0].chain_strengths) + 1

    def solve(self, index: int, tracer):
        """The PT sweep, its CSV, then the `pt` command; a refused sweep
        re-raises after the command has run, so both are always timed."""
        instance, (model_path, embedding_path), source, template = self.members[index]
        try:
            records = sweep(tracer, source, template, instance.chain_strengths, ("PT",))
            written = csv_bytes(records, self.csv, tracer)
        except Exception as exc:
            records = exc
        argv = ["pt", str(model_path), "--embedding", str(embedding_path),
                "--jf", repr(instance.cli_jf)]
        cli_answer = self._cli(tracer, argv)
        if isinstance(records, Exception):
            raise records
        return records, written, cli_answer

    def check(self, index, records, cli_answer, out: Outcome):
        for record in records:
            if checks.sums_to_one(record.folded, record.excited_weight, checks.PT_SUM_TOL):
                out.failed["check: PT folded + excited != 1"] += 1
            else:
                out.ok += 1
        code, stdout = cli_answer
        cli_jf = self.members[index][0].cli_jf
        (match,) = [r for r in records if r.value == cli_jf]
        if code != 0:
            out.failed[f"check: cli pt exit {code}"] += 1
        elif checks.cli_agrees(json.loads(stdout), match):
            out.failed["check: cli pt disagrees with the API"] += 1
        else:
            out.ok += 1

    @staticmethod
    def _cli(tracer, argv) -> tuple[int | str, str]:
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = tracer.call("cli", cli.main, argv)
        except Exception as exc:
            code = ledger_key(exc)
        tracer.count("cli.calls")
        tracer.count("cli.exit_nonzero", code != 0)
        return code, stdout.getvalue()


WORKLOADS = {w.name: w for w in (ChainSweep, WideState, PtEnsemble)}
