"""Benchmark of qa-fairsample: seeded workloads, output checks, metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-sweep --seed 1 --seconds 15 --trace 0

The untraced run (--trace 0) sets the workload up several times and reports
the median set-up time, then repeats passes over the workload's operations
until --seconds have passed (at least one pass) and reports the end-to-end
metrics. The traced run (--trace 1) runs each operation of one pass
untraced and then with a span around every call into the package, and
reports the per-layer metrics. The last line of standard output is one JSON
object; the lines before it are the environment record, the metrics and the
ledger of refused and failed rows. The full result, and the spans of a
traced run, go to .bench_out/ under the checkout root. perfbench/README.md
defines the workloads and metrics.

The process runs single-threaded: the BLAS thread pools are pinned to one
thread before numpy loads. Exit code 2 means the package sources were not
found next to the benchmark; no result is printed then.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("QA_FAIRSAMPLE_THREADS", None)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 11
SETUP_BUDGET_S = 3.0

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import numpy, qa_fairsample\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds() -> float:
    """Import time of numpy and the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "caches": cache_sizes(),
        "machine": platform.machine(),
        "note": "every state vector here fits in L3: evolve.state_bytes is a "
        "computed size, not a measured bandwidth",
    }


def set_up(workload_cls, seed: int, repeats: int, budget_s: float):
    """Build the workload at least `repeats` times, more within `budget_s`.

    Returns the last build, the working directories of all builds and one
    set-up time per build: import in a fresh interpreter plus loading the
    inputs through the package. Generating and writing the input files is
    the benchmark's own work and is not timed; creating the same 3000 small
    files took anywhere from 0.3 s to 2 s on a shared disk.
    """
    samples, workdirs = [], []
    began = time.perf_counter()
    while len(samples) < repeats or (
        time.perf_counter() - began < budget_s and len(samples) < SETUP_MAX_REPEATS
    ):
        workdir = OUT / f"work-{workload_cls.name}-{seed}-{os.getpid()}-{len(samples)}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        workdirs.append(workdir)
        inputs = workload_cls.inputs(seed, workdir)
        imported = import_seconds()
        start = time.perf_counter()
        workload = workload_cls(inputs, workdir)
        samples.append(imported + time.perf_counter() - start)
    return workload, workdirs, samples


def totals(outcomes) -> dict:
    refused, failed = Counter(), Counter()
    for o in outcomes:
        refused.update(o.refused)
        failed.update(o.failed)
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "ok": sum(o.ok for o in outcomes),
        "solve_s": sum(o.solve_s for o in outcomes),
        "refused": refused,
        "failed": failed,
    }


def end_to_end(workload, seconds: float, setup_samples) -> tuple[dict, dict]:
    """Passes over the operations until `seconds` have gone, at least one pass.

    `ok_frac` is taken over the first pass, so it is a property of the seed's
    inputs and not of how many operations a second pass reached.
    """
    from workloads import run_op

    tracer = NullTracer()
    if workload.warm_up:
        run_op(workload, 0, tracer)
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < workload.size or time.perf_counter() - start < seconds:
        outcomes.append(run_op(workload, len(outcomes) % workload.size, tracer))
    t = totals(outcomes)
    first_pass = totals(outcomes[: workload.size])
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "rows_per_s": (t["ok"] / t["solve_s"], "rows/s"),
        "ok_frac": (first_pass["ok"] / first_pass["attempted"], "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return metrics, t


def per_layer(workload) -> tuple[dict, dict, list]:
    """Each operation untraced and then traced; metrics from the spans.

    As in the untraced run, a workload whose first operation pays a one-off
    cost (see its warm_up) runs operation 0 once, unmeasured, beforehand.
    The energy-table cache is cleared before each run of an operation so
    both start from the state a fresh instance meets, and the traced run
    does not reuse tables the untraced one computed.
    """
    from qa_fairsample.model import energy_table
    from workloads import run_op

    if workload.warm_up:
        run_op(workload, 0, NullTracer())
    tracer = Tracer()
    plain, traced = [], []
    hits = lookups = 0
    for i in range(workload.size):
        energy_table.cache_clear()
        plain.append(run_op(workload, i, NullTracer()))
        energy_table.cache_clear()
        tracer.row = f"{workload.name}#{i}"
        traced.append(run_op(workload, i, tracer))
        info = energy_table.cache_info()
        hits += info.hits
        lookups += info.hits + info.misses

    p, t = totals(plain), totals(traced)
    self_s = tracer.self_times()
    c = tracer.counters
    metrics = {
        "evolve.self_s": (self_s["evolve"], "s"),
        "evolve.calls": (c["evolve.calls"], "count"),
        "evolve.rows": (c["evolve.rows"], "count"),
        "evolve.steps": (c["evolve.steps"], "count"),
        "evolve.us_per_row_step": (
            1e6 * self_s["evolve"] / c["evolve.row_steps"] if c["evolve.row_steps"] else 0.0,
            "us",
        ),
        "evolve.amplitude_steps": (c["evolve.amplitude_steps"], "count"),
        "evolve.state_bytes": (c["evolve.state_bytes"], "B"),
        "evolve.max_norm_drift": (c["evolve.max_norm_drift"], "1"),
        "model.self_s": (self_s["model"], "s"),
        "model.enumerate_calls": (c["model.enumerate_calls"], "count"),
        "model.configs_scanned": (c["model.configs_scanned"], "count"),
        "model.energy_table_hit_ratio": (hits / lookups if lookups else 0.0, "1"),
        "embed.self_s": (self_s["embed"], "s"),
        "embed.apply_calls": (c["embed.apply_calls"], "count"),
        "embed.project_calls": (c["embed.project_calls"], "count"),
        "pt.self_s": (self_s["pt"], "s"),
        "pt.calls": (c["pt.calls"], "count"),
        "pt.second_order_s": (tracer.time_in("pt.second_order_matrix"), "s"),
        "pt.manifold_dim_sum": (c["pt.manifold_dim_sum"], "count"),
        "pt.order2_frac": (
            c["pt.order2_calls"] / c["pt.calls"] if c["pt.calls"] else 0.0, "1"
        ),
        "analysis.self_s": (self_s["analysis"], "s"),
        "analysis.gap_ratio_s": (tracer.time_in("analysis.gap_ratio"), "s"),
        "analysis.fold_s": (tracer.time_in("analysis.project_and_fold"), "s"),
        "analysis.csv_s": (tracer.time_in("analysis.write_sweep_csv"), "s"),
        "analysis.rows_ok": (t["ok"], "count"),
        "analysis.rows_failed": (t["attempted"] - t["ok"], "count"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.calls": (c["cli.calls"], "count"),
        "cli.exit_nonzero": (c["cli.exit_nonzero"], "count"),
        "trace.overhead_frac": (t["solve_s"] / p["solve_s"] - 1.0, "1"),
        "trace.coverage": (sum(self_s.values()) / p["solve_s"], "1"),
        "trace.csv_mismatch": (
            sum(a.digest != b.digest for a, b in zip(plain, traced)), "count"
        ),
    }
    both = totals(plain + traced)
    return metrics, both, tracer.records()


def report(args, env, metrics, t, spans) -> dict:
    failed = sum(t["failed"].values())
    result = {
        "correct": failed == 0,
        "attempted": t["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, environment=env, rows_ok=t["ok"],
                  refused=dict(t["refused"]), failed_rows=dict(t["failed"]))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    refused = sum(t["refused"].values())
    print(f"rows: {t['attempted']} attempted, {t['ok']} ok, {refused} refused, "
          f"{failed} failed; failed_frac = {(refused + failed) / t['attempted']:.6g}")
    for kind in ("refused", "failed"):
        for key, count in t[kind].most_common():
            print(f"  {kind} {count:6d}  {key}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "qa_fairsample"
    if not (package / "__init__.py").is_file():
        print(f"error: package sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qa_fairsample

    if Path(qa_fairsample.__file__).resolve().parent != package.resolve():
        print(f"error: imported qa_fairsample from {qa_fairsample.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = environment()
    repeats = 1 if args.trace else SETUP_REPEATS
    budget = 0.0 if args.trace else SETUP_BUDGET_S
    workload, workdirs, samples = set_up(WORKLOADS[args.workload], args.seed, repeats, budget)
    try:
        if args.trace:
            metrics, t, spans = per_layer(workload)
        else:
            metrics, t = end_to_end(workload, args.seconds, samples)
            spans = []
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
    result = report(args, env, metrics, t, spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
