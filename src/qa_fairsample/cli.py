"""Command-line interface.

Subcommands: solve, anneal, embed, pt, validate, reproduce. Exit codes:
0 success, 2 input error, 3 validation failure, 4 numerical-accuracy failure.
All output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    FairnessPartition,
    fairness_ratio,
    project_and_fold,
    sweep_chain_strength,
    sweep_tau,
    write_sweep_csv,
)
from .data import resolve_embedding_path, resolve_model_path
from .embed import (
    Embedding,
    apply_embedding,
    identity_embedding,
    lift_state,
    load_embedding,
    verify_embedding,
)
from .errors import FairSamplingError, IntegrationAccuracyError
from .evolve import AnnealSchedule, evolve
from .model import GroundManifold, IsingModel, enumerate_ground_states, load_model
from .pt import (
    STANDARD_CHAIN_STRENGTHS,
    PerturbationSetup,
    first_order_matrix,
    perturbative_probabilities,
    second_order_matrix,
    validate_toy_model,
)


def fig2_tau_grid() -> list[float]:
    """20 logarithmic annealing times spanning [1, 1000]."""
    return [float(t) for t in np.geomspace(1.0, 1000.0, 20)]


def fig3_chain_grid() -> list[float]:
    """40 uniform chain strengths spanning (0, 2]."""
    return [k / 20.0 for k in range(1, 41)]


def _partition(args, manifold: GroundManifold) -> FairnessPartition:
    s_indices = tuple(args.s_set) if args.s_set else (0,)
    return FairnessPartition.from_class_indices(manifold, s_indices)


def _target(args, source: IsingModel) -> tuple[IsingModel, Embedding]:
    """The model to run and the embedding that maps it back onto the source."""
    if not args.embedding:
        if args.jf is not None:
            raise ValueError("--jf needs --embedding: it sets the chain strength")
        return source, identity_embedding(source)
    embedding = load_embedding(
        resolve_embedding_path(args.embedding), chain_strength=args.jf
    )
    return apply_embedding(source, embedding).model, embedding


def _by_bitstring(configs, values) -> dict[str, float]:
    """JSON object of ``values[k]`` keyed by the bit string of ``configs[k]``."""
    return dict(zip((c.to_bitstring() for c in configs), values.tolist()))


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_solve(args) -> int:
    model = load_model(resolve_model_path(args.model))
    manifold = enumerate_ground_states(model)
    print(f"E_0 = {manifold.energy:g}")
    print(f"degeneracy = {manifold.degeneracy}")
    for config in manifold.configs:
        print(f"  {config.to_arrows()}  {config.to_bitstring()}  bits={config.bits}")
    return 0


def cmd_anneal(args) -> int:
    source = load_model(resolve_model_path(args.model))
    source_manifold = enumerate_ground_states(source)
    partition = _partition(args, source_manifold)
    target, embedding = _target(args, source)

    schedule = AnnealSchedule.for_tau(args.tau, args.steps)
    result = evolve(target, schedule)

    probs = result.final_probabilities
    folded, excited = project_and_fold(probs, embedding, source_manifold)
    ground = source_manifold.configs
    lifts = [lift_state(c, embedding).bits for c in ground]
    per_config = _by_bitstring(ground, probs.vector[lifts])

    _print_json(
        {
            "tau": result.tau,
            "steps": result.steps,
            "norm_drift": result.norm_drift,
            "error_estimate": result.error_estimate,
            "norm_squared": result.norm_squared,
            "probabilities": per_config,
            "folded": {c.to_bitstring(): p for c, p in folded.items()},
            "excited_weight": excited,
            "ratio_PS_PC": fairness_ratio(folded, partition),
        }
    )
    return 0


def cmd_embed(args) -> int:
    source = load_model(resolve_model_path(args.model))
    embedding = load_embedding(
        resolve_embedding_path(args.embedding), chain_strength=args.jf
    )
    embedded = apply_embedding(source, embedding)
    report = verify_embedding(embedded)
    _print_json({"model": embedded.model.to_dict(), "report": report.to_dict()})
    return 0


def cmd_pt(args) -> int:
    source = load_model(resolve_model_path(args.model))
    source_manifold = enumerate_ground_states(source)
    partition = _partition(args, source_manifold)
    target, embedding = _target(args, source)

    setup = PerturbationSetup.from_model(target)
    result = perturbative_probabilities(setup)
    folded, _ = project_and_fold(result.probabilities, embedding, source_manifold)

    payload = {
        "resolved_order": result.resolved_order,
        "minimal_eigenvalue": result.minimal_eigenvalue,
        "multiplicity": result.multiplicity,
        "resolved": result.resolved,
        "probabilities": _by_bitstring(
            setup.manifold.configs, result.probabilities.vector[setup.manifold.bits]
        ),
        "folded": {c.to_bitstring(): p for c, p in folded.items()},
        "ratio_PS_PC": fairness_ratio(folded, partition),
    }
    if args.dump_matrix:
        basis = [c.to_bitstring() for c in setup.manifold.configs]
        for key, matrix in (
            ("first_order", first_order_matrix),
            ("second_order", second_order_matrix),
        ):
            payload[key] = {"basis": basis, "entries": matrix(setup).tolist()}
    _print_json(payload)
    return 0


def cmd_validate(args) -> int:
    report = validate_toy_model(
        resolve_model_path(args.source), resolve_embedding_path(args.embedded)
    )
    for clause in report.clauses:
        status = "PASS" if clause.passed else "FAIL"
        print(f"{status}  {clause.name}: {clause.detail}")
    return 0 if report.passed else 3


def cmd_reproduce(args) -> int:
    if not Path(args.out).parent.is_dir():
        raise ValueError(f"cannot write --out {args.out}: its directory does not exist")
    source_path = resolve_model_path(args.source)
    embedded_path = resolve_embedding_path(args.embedded)
    report = validate_toy_model(source_path, embedded_path)
    if not report.passed:
        for clause in report.failures():
            print(f"FAIL  {clause.name}: {clause.detail}", file=sys.stderr)
        return 3

    source = load_model(source_path)
    template = load_embedding(embedded_path, chain_strength=1.0)
    if args.figure == "fig2":
        embeddings = [
            (f"embedded[jf={jf:g}]", template.with_chain_strength(jf))
            for jf in STANDARD_CHAIN_STRENGTHS
        ]
        records = sweep_tau(source, embeddings, fig2_tau_grid(), steps=args.steps)
    elif args.figure == "fig3a":
        records = sweep_chain_strength(
            source,
            template,
            fig3_chain_grid(),
            tau=1000.0,
            steps=args.steps,
            methods=("PT", "SE"),
        )
    else:
        records = sweep_chain_strength(
            source, template, fig3_chain_grid(), methods=("PT",)
        )
    write_sweep_csv(records, args.out)
    print(f"wrote {args.out} ({len(records)} rows)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared.

    Parsing leaves no state in it, so one parser serves every ``main`` call
    of a process.
    """
    parser = argparse.ArgumentParser(
        prog="qa-fairsample",
        description=(
            "Quantify how minor-embedding chains distort fair sampling of "
            "degenerate Ising ground states under simulated quantum annealing."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="enumerate the exact ground states of a model")
    p.add_argument("model", help="model JSON path or bundled name (matsuda5)")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("anneal", help="integrate the annealing dynamics")
    p.add_argument("model")
    p.add_argument("--tau", type=float, required=True, help="total annealing time")
    p.add_argument("--steps", type=int, default=None,
                   help="CFM4 steps over [0, tau] (default: "
                        "max(50, min(ceil(5*tau), 2000), ceil(2*tau))); "
                        "a run at half as many steps gives the error estimate")
    p.add_argument("--embedding", default=None, help="apply this embedding first")
    p.add_argument("--jf", type=float, default=None,
                   help="chain strength of --embedding")
    p.add_argument("--s-set", type=int, nargs="+", default=None,
                   help="class indices forming the S set (default: 0); "
                        "C is every other class")
    p.set_defaults(handler=cmd_anneal)

    p = sub.add_parser("embed", help="apply an embedding and verify it")
    p.add_argument("model")
    p.add_argument("embedding")
    p.add_argument("--jf", type=float, default=None)
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("pt", help="perturbative sampling probabilities")
    p.add_argument("model")
    p.add_argument("--embedding", default=None)
    p.add_argument("--jf", type=float, default=None)
    p.add_argument("--s-set", type=int, nargs="+", default=None)
    p.add_argument("--dump-matrix", action="store_true",
                   help="include the effective matrices in the JSON output")
    p.set_defaults(handler=cmd_pt)

    p = sub.add_parser("validate", help="check the bundled data files clause by clause")
    p.add_argument("--source", default="matsuda5")
    p.add_argument("--embedded", default="matsuda5_embedded")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("reproduce", help="run a bundled experiment preset to CSV")
    p.add_argument("figure", choices=("fig2", "fig3a", "fig3b"))
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--steps", type=int, default=None,
                   help="CFM4 steps per SE row (default: the anneal step policy)")
    p.add_argument("--source", default="matsuda5")
    p.add_argument("--embedded", default="matsuda5_embedded")
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Exit codes: 0 success, 2 input error, 3 validation failure, 4
    numerical-accuracy failure. A malformed command line raises SystemExit(2)
    from argparse. The parser is built on the first call and reused, so a
    process that calls ``main`` repeatedly pays for it once.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except IntegrationAccuracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (OSError, ValueError, FairSamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
