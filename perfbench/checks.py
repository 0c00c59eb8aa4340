"""Output checks. Each returns a list of problems; an empty list passes.

Tolerances are the package's fixed acceptance bounds; a faster method must
meet them, so no check here is loosened to fit one.
"""

from __future__ import annotations

import math

PT_SE_TOL = 0.01  # acceptance criterion 3: PT vs tau = 1000 dynamics
DRIFT_TOL = 1e-6  # the package's RK4 drift budget
SYMMETRY_TOL = 1e-8  # zero-field inversion symmetry of the final state
FOLD_SUM_TOL = 1e-12  # folded + excited from one measurement distribution
PT_SUM_TOL = 1e-9  # folded + excited from a PT eigenvector
CLI_TOL = 1e-12  # CLI JSON against the API answer


def pt_matches_se(pt_record, se_record, tol=PT_SE_TOL) -> list[str]:
    if se_record.folded is None:
        return [f"{se_record.model}: SE row has no probabilities ({se_record.error})"]
    problems = []
    for rep in sorted(set(pt_record.folded) | set(se_record.folded)):
        diff = abs(pt_record.folded.get(rep, 0.0) - se_record.folded.get(rep, 0.0))
        if not diff <= tol:
            problems.append(f"{pt_record.model}: |PT - SE| = {diff:.3g} at {rep}")
    return problems


def drift_within(record, budget=DRIFT_TOL) -> list[str]:
    if record.norm_drift is None or not record.norm_drift <= budget:
        return [f"{record.model}: norm drift {record.norm_drift} over {budget:g}"]
    return []


def inversion_symmetric(probabilities, tol=SYMMETRY_TOL) -> list[str]:
    """|p(c) - p(not c)| <= tol for every configuration."""
    for config, p in probabilities.items():
        diff = abs(p - probabilities[config.inverted()])
        if not diff <= tol:
            return [f"inversion asymmetry {diff:.3g} at {config}"]
    return []


def sums_to_one(folded, excited, tol) -> list[str]:
    total = math.fsum(folded.values()) + excited
    if not abs(total - 1.0) <= tol:
        return [f"folded + excited = {total!r}, off by {abs(total - 1.0):.3g}"]
    return []


def cli_agrees(payload: dict, record, tol=CLI_TOL) -> list[str]:
    """The `pt` command's JSON against the sweep row for the same J_F."""
    api = {rep.to_bitstring(): p for rep, p in record.folded.items()}
    cli = payload.get("folded", {})
    problems = []
    if set(api) != set(cli):
        problems.append(f"{record.model}: CLI classes {sorted(cli)} != API {sorted(api)}")
    for key in sorted(set(api) & set(cli)):
        if not abs(api[key] - cli[key]) <= tol:
            problems.append(f"{record.model}: CLI P[{key}] {cli[key]!r} != {api[key]!r}")
    ratio = payload.get("ratio_PS_PC")
    if not isinstance(ratio, (int, float)) or not (
        ratio == record.ratio or math.isclose(ratio, record.ratio, abs_tol=tol)
    ):
        problems.append(f"{record.model}: CLI ratio {ratio!r} != {record.ratio!r}")
    return problems


def same_bytes(first: bytes, second: bytes) -> list[str]:
    if first != second:
        return ["CSV bytes differ between two writes of the same rows"]
    return []
