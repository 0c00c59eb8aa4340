"""Fairness metrics, gap-ratio analysis, and parameter sweeps.

Folded probabilities merge each configuration with its global spin inversion;
the fairness ratio compares the mean folded probability of a suppressed set S
against a connected set C, so perfectly fair sampling gives exactly 1.
Sweeps emit one record per (model, parameter value, method), each built by
one function that folds the row's probabilities onto the source classes,
and can be serialized to CSV with a fixed column order.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .embed import (
    Embedding,
    _lift_bits,
    _lift_manifold,
    apply_embedding,
    identity_embedding,
)
from .errors import UndefinedRatioError
from .evolve import AnnealSchedule, EvolutionResult, accuracy_failure, evolve_many
from .model import (
    GroundManifold,
    IsingModel,
    ProbabilityVector,
    SpinConfiguration,
    _integer,
    enumerate_ground_states,
)
from .pt import PerturbationSetup, perturbative_probabilities, second_order_links


def inversion_classes(
    manifold: GroundManifold,
) -> tuple[tuple[SpinConfiguration, ...], ...]:
    """Ground configs grouped into inversion classes, ordered by representative.

    The representative of a class is min(c, ~c) for its members c; with
    fields it can be an inversion outside the manifold.
    """
    groups = _class_groups(manifold)
    return tuple(tuple(groups[rep]) for rep in sorted(groups))


def _class_groups(manifold: GroundManifold) -> dict[int, list[SpinConfiguration]]:
    """Ground configs keyed by the bits of their class representative.

    Members keep the manifold's ascending bits order.
    """
    mask = (1 << manifold.configs[0].num_spins) - 1
    groups: dict[int, list[SpinConfiguration]] = {}
    for c in manifold.configs:
        groups.setdefault(min(c.bits, c.bits ^ mask), []).append(c)
    return groups


@dataclass(frozen=True)
class FairnessPartition:
    """Disjoint ground-state sets S and C; members are configs or class reps.

    All members have one spin count, and each set holds a member at most
    once: a repeat would weight that member twice in the set's mean.
    """

    s_set: tuple[SpinConfiguration, ...]
    c_set: tuple[SpinConfiguration, ...]

    def __post_init__(self):
        object.__setattr__(self, "s_set", tuple(sorted(self.s_set)))
        object.__setattr__(self, "c_set", tuple(sorted(self.c_set)))
        if not self.s_set or not self.c_set:
            raise ValueError("both partition sets must be non-empty")
        if len({c.num_spins for c in self.s_set + self.c_set}) > 1:
            raise ValueError("partition members must all have the same spin count")
        for name, members in (("S", self.s_set), ("C", self.c_set)):
            if len(set(members)) < len(members):
                raise ValueError(f"partition set {name} repeats a member")
        if set(self.s_set) & set(self.c_set):
            raise ValueError("partition sets must be disjoint")

    @classmethod
    def from_class_indices(
        cls, manifold: GroundManifold, s_indices: Sequence[int]
    ) -> "FairnessPartition":
        """S = the inversion classes at ``s_indices``, C = all the others.

        Classes are indexed in the order of ``inversion_classes``, and each
        is named by its representative min(c, ~c), the key folding uses,
        which need not be a ground state.
        """
        num_spins = manifold.configs[0].num_spins
        reps = [
            SpinConfiguration(rep, num_spins)
            for rep in sorted(_class_groups(manifold))
        ]
        for i in s_indices:
            _integer(i, f"class index {i!r}")
            if not 0 <= i < len(reps):
                raise ValueError(
                    f"class index {i} is outside 0..{len(reps) - 1} "
                    f"({len(reps)} inversion classes)"
                )
        chosen = set(s_indices)
        return cls(
            s_set=tuple(reps[i] for i in s_indices),
            c_set=tuple(r for i, r in enumerate(reps) if i not in chosen),
        )


def default_partition(manifold: GroundManifold) -> FairnessPartition:
    """S = the first inversion class, C = all others."""
    return FairnessPartition.from_class_indices(manifold, (0,))


def fairness_ratio(
    folded: Mapping[SpinConfiguration, float], partition: FairnessPartition
) -> float:
    """mean_S P / mean_C P over folded class probabilities.

    Returns 0 when the S mean vanishes and +inf when only the C mean does;
    both vanishing is undefined and raises.
    """
    allowed = set(partition.s_set) | set(partition.c_set)
    stray = [c for c in folded if c not in allowed]
    if stray:
        raise ValueError(f"folded map holds classes outside the partition: {stray}")
    s_mean = sum(folded.get(c, 0.0) for c in partition.s_set) / len(partition.s_set)
    c_mean = sum(folded.get(c, 0.0) for c in partition.c_set) / len(partition.c_set)
    if c_mean == 0.0:
        if s_mean == 0.0:
            raise UndefinedRatioError("both partition sets carry zero probability")
        return math.inf
    return s_mean / c_mean


@dataclass(frozen=True)
class GapReport:
    """Mean energy gaps of the intermediates mediating second-order connections.

    For each ground state g the mediating intermediates are the excited
    configurations one flip from g and one flip from some other ground state.
    They and their gaps E_k - E_0 are read from ``second_order_links``, the
    table the second-order effective matrix is built from, so the gaps are
    its denominators, negated, by construction. ``per_state`` holds the mean
    gap of each state that has a mediating intermediate. A state is placed
    on a side by its exact config, else by its inversion-class
    representative.
    ``excluded`` lists, in manifold order, the states left out of the set
    means: those with no mediating intermediate and those the partition does
    not cover, such as a ground state with a broken chain.
    """

    per_state: dict[SpinConfiguration, float]
    delta_e_s: float
    delta_e_c: float
    ratio: float
    excluded: tuple[SpinConfiguration, ...]


def gap_ratio(
    model: IsingModel, manifold: GroundManifold, partition: FairnessPartition
) -> GapReport:
    partition_spins = partition.s_set[0].num_spins
    if partition_spins != model.num_spins:
        raise ValueError(
            f"partition members have {partition_spins} spins but the model has "
            f"{model.num_spins}"
        )
    if manifold.degeneracy < 2:
        raise ValueError("gap analysis needs a degenerate manifold")
    gaps, _, neighbours = second_order_links(model, manifold)

    # a flip mediates when it reaches a ground state other than its own
    mediating = (neighbours >= 0).sum(axis=2) >= 2
    if not mediating.any():
        raise ValueError("no second-order connections inside the manifold")
    sides = {c.bits: "S" for c in partition.s_set}
    sides.update((c.bits, "C") for c in partition.c_set)
    mask = (1 << model.num_spins) - 1
    per_state: dict[SpinConfiguration, float] = {}
    side_gaps = {"S": [], "C": []}
    excluded = []
    for g, row, use in zip(manifold.configs, gaps.tolist(), mediating.tolist()):
        state_gaps = [gap for gap, m in zip(row, use) if m]
        side = sides.get(g.bits) or sides.get(min(g.bits, g.bits ^ mask))
        if state_gaps:
            per_state[g] = sum(state_gaps) / len(state_gaps)
        if state_gaps and side:
            side_gaps[side].append(per_state[g])
        else:
            excluded.append(g)
    if not side_gaps["S"] or not side_gaps["C"]:
        raise ValueError("a partition set has no state with mediating intermediates")
    delta_s = sum(side_gaps["S"]) / len(side_gaps["S"])
    delta_c = sum(side_gaps["C"]) / len(side_gaps["C"])
    return GapReport(
        per_state=per_state,
        delta_e_s=delta_s,
        delta_e_c=delta_c,
        ratio=delta_s / delta_c,
        excluded=tuple(excluded),
    )


def project_and_fold(
    probabilities: ProbabilityVector,
    embedding: Embedding,
    source_manifold: GroundManifold,
) -> tuple[dict[SpinConfiguration, float], float]:
    """Fold physical probabilities onto the logical ground classes; rest is excited.

    A distribution over the source spins themselves folds through
    ``identity_embedding``. Consensus projection maps intact configurations
    one-to-one onto logical ones with project(lift(g)) == g, so the entries
    that fold onto g are exactly the one at lift(g): d reads of
    ``probabilities.vector``, not a pass over all 2^M entries. Broken-chain
    weight counts as excited and is never redistributed, as do intact
    projections landing outside the source manifold. PT answers and
    measured distributions alike are such vectors, so every class of the
    manifold is listed, with 0 where its lifts carry no weight. The ground
    weight is summed in ascending physical bits, and each class, keyed by
    its representative min(g, ~g) among the logical bits, sums its members
    in that same order. Everything runs on bits values; a SpinConfiguration
    is built only for each class of the result.
    """
    if probabilities.num_spins != embedding.num_physical:
        raise ValueError(
            f"distribution over {probabilities.num_spins} spins does not match "
            f"the {embedding.num_physical} spins the manifold lifts to"
        )
    logical_spins = source_manifold.configs[0].num_spins
    if embedding.num_logical != logical_spins:
        raise ValueError(
            f"embedding maps {embedding.num_logical} logical spins but the "
            f"manifold has {logical_spins}"
        )
    lifted = _lift_manifold(source_manifold, embedding)
    values = probabilities.vector[[b for b, _ in lifted]].tolist()
    mask = (1 << logical_spins) - 1
    folded: dict[int, float] = {}
    ground_weight = 0.0
    for (_, g), p in zip(lifted, values):
        rep = min(g, g ^ mask)
        folded[rep] = folded.get(rep, 0.0) + p
        ground_weight += p
    classes = {SpinConfiguration(rep, logical_spins): p for rep, p in folded.items()}
    return classes, 1.0 - ground_weight


@dataclass(frozen=True)
class SweepRecord:
    """One row of a parameter sweep; callers may build it positionally.

    An SE row that misses the accuracy budget keeps its norm drift and gap
    ratio, has no ``folded``, ``ratio`` or ``excited_weight``, and says why
    in ``error``.
    """

    model: str
    parameter: str
    value: float
    method: str
    folded: dict[SpinConfiguration, float] | None
    ratio: float | None
    gap_ratio: float | None
    excited_weight: float | None
    norm_drift: float | None
    error: str | None = None


def _record(
    label: str,
    parameter: str,
    value: float,
    method: str,
    probabilities: ProbabilityVector,
    embedding: Embedding,
    source_manifold: GroundManifold,
    partition: FairnessPartition,
    gap: float | None,
    result: EvolutionResult | None = None,
) -> SweepRecord:
    """The one builder of sweep rows: fold ``probabilities``, take the ratio.

    ``result`` is the evolution behind an SE row; a row that misses the
    accuracy budget becomes an error row, as ``SweepRecord`` describes.
    """
    drift = None if result is None else result.norm_drift
    failure = None if result is None else accuracy_failure(result)
    row = (label, parameter, value, method)
    if failure is not None:
        return SweepRecord(*row, None, None, gap, None, drift, failure)
    folded, excited = project_and_fold(probabilities, embedding, source_manifold)
    ratio = fairness_ratio(folded, partition)
    return SweepRecord(*row, folded, ratio, gap, excited, drift)


def sweep_tau(
    source: IsingModel,
    embeddings: Sequence[tuple[str, Embedding]],
    taus: Sequence[float],
    *,
    steps: int | None = None,
) -> list[SweepRecord]:
    """Annealing-time sweep over the source model and its embedded variants.

    The source runs as the variant ``"original"`` through its identity
    embedding, so every row is folded by ``project_and_fold``. The whole
    sweep is one ``evolve_many`` call, with one schedule per variant and
    tau; it batches the rows by physical spin count, and its cost guard sums
    the steps of every row. Row order is deterministic: for each tau
    (ascending), the source row first, then one row per embedding in the
    given order. Ratios use the default partition of the source manifold.
    """
    if not taus:
        raise ValueError("tau grid must be non-empty")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau grid must be strictly ascending")
    source_manifold = enumerate_ground_states(source)
    partition = default_partition(source_manifold)
    variants = [("original", identity_embedding(source)), *embeddings]
    embedded = [(label, apply_embedding(source, e)) for label, e in variants]
    models = [em.model for _, em in embedded]

    schedules = [AnnealSchedule.for_tau(tau, steps) for tau in taus]
    results = evolve_many(
        models * len(taus),
        [schedule for schedule in schedules for _ in models],
        enforce_drift=False,
    )
    rows = itertools.product(taus, embedded)
    return [
        _record(
            label, "tau", tau, "SE", result.final_probabilities,
            em.embedding, source_manifold, partition, None, result,
        )
        for (tau, (label, em)), result in zip(rows, results)
    ]


def sweep_chain_strength(
    source: IsingModel,
    embedding_template: Embedding,
    chain_strengths: Sequence[float],
    *,
    tau: float = 1000.0,
    steps: int | None = None,
    methods: Sequence[str] = ("PT", "SE"),
) -> list[SweepRecord]:
    """Chain-strength sweep: PT and direct-evolution rows per J_F, plus gap ratios.

    Rows come out grouped by J_F in the given order, PT before SE, with the
    gap ratio repeated on both rows of each J_F. ``with_chain_strength``
    checks each J_F. Ratios use the default partition of the source
    manifold. The gap ratio reads it lifted through the chains, once per
    sweep, since every J_F variant shares them.
    """
    unknown = set(methods) - {"PT", "SE"}
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    source_manifold = enumerate_ground_states(source)
    partition = default_partition(source_manifold)

    variants = [
        (jf, apply_embedding(source, embedding_template.with_chain_strength(jf)))
        for jf in chain_strengths
    ]
    # every variant has the template's chains, so one lift serves each J_F
    lifted = _lift_partition(partition, embedding_template) if variants else None

    se_results = [None] * len(variants)
    if "SE" in methods:
        schedule = AnnealSchedule.for_tau(tau, steps)
        models = [em.model for _, em in variants]
        se_results = evolve_many(models, schedule, enforce_drift=False)

    records = []
    for (jf, em), result in zip(variants, se_results):
        label = f"embedded[jf={jf:g}]"
        manifold = enumerate_ground_states(em.model)
        gap = gap_ratio(em.model, manifold, lifted).ratio
        if "PT" in methods:
            pt = perturbative_probabilities(PerturbationSetup(em.model, manifold))
            records.append(
                _record(
                    label, "jf", jf, "PT", pt.probabilities,
                    em.embedding, source_manifold, partition, gap,
                )
            )
        if "SE" in methods:
            records.append(
                _record(
                    label, "jf", jf, "SE", result.final_probabilities,
                    em.embedding, source_manifold, partition, gap, result,
                )
            )
    return records


def _lift_partition(
    partition: FairnessPartition, embedding: Embedding
) -> FairnessPartition:
    """Map logical class representatives to physical ones through the chains."""
    num_spins = embedding.num_physical
    mask = (1 << num_spins) - 1

    def lift_rep(config: SpinConfiguration) -> SpinConfiguration:
        lifted = _lift_bits(config.bits, embedding.chain_masks)
        return SpinConfiguration(min(lifted, lifted ^ mask), num_spins)

    return FairnessPartition(
        s_set=tuple(lift_rep(c) for c in partition.s_set),
        c_set=tuple(lift_rep(c) for c in partition.c_set),
    )


def _format_cell(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def write_sweep_csv(records: Sequence[SweepRecord], path: str | Path) -> None:
    """Write sweep records with a fixed column order, atomically.

    Columns: model, parameter, method, P_1..P_k (folded classes ascending by
    representative), ratio_PS_PC, gap_ratio, excited_weight, norm_drift.
    The parameter column holds the swept value.
    """
    reps = sorted({rep for r in records if r.folded for rep in r.folded})
    path = Path(path)
    header = (
        ["model", "parameter", "method"]
        + [f"P_{i + 1}" for i in range(len(reps))]
        + ["ratio_PS_PC", "gap_ratio", "excited_weight", "norm_drift"]
    )
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r in records:
                folded = [r.folded.get(rep) if r.folded else None for rep in reps]
                values = [*folded, r.ratio, r.gap_ratio, r.excited_weight, r.norm_drift]
                writer.writerow(
                    [r.model, _format_cell(r.value), r.method]
                    + [_format_cell(v) for v in values]
                )
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
