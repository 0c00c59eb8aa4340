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
import functools
import itertools
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .embed import (
    Embedding,
    _chain_verdict,
    _lift_manifold,
    _require_lifts,
    apply_embedding,
    identity_embedding,
)
from .errors import UndefinedRatioError
from .evolve import AnnealSchedule, EvolutionResult, _accuracy_failure, evolve_many
from .model import (
    GroundManifold,
    IsingModel,
    ProbabilityVector,
    SpinConfiguration,
    _check_bounds,
    _ground_bits,
    _integer,
    _less_terms,
    energy_table,
    enumerate_ground_states,
)
from .pt import _answer, _first_order, _gaps, _links, second_order_links


def inversion_classes(
    manifold: GroundManifold,
) -> tuple[tuple[SpinConfiguration, ...], ...]:
    """Ground configs grouped into inversion classes, ordered by representative.

    The representative of a class is min(c, ~c) for its members c; with
    fields it can be an inversion outside the manifold. Members keep the
    manifold's ascending bits order.
    """
    mask = (1 << manifold.configs[0].num_spins) - 1
    groups: dict[int, list[SpinConfiguration]] = {}
    for c in manifold.configs:
        groups.setdefault(min(c.bits, c.bits ^ mask), []).append(c)
    return tuple(tuple(groups[rep]) for rep in sorted(groups))


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
        mask = (1 << num_spins) - 1
        reps = sorted({min(b, b ^ mask) for b in manifold.bits.tolist()})
        reps = [SpinConfiguration(rep, num_spins) for rep in reps]
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
    its denominators, negated, by construction. ``delta_e_s`` and
    ``delta_e_c`` are the means over S and over C of the per-state mean gaps.
    A state is placed on a side by its exact config, else by its
    inversion-class representative; a state with no mediating intermediate,
    or one the partition does not cover (such as a ground state with a
    broken chain), is left out of both means.
    """

    delta_e_s: float
    delta_e_c: float
    ratio: float


def gap_ratio(
    model: IsingModel, manifold: GroundManifold, partition: FairnessPartition
) -> GapReport:
    partition_spins = partition.s_set[0].num_spins
    if partition_spins != model.num_spins:
        raise ValueError(
            f"partition members have {partition_spins} spins but the model has "
            f"{model.num_spins}"
        )
    gaps, _, neighbours = second_order_links(model, manifold)
    sides = {c.bits: "S" for c in partition.s_set}
    sides.update((c.bits, "C") for c in partition.c_set)
    return GapReport(*_gap_means(gaps, _gap_shape(manifold.bits, neighbours, sides)))


def _gap_shape(bits, neighbours, sides: dict[int, str]):
    """What the ascending ground ``bits`` fix of the gap analysis, refusals
    included: mediating flips, their count per state, states on S and on C.

    ``sides`` maps bits to "S" or "C"; a state missing from it is looked up
    by its inversion-class representative min(g, ~g)."""
    if len(bits) < 2:
        raise ValueError("gap analysis needs a degenerate manifold")
    # a flip mediates when it reaches a ground state other than its own
    mediating = (neighbours >= 0).sum(axis=2) >= 2
    if not mediating.any():
        raise ValueError("no second-order connections inside the manifold")
    mask = (1 << neighbours.shape[1]) - 1
    side = [sides.get(g) or sides.get(min(g, g ^ mask)) for g in bits.tolist()]
    counts = mediating.sum(axis=1)
    on_s = (counts > 0) & [s == "S" for s in side]
    on_c = (counts > 0) & [s == "C" for s in side]
    if not on_s.any() or not on_c.any():
        raise ValueError("a partition set has no state with mediating intermediates")
    return mediating, counts, on_s, on_c


def _gap_means(gaps, shape):
    """The S and C mean gaps from ``second_order_links`` and ``_gap_shape``,
    and their ratio. Each mean is a sequential sum over the counted terms,
    as a Python 3.11 ``sum`` gives: gaps are positive, and a term left out
    adds +0.0. A gap or sum past the float range is +inf, without a
    warning; a ratio of two +inf means is undefined and refused."""
    mediating, counts, on_s, on_c = shape
    with np.errstate(over="ignore"):
        means = np.where(mediating, gaps, 0.0).cumsum(axis=1)[:, -1] / counts.clip(1)
        delta_s = float(np.where(on_s, means, 0.0).cumsum()[-1] / on_s.sum())
        delta_c = float(np.where(on_c, means, 0.0).cumsum()[-1] / on_c.sum())
    ratio = delta_s / delta_c
    if math.isnan(ratio):
        raise ValueError("the S and C mean gaps both overflow to inf: no gap ratio")
    return delta_s, delta_c, ratio


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
    return _fold(probabilities, _lift_manifold(source_manifold, embedding), logical_spins)


def _fold(probabilities: ProbabilityVector, lifted, num_spins: int):
    """``project_and_fold`` from the lifts of a ``num_spins`` manifold."""
    values = probabilities.vector[[b for b, _ in lifted]].tolist()
    mask = (1 << num_spins) - 1
    folded: dict[int, float] = {}
    ground_weight = 0.0
    for (_, g), p in zip(lifted, values):
        rep = min(g, g ^ mask)
        folded[rep] = folded.get(rep, 0.0) + p
        ground_weight += p
    classes = {SpinConfiguration(rep, num_spins): p for rep, p in folded.items()}
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
    row: tuple[str, str, float, str],
    probabilities: ProbabilityVector,
    lifted: list[tuple[int, int]],
    partition: FairnessPartition,
    gap: float | None,
    result: EvolutionResult | None = None,
) -> SweepRecord:
    """The one builder of sweep rows: fold ``probabilities``, take the ratio.

    ``row`` is (label, parameter, value, method), ``lifted`` the source
    manifold's ``_lift_manifold`` and ``result`` the evolution behind an SE
    row; one that misses the accuracy budget is an error row, as
    ``SweepRecord`` describes.
    """
    drift = None if result is None else result.norm_drift
    failure = None if result is None else _accuracy_failure(result)
    if failure is not None:
        return SweepRecord(*row, None, None, gap, None, drift, failure)
    folded, excited = _fold(probabilities, lifted, partition.s_set[0].num_spins)
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
    tau; it runs the rows of every physical spin count that gathers in one
    CFM4 loop, and its cost guard sums the steps of every row. Row order is deterministic: for each tau
    (ascending), the source row first, then one row per embedding in the
    given order. Ratios use the default partition of the source manifold.
    """
    if not taus:
        raise ValueError("tau grid must be non-empty")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau grid must be strictly ascending")
    source_manifold = enumerate_ground_states(source)
    partition = default_partition(source_manifold)
    variants = [
        (label, apply_embedding(source, e).model, _lift_manifold(source_manifold, e))
        for label, e in [("original", identity_embedding(source)), *embeddings]
    ]
    models = [model for _, model, _ in variants]

    schedules = [AnnealSchedule.for_tau(tau, steps) for tau in taus]
    results = evolve_many(
        models * len(taus),
        [schedule for schedule in schedules for _ in models],
        enforce_drift=False,
    )
    rows = itertools.product(taus, variants)
    return [
        _record(
            (label, "tau", tau, "SE"), result.final_probabilities, lifted, partition,
            None, result,
        )
        for (tau, (label, _, lifted)), result in zip(rows, results)
    ]


def _pt_rows(source, template, chain_strengths, lifted):
    """Each J_F with its embedding, and an iterator of the PT row of each J_F.

    Every J_F is checked here, before any row: ``with_chain_strength``
    checks it, and the size guard and the overflow refusal run on its
    couplings. J_F enters only through the chain bonds ``apply_embedding``
    appends, once, after the source couplings, so the first J_F's model
    gives the layout of every one. A row is (ground bits,
    ``second_order_links`` arrays, ``answer``), and ``answer()`` is its
    ``PTResult``: bitwise what ``perturbative_probabilities`` gives at its
    J_F. It copies the ``energy_table`` of the source couplings, subtracts
    its bonds and fields in the order ``energy_table`` does, scans it as
    ``enumerate_ground_states`` does and refuses intact chains off ``lifted``,
    the template's lift of the source manifold. What reads only the ground
    bits is reused while they repeat, the same ``neighbours`` array
    included. A row drops its table before anything can refuse it, and
    looks the memoised couplings table up again rather than keep it in this
    generator's frame, so no 2^N array is left in a frame that a traceback
    keeps.
    """
    variants = []
    for jf in chain_strengths:
        embedding = template.with_chain_strength(jf)
        if not variants:
            physical = apply_embedding(source, embedding).model
            head = physical.couplings[: len(source.couplings)]
        strength = embedding.chain_strength
        bonds = tuple((p, q, strength) for p, q, _ in physical.couplings[len(head) :])
        _check_bounds(physical.num_spins, head + bonds, physical.fields)
        variants.append((jf, embedding, bonds))

    def rows():
        num_spins, has_fields = physical.num_spins, physical.has_fields
        integer, bits = source.is_integer_valued, None
        couplings = IsingModel._from_checked(num_spins, head, (0.0,) * num_spins)

        def answer(ground, first, links):
            # the first order is solved once per manifold, on the first answer
            # asked of it, so never for rows the sweep's gap analysis refuses
            if not first:
                first.append(_first_order(ground, has_fields))
            return _answer(ground, num_spins, has_fields, first[0], links)

        for _, embedding, bonds in variants:
            table = _less_terms(energy_table(couplings).copy(), bonds, physical.fields)
            # the bonds share one strength
            exact = integer and (not bonds or embedding.chain_strength.is_integer())
            e0, ground = _ground_bits(table, exact)
            new_manifold = ground.tobytes() != bits
            if new_manifold:
                bits, first = ground.tobytes(), []
                flips, excited, neighbours = _links(ground, num_spins)
            links = _gaps(table, flips, e0), excited, neighbours
            del table
            if new_manifold:
                verdict = _chain_verdict(ground.tolist(), lifted, embedding)
                _require_lifts(verdict, embedding)
            yield ground, links, functools.partial(answer, ground, first, links)

    return [(jf, embedding) for jf, embedding, _ in variants], rows()


def sweep_chain_strength(
    source: IsingModel,
    embedding_template: Embedding,
    chain_strengths: Sequence[float],
    *,
    tau: float = 1000.0,
    methods: Sequence[str] = ("PT", "SE"),
) -> list[SweepRecord]:
    """Chain-strength sweep: PT and direct-evolution rows per J_F, plus gap ratios.

    Rows come out grouped by J_F in the given order, PT before SE, with the
    gap ratio repeated on both rows of each J_F. Every J_F is checked before
    any row is built. Ratios use the default partition of the source
    manifold. Every J_F variant shares the chains, so the source manifold
    lifts once per sweep: the rows fold, refuse and side their gaps by it.

    Each row is bitwise what the public calls give at its J_F; like ``pt``,
    whose answer is the PT row of ``_pt_rows`` at one J_F, it refuses intact
    chains off the lifts. A row refuses first by that chain verdict, then by
    its gap analysis, then by its ratio; the gap analysis is the sweep's
    own, reused while the ground bits repeat. Only SE rows get a model per
    J_F.
    """
    unknown = set(methods) - {"PT", "SE"}
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    source_manifold = enumerate_ground_states(source)
    partition = default_partition(source_manifold)
    lifted = _lift_manifold(source_manifold, embedding_template)
    variants, pt_rows = _pt_rows(source, embedding_template, chain_strengths, lifted)
    if not variants:
        return []
    # a lift's class representative min(L, ~L) takes its logical class's side
    s_reps = {c.bits for c in partition.s_set}
    mask = (1 << source.num_spins) - 1
    physical_mask = (1 << embedding_template.num_physical) - 1
    sides = {
        min(b, b ^ physical_mask): "S" if min(g, g ^ mask) in s_reps else "C"
        for b, g in lifted
    }

    se_results = [None] * len(variants)
    if "SE" in methods:
        schedule = AnnealSchedule.for_tau(tau)
        models = [apply_embedding(source, e).model for _, e in variants]
        se_results = evolve_many(models, schedule, enforce_drift=False)

    records, seen = [], None
    for (jf, _), result, (ground, links, answer) in zip(variants, se_results, pt_rows):
        row = (f"embedded[jf={jf:g}]", "jf", jf)
        gaps, _, neighbours = links
        if neighbours is not seen:
            shape, seen = _gap_shape(ground, neighbours, sides), neighbours
        gap = _gap_means(gaps, shape)[2]
        # no PT answer is kept in this frame, where the next row can refuse
        if "PT" in methods:
            pt = answer().probabilities
            records.append(_record((*row, "PT"), pt, lifted, partition, gap))
            del pt
        if "SE" in methods:
            se = result.final_probabilities
            records.append(_record((*row, "SE"), se, lifted, partition, gap, result))
    return records


def _format_cell(value: float | None) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def write_sweep_csv(records: Sequence[SweepRecord], path: str | Path) -> None:
    """Write sweep records with a fixed column order, atomically.

    Columns: model, parameter, method, P_1..P_k (folded classes ascending by
    representative), ratio_PS_PC, gap_ratio, excited_weight, norm_drift.
    The parameter column holds the swept value. The file gets the mode a
    plain ``open(path, "w")`` would give it, 0o666 less the umask.
    """
    reps = sorted({rep for r in records if r.folded for rep in r.folded})
    path = Path(path)
    header = (
        ["model", "parameter", "method"]
        + [f"P_{i + 1}" for i in range(len(reps))]
        + ["ratio_PS_PC", "gap_ratio", "excited_weight", "norm_drift"]
    )
    # the kernel applies the umask to 0o666; O_EXCL never opens a file that
    # is already there
    tmp_name = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
