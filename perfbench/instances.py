"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
instances, J_F values and JSON files. Instances are drawn from their family
and kept as drawn; nothing here looks at what the package answers for them.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

# chain-sweep: PT and the tau = 1000 dynamics agree within 0.01 on [0.1, 2]
# (below 0.1 the anneal is no longer adiabatic; at 2 the RK4 drift is 7e-7).
CHAIN_SWEEP_JF_RANGE = (0.1, 2.0)
CHAIN_SWEEP_BATCH = 4

# Both random families use +-1 couplings at this mean degree.
MEAN_DEGREE = 2.5

# wide-state: 14 logical spins in two components, one spin a 2-spin chain
# (N = 15 physical), annealed at a tau short enough for the 1000-step floor
# of the step policy.
WIDE_COMPONENTS = (9, 5)
WIDE_LOGICAL = sum(WIDE_COMPONENTS)
WIDE_TAU = 2.0
WIDE_JF = 1.0

# pt-ensemble: 12 logical spins, one spin chained, 8 J_F values from (0, 2]
# per instance.
PT_LOGICAL = 12
PT_JF_PER_INSTANCE = 8
PT_INSTANCES = 1500


@dataclass(frozen=True)
class Instance:
    """A logical model and its one-chain embedding template, as JSON dicts."""

    name: str
    model: dict
    embedding: dict
    chain_strengths: tuple[float, ...]
    cli_jf: float


def _rng(seed: int, *tags) -> random.Random:
    # String seeds hash deterministically (no PYTHONHASHSEED dependence).
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def chain_sweep_strengths(seed: int) -> tuple[float, ...]:
    """CHAIN_SWEEP_BATCH distinct J_F values from [0.1, 2], ascending."""
    rng = _rng(seed, "chain-sweep")
    values: set[float] = set()
    while len(values) < CHAIN_SWEEP_BATCH:
        values.add(_micro(rng, *CHAIN_SWEEP_JF_RANGE))
    return tuple(sorted(values))


def _micro(rng: random.Random, lo: float, hi: float) -> float:
    """A value in [lo, hi] on a 1e-6 grid, so it prints and parses exactly."""
    return rng.randint(round(lo * 1e6), round(hi * 1e6)) / 1e6


def _random_edges(rng: random.Random, nodes: list[int], count: int):
    return sorted(rng.sample(list(itertools.combinations(nodes, 2)), count))


def _chained(
    rng: random.Random, num_logical: int, couplings, chained: int, jf
) -> tuple[dict, dict]:
    """Model and embedding dicts with logical spin ``chained`` as a 2-spin chain.

    The extra physical spin is num_logical; each coupling of the chained
    spin lands on one of the two chain members at random.
    """
    extra = num_logical
    chains = [[i] for i in range(num_logical)]
    chains[chained] = [chained, extra]
    assignment = []
    for i, j, _ in couplings:
        p, q = i, j
        if i == chained:
            p = rng.choice((chained, extra))
        if j == chained:
            q = rng.choice((chained, extra))
        assignment.append([[i, j], [p, q]])
    model = {
        "num_spins": num_logical,
        "couplings": [[i, j, J] for i, j, J in couplings],
    }
    embedding = {
        "num_logical": num_logical,
        "chains": chains,
        "chain_strength": jf,
        "coupling_assignment": assignment,
    }
    return model, embedding


def wide_state_instance(seed: int) -> Instance:
    """14 logical spins in two +-1 components of 9 and 5 spins, zero fields.

    Each component is a random spanning tree plus random extra edges up to
    the mean degree. Two components make the ground manifold hold at least
    two inversion classes for every seed, so the default S/C partition always
    exists; one spin of the larger component is a 2-spin chain.
    """
    rng = _rng(seed, "wide-state")
    order = list(range(WIDE_LOGICAL))
    rng.shuffle(order)
    split = WIDE_COMPONENTS[0]
    components = [sorted(order[:split]), sorted(order[split:])]
    couplings = []
    for nodes in components:
        shuffled = nodes[:]
        rng.shuffle(shuffled)
        tree = {
            tuple(sorted((shuffled[k], rng.choice(shuffled[:k]))))
            for k in range(1, len(shuffled))
        }
        extra = round(MEAN_DEGREE * len(nodes) / 2) - len(tree)
        rest = [p for p in itertools.combinations(nodes, 2) if p not in tree]
        edges = sorted(tree | set(rng.sample(rest, extra)))
        couplings += [(i, j, rng.choice((-1.0, 1.0))) for i, j in edges]
    couplings.sort()
    chained = rng.choice(components[0])
    model, embedding = _chained(rng, WIDE_LOGICAL, couplings, chained, WIDE_JF)
    return Instance(f"wide-{seed}", model, embedding, (WIDE_JF,), WIDE_JF)


def pt_ensemble_instance(seed: int, index: int) -> Instance:
    """One member of the pt-ensemble family; see the module constants."""
    rng = _rng(seed, "pt-ensemble", index)
    nodes = list(range(PT_LOGICAL))
    num_edges = round(MEAN_DEGREE * PT_LOGICAL / 2)
    couplings = [
        (i, j, rng.choice((-1.0, 1.0))) for i, j in _random_edges(rng, nodes, num_edges)
    ]
    chained = rng.randrange(PT_LOGICAL)
    model, embedding = _chained(rng, PT_LOGICAL, couplings, chained, None)
    strengths = tuple(
        sorted({_micro(rng, 1e-6, 2.0) for _ in range(PT_JF_PER_INSTANCE)})
    )
    return Instance(
        f"pt-{seed}-{index}", model, embedding, strengths, rng.choice(strengths)
    )


def pt_ensemble(seed: int, count: int = PT_INSTANCES) -> list[Instance]:
    return [pt_ensemble_instance(seed, k) for k in range(count)]


def write_instance(instance: Instance, directory: Path) -> tuple[Path, Path]:
    """Write the model and embedding JSON files the CLI reads."""
    model_path = directory / f"{instance.name}.model.json"
    embedding_path = directory / f"{instance.name}.embedding.json"
    model_path.write_text(json.dumps(instance.model), encoding="utf-8")
    embedding_path.write_text(json.dumps(instance.embedding), encoding="utf-8")
    return model_path, embedding_path
