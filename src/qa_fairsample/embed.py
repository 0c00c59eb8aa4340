"""Chain-based minor embeddings: apply them to models, project states back.

Each logical spin maps to an ordered chain of physical spins bound by
ferromagnetic couplings of strength +J_F along consecutive pairs. Projection
back to the logical system is consensus-only: a physical configuration whose
chain members disagree projects to None and is never repaired.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import EmbeddingError
from .model import (
    IsingModel,
    SpinConfiguration,
    _finite,
    _integer,
    enumerate_ground_states,
)


def _index(value, what: str) -> int:
    """An integer that is not a bool; anything else is an EmbeddingError."""
    try:
        return _integer(value, what)
    except ValueError as exc:
        raise EmbeddingError(str(exc)) from None


def _chain_strength(value) -> float:
    """A positive finite real number that is not a bool; else an EmbeddingError."""
    try:
        strength = _finite(value, "chain strength")
    except ValueError:
        strength = math.nan
    if not strength > 0.0:
        raise EmbeddingError(
            f"chain strength must be positive and finite, got {value!r}"
        )
    return strength


@dataclass(frozen=True)
class Embedding:
    """Logical-to-physical chain map with an explicit coupling reassignment.

    ``chains[i]`` lists the physical spins representing logical spin i; the
    chains must partition the physical index range. ``coupling_assignment``
    maps every logical coupling (i, j) to the single physical pair (p, q)
    that carries it, with p in chain(i) and q in chain(j). The chain strength
    must be a positive finite real number (not a bool) and the indices
    integers; anything else raises EmbeddingError.

    Construction also derives ``num_physical`` and ``chain_masks``, the
    physical bits of each chain, which ``lift_state`` ORs together. Neither
    takes part in equality or hashing. The fields are immutable and checked
    once, so ``with_chain_strength`` checks only the new strength.
    """

    num_logical: int
    chains: tuple[tuple[int, ...], ...]
    chain_strength: float
    coupling_assignment: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    num_physical: int = field(init=False, repr=False, compare=False)
    chain_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "num_logical", _index(self.num_logical, "num_logical"))
        chains = tuple(
            tuple(_index(p, "chain member") for p in chain) for chain in self.chains
        )
        object.__setattr__(self, "chains", chains)
        what = "coupling assignment index"
        assignment = tuple(
            ((_index(i, what), _index(j, what)), (_index(p, what), _index(q, what)))
            for (i, j), (p, q) in self.coupling_assignment
        )
        object.__setattr__(self, "coupling_assignment", assignment)
        object.__setattr__(
            self, "chain_strength", _chain_strength(self.chain_strength)
        )

        if self.num_logical < 1 or len(chains) != self.num_logical:
            raise EmbeddingError(
                f"expected {self.num_logical} chains, got {len(chains)}"
            )
        flattened = [p for chain in chains for p in chain]
        if any(len(chain) == 0 for chain in chains):
            raise EmbeddingError("every chain must be non-empty")
        if sorted(flattened) != list(range(len(flattened))):
            raise EmbeddingError(
                "chains must partition the physical index range 0..M-1"
            )
        seen = set()
        for (i, j), (p, q) in assignment:
            if not 0 <= i < j < self.num_logical:
                raise EmbeddingError(
                    f"logical coupling ({i}, {j}) must satisfy 0 <= i < j < N"
                )
            if (i, j) in seen:
                raise EmbeddingError(f"duplicate assignment for coupling ({i}, {j})")
            seen.add((i, j))
            if p not in chains[i] or q not in chains[j]:
                raise EmbeddingError(
                    f"assignment ({i},{j})->({p},{q}): physical spin not in "
                    "the claimed chain"
                )
        object.__setattr__(self, "num_physical", len(flattened))
        object.__setattr__(
            self,
            "chain_masks",
            tuple(sum(1 << p for p in chain) for chain in chains),
        )

    def with_chain_strength(self, chain_strength: float) -> "Embedding":
        """This embedding at another chain strength; only the strength is checked."""
        strength = _chain_strength(chain_strength)
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__, chain_strength=strength)
        return other


@dataclass(frozen=True)
class EmbeddedModel:
    """A physical model produced by applying an embedding to a source model."""

    model: IsingModel
    embedding: Embedding
    source: IsingModel


def identity_embedding(model: IsingModel) -> Embedding:
    """Trivial embedding: every chain has length one, couplings map to themselves.

    It has no chain bonds, so its chain strength is a placeholder 1.0.
    """
    return Embedding(
        num_logical=model.num_spins,
        chains=tuple((i,) for i in range(model.num_spins)),
        chain_strength=1.0,
        coupling_assignment=tuple(
            ((i, j), (i, j)) for i, j, _ in model.couplings
        ),
    )


def apply_embedding(source: IsingModel, embedding: Embedding) -> EmbeddedModel:
    """Build the physical model: reassigned logical couplings plus chain bonds.

    Chain bonds are +J_F between consecutive chain members; any local fields
    attach to the first member of their chain.
    """
    if embedding.num_logical != source.num_spins:
        raise EmbeddingError(
            f"embedding maps {embedding.num_logical} logical spins but the "
            f"model has {source.num_spins}"
        )
    assignment = dict(embedding.coupling_assignment)
    source_pairs = {(i, j) for i, j, _ in source.couplings}
    missing = source_pairs - set(assignment)
    if missing:
        raise EmbeddingError(f"couplings without an assignment: {sorted(missing)}")

    couplings = []
    for i, j, J in source.couplings:
        p, q = assignment[(i, j)]
        couplings.append((min(p, q), max(p, q), J))
    for chain in embedding.chains:
        for p, q in zip(chain, chain[1:]):
            couplings.append((min(p, q), max(p, q), embedding.chain_strength))

    fields = [0.0] * embedding.num_physical
    for i, h in enumerate(source.fields):
        if h:
            fields[embedding.chains[i][0]] = h

    physical = IsingModel(
        num_spins=embedding.num_physical,
        couplings=tuple(couplings),
        fields=tuple(fields),
    )
    return EmbeddedModel(model=physical, embedding=embedding, source=source)


def _lift_bits(bits: int, chain_masks: tuple[int, ...]) -> int:
    """Physical bits of the logical ``bits``: the OR of the set spins' chain masks."""
    lifted = 0
    for i, mask in enumerate(chain_masks):
        if bits >> i & 1:
            lifted |= mask
    return lifted


def lift_state(config: SpinConfiguration, embedding: Embedding) -> SpinConfiguration:
    """Copy each logical spin value to all members of its chain."""
    if config.num_spins != embedding.num_logical:
        raise ValueError("configuration does not match the embedding")
    return SpinConfiguration(
        _lift_bits(config.bits, embedding.chain_masks), embedding.num_physical
    )


def project_state(
    config: SpinConfiguration, embedding: Embedding
) -> SpinConfiguration | None:
    """Consensus projection of a physical configuration onto the logical system.

    A chain is intact when its members' bits, ``bits & mask``, are all clear
    or all set. Returns None when any chain's members disagree; broken
    states are never repaired or re-attributed.
    """
    if config.num_spins != embedding.num_physical:
        raise ValueError("configuration does not match the embedding")
    bits = 0
    for i, mask in enumerate(embedding.chain_masks):
        members = config.bits & mask
        if members == mask:
            bits |= 1 << i
        elif members:
            return None
    return SpinConfiguration(bits, embedding.num_logical)


@dataclass(frozen=True)
class EmbeddingReport:
    """Ground-manifold diagnostics for one embedded model."""

    chains_unbroken: bool
    bijective: bool
    source_energy: float
    embedded_energy: float
    source_degeneracy: int
    embedded_degeneracy: int

    def to_dict(self) -> dict:
        return asdict(self)


def verify_embedding(embedded: EmbeddedModel) -> EmbeddingReport:
    """Check that the embedded ground manifold projects bijectively onto the source's.

    Consensus projection is one-to-one on intact configurations and undoes
    the lift, so the projection is a bijection exactly when every embedded
    ground state is intact and the embedded manifold, in its ascending bits
    order, equals the sorted lifts of the source manifold. A too-weak chain
    strength would admit broken-chain ground states; the report flags that
    instead of raising.
    """
    source_manifold = enumerate_ground_states(embedded.source)
    embedded_manifold = enumerate_ground_states(embedded.model)
    embedding = embedded.embedding
    unbroken = all(
        project_state(c, embedding) is not None for c in embedded_manifold.configs
    )
    lifted = sorted(
        _lift_bits(g, embedding.chain_masks) for g in source_manifold.bits.tolist()
    )
    return EmbeddingReport(
        chains_unbroken=unbroken,
        bijective=unbroken and embedded_manifold.bits.tolist() == lifted,
        source_energy=source_manifold.energy,
        embedded_energy=embedded_manifold.energy,
        source_degeneracy=source_manifold.degeneracy,
        embedded_degeneracy=embedded_manifold.degeneracy,
    )


def embedding_from_dict(data: dict, chain_strength: float | None = None) -> Embedding:
    if not isinstance(data, dict):
        raise ValueError("embedding file must hold a JSON object")
    for key in ("num_logical", "chains", "coupling_assignment"):
        if key not in data:
            raise ValueError(f"embedding file is missing '{key}'")
    file_strength = data.get("chain_strength")
    if file_strength is not None:
        # a malformed stored value is refused even when an override is given
        file_strength = _chain_strength(file_strength)
    if chain_strength is None:
        if file_strength is None:
            raise ValueError(
                "embedding file leaves chain_strength as a placeholder; "
                "pass a value to substitute"
            )
        chain_strength = file_strength
    # unpacking checks the shapes at no cost to a well-formed file
    try:
        chains = tuple(tuple(chain) for chain in data["chains"])
    except TypeError:
        raise ValueError("'chains' must be a list of lists of physical spins") from None
    try:
        assignment = tuple(
            ((i, j), (p, q)) for (i, j), (p, q) in data["coupling_assignment"]
        )
    except (TypeError, ValueError):
        raise ValueError(
            "'coupling_assignment' must be a list of [[i, j], [p, q]] pairs"
        ) from None
    return Embedding(
        num_logical=data["num_logical"],
        chains=chains,
        chain_strength=chain_strength,
        coupling_assignment=assignment,
    )


def load_embedding(path: str | Path, chain_strength: float | None = None) -> Embedding:
    """Read an embedding from its JSON file format.

    Files may store ``"chain_strength": null`` as a placeholder, in which
    case the caller must supply the value; an explicit argument always wins.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return embedding_from_dict(data, chain_strength=chain_strength)
