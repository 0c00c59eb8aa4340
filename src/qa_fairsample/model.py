"""Classical Ising targets: energies, exhaustive ground-state search, bit utilities.

Spin configurations are N-bit words; bit i set means spin i points up (+1).
Models are small by design (N <= 24) so every operation that needs the full
spectrum simply scans all 2^N configurations.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ModelTooLargeError

MAX_SPINS = 24

# Relative tie tolerance for ground-state search on non-integer couplings.
TIE_EPS = 1e-12


@dataclass(frozen=True, order=True)
class SpinConfiguration:
    """One z-basis state; bit i of ``bits`` set means spin i is up (+1)."""

    bits: int
    num_spins: int

    def __post_init__(self):
        if self.num_spins < 1:
            raise ValueError(f"num_spins must be >= 1, got {self.num_spins}")
        if not 0 <= self.bits < (1 << self.num_spins):
            raise ValueError(
                f"bits {self.bits} out of range for {self.num_spins} spins"
            )

    def inverted(self) -> "SpinConfiguration":
        """Global spin flip."""
        mask = (1 << self.num_spins) - 1
        return SpinConfiguration(self.bits ^ mask, self.num_spins)

    def to_bitstring(self) -> str:
        """Bit characters with spin 0 leftmost, e.g. bits=19, N=5 -> '11001'."""
        return format(self.bits, f"0{self.num_spins}b")[::-1]

    def to_arrows(self) -> str:
        return "".join(
            "↑" if (self.bits >> i) & 1 else "↓"
            for i in range(self.num_spins)
        )

    def __repr__(self):
        return f"SpinConfiguration({self.to_bitstring()})"


class ProbabilityVector(Mapping):
    """Read-only map from configurations to probabilities, over an array.

    ``vector`` is the float64 array of all 2^N probabilities indexed by bits
    value; the mapping reads it through SpinConfiguration keys without
    building one object per entry.
    """

    __slots__ = ("vector", "num_spins")

    def __init__(self, vector):
        vector = np.asarray(vector, dtype=np.float64).view()
        size = vector.size
        if vector.ndim != 1 or size < 2 or size & (size - 1):
            raise ValueError(
                f"probability vector must be 1-D of length 2^N, got shape {vector.shape}"
            )
        vector.setflags(write=False)
        self.vector = vector
        self.num_spins = size.bit_length() - 1

    def __getitem__(self, config):
        if not isinstance(config, SpinConfiguration) or config.num_spins != self.num_spins:
            raise KeyError(config)
        return float(self.vector[config.bits])

    def __iter__(self):
        return (SpinConfiguration(b, self.num_spins) for b in range(self.vector.size))

    def __len__(self):
        return self.vector.size

    def __repr__(self):
        return f"ProbabilityVector({self.vector!r})"


# The exact-type tests come first because an isinstance check against a
# numbers ABC costs about 0.7 us, which loading thousands of model files shows.


def _integer(value, what: str) -> int:
    """An integer that is not a bool; anything else is a ValueError."""
    if type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral)
    ):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _finite(value, what: str) -> float:
    """A finite real number that is not a bool, as a float."""
    if type(value) in (float, int) or (
        not isinstance(value, bool) and isinstance(value, numbers.Real)
    ):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{what} must be a finite real number, got {value!r}")


def _check_bounds(num_spins: int, couplings=(), fields=()) -> None:
    """The size guard, and the refusal of energies that overflow: a plain
    sum bounds every partial sum of the energy table (fsum would raise)."""
    if num_spins > MAX_SPINS:
        raise ModelTooLargeError(
            f"{num_spins} spins exceeds the enumeration guard of {MAX_SPINS}"
        )
    scale = sum(abs(J) for _, _, J in couplings) + sum(map(abs, fields))
    if not math.isfinite(scale):
        raise ValueError(
            "sum of |J| and |h| must be finite, so that every energy is: "
            "it overflows to inf"
        )


@dataclass(frozen=True)
class IsingModel:
    """Diagonal target Hamiltonian -sum_ij J_ij s_i s_j - sum_i h_i s_i.

    ``couplings`` holds (i, j, J) triples with 0 <= i < j < num_spins and no
    duplicate pairs. ``fields`` defaults to all zeros.
    """

    num_spins: int
    couplings: tuple[tuple[int, int, float], ...]
    fields: tuple[float, ...] = ()

    def __post_init__(self):
        _integer(self.num_spins, "num_spins")
        if self.num_spins < 1:
            raise ValueError(f"num_spins must be >= 1, got {self.num_spins}")
        _check_bounds(self.num_spins)
        couplings = tuple(
            (
                _integer(i, "coupling index"),
                _integer(j, "coupling index"),
                _finite(J, "coupling"),
            )
            for i, j, J in self.couplings
        )
        object.__setattr__(self, "couplings", couplings)
        seen = set()
        for i, j, _ in couplings:
            if not 0 <= i < j < self.num_spins:
                raise ValueError(f"coupling ({i}, {j}) must satisfy 0 <= i < j < N")
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling ({i}, {j})")
            seen.add((i, j))
        fields = tuple(_finite(h, "field") for h in self.fields)
        if not fields:
            fields = (0.0,) * self.num_spins
        if len(fields) != self.num_spins:
            raise ValueError(
                f"got {len(fields)} fields for {self.num_spins} spins"
            )
        object.__setattr__(self, "fields", fields)
        _check_bounds(self.num_spins, couplings, fields)

    @classmethod
    def _from_checked(cls, num_spins: int, couplings: tuple, fields: tuple):
        """A model of parts that passed ``__post_init__``; checks only bounds."""
        _check_bounds(num_spins, couplings, fields)
        model = object.__new__(cls)
        model.__dict__.update(num_spins=num_spins, couplings=couplings, fields=fields)
        return model

    @property
    def has_fields(self) -> bool:
        return any(h != 0.0 for h in self.fields)

    @property
    def is_integer_valued(self) -> bool:
        return all(J.is_integer() for _, _, J in self.couplings) and all(
            h.is_integer() for h in self.fields
        )

    def to_dict(self) -> dict:
        out = {
            "num_spins": self.num_spins,
            "couplings": [[i, j, J] for i, j, J in self.couplings],
        }
        if self.has_fields:
            out["fields"] = list(self.fields)
        return out


def _components(model: IsingModel) -> list[tuple[int, ...]]:
    """The spins of each connected component of the coupling graph, ascending,
    ordered by their lowest spin. A coupling joins its two spins whatever
    its J; an isolated spin is a component of its own."""
    root = list(range(model.num_spins))

    def find(spin: int) -> int:
        while root[spin] != spin:
            spin = root[spin]
        return spin

    for i, j, _ in model.couplings:
        root[find(j)] = find(i)
    components: dict[int, list[int]] = {}
    for spin in range(model.num_spins):
        components.setdefault(find(spin), []).append(spin)
    return [tuple(spins) for spins in components.values()]


@dataclass(frozen=True)
class GroundManifold:
    """All minimum-energy configurations of a model, in ascending bits order.

    The PT and gap analysis look configs up by binary search on their bits
    values, so the order is checked here: at least one config, bits
    strictly ascending and one spin count for all configs. Construction
    also derives ``bits``, the configs' bits values as a read-only int64
    array in the same order, which PT, folding and embedding verification
    read; it takes no part in equality or hashing.
    """

    energy: float
    configs: tuple[SpinConfiguration, ...]
    bits: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        configs = self.configs
        if not configs:
            raise ValueError("a ground manifold needs at least one config")
        if len({c.num_spins for c in configs}) > 1:
            raise ValueError("ground configs must all have the same spin count")
        bits = [c.bits for c in configs]
        if not all(map(operator.lt, bits, bits[1:])):
            raise ValueError("ground configs must be in strictly ascending bits order")
        bits = np.array(bits, dtype=np.int64)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @property
    def degeneracy(self) -> int:
        return len(self.configs)


# _AGREE[i, b] is 1.0 where bit i of b is clear and -1.0 where it is set.
_RUN_BITS = 6
_AGREE = 1.0 - 2.0 * ((np.arange(1 << _RUN_BITS) >> np.arange(_RUN_BITS)[:, None]) & 1)


def _subtract_couplings(table: np.ndarray, couplings) -> None:
    # J*s_i*s_j is exactly J where bits i and j agree and -J where they
    # differ: bit i's pattern, negated where bit j is set. It is subtracted
    # from the table viewed as blocks split at bit j; for a low i it spans
    # the bits below min(j, _RUN_BITS), so that its rows are not 2^i short.
    for i, j, J in couplings:
        if i < _RUN_BITS:
            width = min(j, _RUN_BITS)
            blocks = table.reshape(-1, 2, 1 << (j - width), 1 << width)
            blocks -= np.multiply.outer((J, -J), _AGREE[i, : 1 << width])[:, None]
        else:
            blocks = table.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
            blocks -= np.array([[J, -J], [-J, J]])[:, None, :, None]


def _less_terms(table: np.ndarray, couplings, fields=()) -> np.ndarray:
    """``table`` less each coupling term and then each field term h*s_i,
    which is -h where bit i is clear, else h; returned read-only."""
    _subtract_couplings(table, couplings)
    for i, h in enumerate(fields):
        if h:
            blocks = table.reshape(-1, 2, 1 << i)
            blocks -= ((-h,), (h,))
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=4)
def energy_table(model: IsingModel) -> np.ndarray:
    """Energies of all 2^N configurations of a model, indexed by bits value.

    A read-only float64 array, memoised per model (4 of them, least recently
    used first out; ``cache_info()`` and ``cache_clear()`` are the memo's).
    Each entry is 0.0 less each coupling term and then each field term, in
    the model's order. A chain-strength sweep memoises here the table of its
    source couplings alone, as a model with zero fields, and each of its
    rows copies it and subtracts the row's chain bonds and fields: bitwise
    this table of its ``J_F`` variant.
    """
    return _less_terms(np.zeros(1 << model.num_spins), model.couplings, model.fields)


def _ground_bits(table: np.ndarray, integer_valued: bool) -> tuple[float, np.ndarray]:
    """The minimum of an energy table and the ascending bits values that reach
    it: exactly for integer-valued models, else within the tie window."""
    e0 = float(table.min())
    window = 0.0 if integer_valued else TIE_EPS * max(1.0, abs(e0))
    return e0, np.flatnonzero(table <= e0 + window)


def enumerate_ground_states(model: IsingModel) -> GroundManifold:
    """Exhaustive scan over all 2^N configurations for the exact minimum.

    Ties are resolved exactly for integer-valued models (their energies are
    integers, exact in float64) and within a 1e-12 relative tolerance
    otherwise, so rounding cannot split a true degeneracy.
    """
    e0, bits = _ground_bits(energy_table(model), model.is_integer_valued)
    configs = tuple(SpinConfiguration(b, model.num_spins) for b in bits.tolist())
    return GroundManifold(energy=e0, configs=configs)


def _require(condition: bool, message: str):
    if not condition:
        raise ValueError(message)


def model_from_dict(data: dict) -> IsingModel:
    _require(isinstance(data, dict), "model file must hold a JSON object")
    _require("num_spins" in data, "model file is missing 'num_spins'")
    _require("couplings" in data, "model file is missing 'couplings'")
    couplings = data["couplings"]
    _require(isinstance(couplings, list), "'couplings' must be a list")
    triples = []
    for entry in couplings:
        # the message is formatted only for an entry that fails
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"coupling entry {entry!r} is not an [i, j, J] triple")
        triples.append((entry[0], entry[1], entry[2]))
    fields = data.get("fields", ())
    _require(
        isinstance(fields, (list, tuple)),
        "'fields' must be a list of per-spin values",
    )
    return IsingModel(
        num_spins=data["num_spins"], couplings=tuple(triples), fields=tuple(fields)
    )


def load_model(path: str | Path) -> IsingModel:
    """Read an Ising model from its JSON file format."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return model_from_dict(data)
