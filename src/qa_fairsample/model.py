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
        if self.num_spins > MAX_SPINS:
            raise ModelTooLargeError(
                f"{self.num_spins} spins exceeds the enumeration guard of {MAX_SPINS}"
            )
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
        # bounds every partial sum of the energy table; a plain sum, as fsum
        # raises where it overflows
        scale = sum(abs(J) for _, _, J in couplings) + sum(map(abs, fields))
        if not math.isfinite(scale):
            raise ValueError(
                "sum of |J| and |h| must be finite, so that every energy is: "
                "it overflows to inf"
            )

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


def _subtract_couplings(table: np.ndarray, idx: np.ndarray, couplings) -> None:
    # J*s_i*s_j is exactly -J where bits i and j differ and J where they
    # agree. It depends on the low j+1 bits only, so one period of 2^(j+1)
    # entries is computed and subtracted from every period of the table.
    for i, j, J in couplings:
        low = idx[: 2 << j]
        periods = table.reshape(-1, low.size)
        periods -= np.where(((low >> i) ^ (low >> j)) & 1, -J, J)


@functools.lru_cache(maxsize=2)
def _shared_table(num_spins: int, couplings: tuple) -> np.ndarray:
    """Read-only table of the ``couplings`` terms alone, in their order."""
    idx = np.arange(1 << num_spins, dtype=np.int64)
    table = np.zeros(idx.shape, dtype=np.float64)
    _subtract_couplings(table, idx, couplings)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=4)
def _energy_table(model: IsingModel) -> np.ndarray:
    couplings = model.couplings
    split = len(couplings)
    while split and couplings[split - 1][2] == couplings[-1][2]:
        split -= 1
    idx = np.arange(1 << model.num_spins, dtype=np.int64)
    table = _shared_table(model.num_spins, couplings[:split]).copy()
    _subtract_couplings(table, idx, couplings[split:])
    for i, h in enumerate(model.fields):
        if h:
            low = idx[: 2 << i]
            periods = table.reshape(-1, low.size)
            periods -= np.where((low >> i) & 1, h, -h)
    table.setflags(write=False)
    return table


class _EnergyTables:
    """Energies of all 2^N configurations of a model, indexed by bits value.

    ``energy_table(model)`` returns a read-only float64 array, memoised per
    model (4 of them, least recently used first out). The table is built
    by subtracting each coupling term and then each field term, in the
    model's order, from zeros. The couplings before the trailing run that
    shares the last coupling's value are summed once into a table kept for
    the next model with the same leading couplings: the J_F variants of one
    embedding differ only in the chain bonds ``apply_embedding`` appends, so
    they share it. Each model then copies it and subtracts its own run and
    its fields, so every table holds bitwise what the one-pass sum gives.
    ``cache_info()`` reports the per-model memo, and ``cache_clear()``
    empties it and the shared tables.
    """

    def __call__(self, model: IsingModel) -> np.ndarray:
        return _energy_table(model)

    def cache_info(self):
        return _energy_table.cache_info()

    def cache_clear(self) -> None:
        _energy_table.cache_clear()
        _shared_table.cache_clear()


energy_table = _EnergyTables()


def enumerate_ground_states(model: IsingModel) -> GroundManifold:
    """Exhaustive scan over all 2^N configurations for the exact minimum.

    Ties are resolved exactly for integer-valued models (their energies are
    integers, exact in float64) and within a 1e-12 relative tolerance
    otherwise, so rounding cannot split a true degeneracy.
    """
    table = energy_table(model)
    e0 = float(table.min())
    if model.is_integer_valued:
        mask = table == e0
    else:
        mask = table <= e0 + TIE_EPS * max(1.0, abs(e0))
    configs = tuple(
        SpinConfiguration(int(b), model.num_spins) for b in np.flatnonzero(mask)
    )
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
