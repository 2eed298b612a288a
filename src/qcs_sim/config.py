"""Scenario configuration: schema, validation, JSON round-trip.

A scenario is one JSON object whose sections mirror the model types (see
README for the field/unit reference). The dataclasses are the schema: their
fields name the keys, their annotations type the values, and their defaults
fill in what a file leaves out. One reader (`_read`) and one writer
(`_plain`) walk them. Only `species` and the per-species delta/beta entries
are mandatory; everything else has perfect-model defaults.

Validation stays in the models' `__post_init__` and is strict: unknown keys,
wrong types, missing cross-references and out-of-range values all raise
ConfigError naming the offending field by its dotted path, such as
`clock_b.sigma_read` or `transport.beta_by_species.cs`.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import re
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

_SPECIES_ID = re.compile(r"[A-Za-z0-9_]+")

from .clocks import ClockModel, ClockTrip
from .errors import ConfigError
from .quantum import BasisPhase, Frequency
from .transport import TransportModel

#: Minimum pairs per measurement epoch. Without `use_type_i` a quadrature
#: keeps m/2 of the m type-II pairs, and m ~ Bin(N, 1/2), so a quadrature
#: falls below estimation.MIN_SAMPLES = 100 with probability
#: P(Bin(N, 1/2) < 200): 0.48 at N = 400, 5.2e-10 at N = 540.
MIN_ENSEMBLE_PER_EPOCH = 540

#: numpy's hypergeometric samplers, which a shuffled type list needs, take
#: fewer than 1e9 items.
MAX_SHUFFLED_ENSEMBLE = 10**9


@dataclass(frozen=True)
class Epochs:
    """A's announced start reading and B's measurement reading(s), s."""

    a_start: float = 0.0
    b_measure: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if not math.isfinite(self.a_start):
            raise ConfigError("epochs.a_start must be finite")
        if len(self.b_measure) == 0:
            raise ConfigError("epochs.b_measure must list at least one epoch")
        if any(not math.isfinite(t) for t in self.b_measure):
            raise ConfigError("epochs.b_measure entries must be finite")
        if any(b <= a for a, b in zip(self.b_measure, self.b_measure[1:])):
            raise ConfigError("epochs.b_measure must be strictly increasing")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one experiment needs; `with_run` applies a run's overrides.

    `species` maps species id -> transition frequency; its insertion order is
    meaningful (the first two species define the beat pair).
    """

    species: Mapping[str, Frequency]
    ensemble_size: int = 100_000
    clock_a: ClockModel = field(default_factory=ClockModel)
    clock_b: ClockModel = field(default_factory=ClockModel)
    transport: TransportModel = field(default_factory=TransportModel)
    trip: ClockTrip = field(default_factory=ClockTrip)
    epochs: Epochs = field(default_factory=Epochs)
    seed: int = 0
    trials: int = 100
    use_type_i: bool = False
    shuffle_type_list: bool = False
    noiseless: bool = False

    def __post_init__(self):
        if len(self.species) == 0:
            raise ConfigError("species must name at least one species")
        for sp in self.species:
            if not _SPECIES_ID.fullmatch(sp):
                raise ConfigError(
                    f"species id {sp!r} must match [A-Za-z0-9_]+ (it names CSV columns)"
                )
        floor = MIN_ENSEMBLE_PER_EPOCH * len(self.epochs.b_measure)
        if self.ensemble_size < floor:
            raise ConfigError(
                f"ensemble_size must be >= {MIN_ENSEMBLE_PER_EPOCH} per "
                f"measurement epoch ({floor} here), got {self.ensemble_size}"
            )
        if self.shuffle_type_list and self.ensemble_size >= MAX_SHUFFLED_ENSEMBLE:
            raise ConfigError(
                f"ensemble_size must be < {MAX_SHUFFLED_ENSEMBLE} with "
                f"shuffle_type_list, got {self.ensemble_size}"
            )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a u64, got {self.seed}")
        for sp in self.species:
            if sp not in self.clock_a.delta_by_species:
                raise ConfigError(f"clock_a.delta_by_species has no entry for species {sp!r}")
            if sp not in self.clock_b.delta_by_species:
                raise ConfigError(f"clock_b.delta_by_species has no entry for species {sp!r}")
            if sp not in self.transport.beta_by_species:
                raise ConfigError(f"transport.beta_by_species has no entry for species {sp!r}")
        if self.noiseless:
            noisy = []
            if self.transport.sigma_common > 0 or self.transport.sigma_pair > 0:
                noisy.append("transport jitter")
            if self.clock_a.sigma_read > 0 or self.clock_b.sigma_read > 0:
                noisy.append("clock read noise")
            if self.trip.jitter > 0:
                noisy.append("trip jitter")
            if self.shuffle_type_list:
                noisy.append("shuffle_type_list")
            if noisy:
                raise ConfigError(
                    "noiseless mode requires zero noise parameters; offending: "
                    + ", ".join(noisy)
                )

    def with_run(self, seed=None, trials=None) -> "ScenarioConfig":
        """A copy with a run's overrides (None keeps the stored value), checked like the fields."""
        given = {k: _int(v, k) for k, v in (("seed", seed), ("trials", trials)) if v is not None}
        return dataclasses.replace(self, **given) if given else self

    # -- (de)serialization ------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return _plain(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        return _read(cls, data, "")


def _number(value, where) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _int(value, where) -> int:
    """An integer (numpy's too), or an integral float such as 1e6."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _bool(value, where) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


#: Model types written as their one float field, a bare JSON number.
_SCALARS = (BasisPhase, Frequency)

_LEAVES = {float: _number, int: _int, bool: _bool}


@functools.cache
def _schema(cls) -> tuple[dict[str, Any], tuple[str, ...]]:
    """A dataclass's field types, resolved once, and its fields without a default."""
    fields = dataclasses.fields(cls)
    hints = typing.get_type_hints(cls)
    required = tuple(f.name for f in fields
                     if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
    return {f.name: hints[f.name] for f in fields}, required


def _read(tp, value, path: str):
    """Build a `tp` from its JSON form; every error names the dotted `path`.

    Missing fields take the dataclass defaults. A model's ValueError comes
    back as a ConfigError prefixed with the path of its section.
    """
    leaf = _LEAVES.get(tp)
    if leaf is not None:
        return leaf(value, path)
    if tp in _SCALARS:
        try:
            return tp(_number(value, path))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    origin = typing.get_origin(tp)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(_read(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path or 'config root'} must be an object, got {value!r}")
    if origin is Mapping:
        item = typing.get_args(tp)[1]
        return {k: _read(item, v, f"{path}.{k}") for k, v in value.items()}
    types, required = _schema(tp)
    prefix = f"{path}." if path else ""
    unknown = value.keys() - types
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(f'{prefix}{k}' for k in unknown)}")
    for name in required:
        if name not in value:
            raise ConfigError(f"config must define '{prefix}{name}'")
    kwargs = {k: _read(types[k], v, prefix + k) for k, v in value.items()}
    try:
        return tp(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _plain(value):
    """The JSON form of a config value: the inverse of `_read`."""
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    doc = {name: _plain(getattr(value, name)) for name in _schema(type(value))[0]}
    return next(iter(doc.values())) if isinstance(value, _SCALARS) else doc


def load_config(path) -> ScenarioConfig:
    """Load and fully validate a scenario file; raises ConfigError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None
    return ScenarioConfig.from_dict(data)
