"""Scenario configuration: schema, validation, JSON round-trip.

A scenario is one JSON object whose sections mirror the model types (see
README for the field/unit reference). The dataclasses are the schema: their
fields name the keys, their annotations type the values, and their defaults
fill in what a file leaves out. Only `species` and the per-species
delta/beta entries are mandatory. One field pass (`_value`) reads a file
and starts every model's `__post_init__`, so a config built in Python is
checked and stored as a loaded one is: floats as finite `float`s, mappings
as read-only copies, `epochs.b_measure` as a tuple, and the cached
`ScenarioConfig.sha256` holds. The models then check ranges and
cross-references. Every error a file can cause is a ConfigError that names
the field by its dotted path, such as `transport.beta_by_species.cs` or
`epochs.b_measure[1]`, a repeated key included.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import numbers
import re
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

from .errors import ConfigError
from .quantum import canonicalize

_SPECIES_ID = re.compile(r"[A-Za-z0-9_]+")

#: Minimum pairs per measurement epoch. Without `use_type_i` a quadrature
#: keeps m/2 of the m type-II pairs, and m ~ Bin(N, 1/2), so a quadrature
#: falls below estimation.MIN_SAMPLES = 100 with probability
#: P(Bin(N, 1/2) < 200): 0.48 at N = 400, 5.2e-10 at N = 540.
MIN_ENSEMBLE_PER_EPOCH = 540

#: Largest magnitude of a config number; 1/MAX_MAGNITUDE is the least omega and
#: syntonize advance. No trial checks finiteness: with 1/(1 + y) <= 9e15,
#: |tau| <~ 3e117 * (1 + |z|) for a normal draw z, so omega * tau <~ 3e217 * (1 + |z|),
#: and squares summed over 10**9 trials stay below 1e245.
MAX_MAGNITUDE = 1e100

#: numpy's hypergeometric samplers, which a shuffled type list needs, take
#: fewer than 1e9 items.
MAX_SHUFFLED_ENSEMBLE = 10**9


@dataclass(frozen=True)
class ClockModel:
    """A site-local clock/oscillator (see `clocks` for its readings).

    x0        initial time offset vs. true time, s
    y         fractional frequency (rate) offset, dimensionless (> -1)
    sigma_read  white timing noise per read, s (>= 0)
    delta_by_species  oscillator basis phase per interrogated species, rad,
                      stored reduced to [0, 2*pi); a fixed unknown of the
                      apparatus, not of the measurement event
    """

    x0: float = 0.0
    y: float = 0.0
    sigma_read: float = 0.0
    delta_by_species: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        _store_fields(self)
        object.__setattr__(self, "delta_by_species", MappingProxyType(
            {sp: canonicalize(delta) for sp, delta in self.delta_by_species.items()}))
        if self.y <= -1.0:
            raise ValueError(f"y must be > -1, got {self.y}")
        if self.sigma_read < 0.0:
            raise ValueError(f"sigma_read must be >= 0, got {self.sigma_read}")


@dataclass(frozen=True)
class ClockTrip:
    """One slow physical transport of a synchronized clock to the remote site.

    duration  trip length, s (> 0); descriptive only
    alpha     deterministic time error accumulated during the trip, s
    jitter    std. dev. of the random trip error, s (>= 0)

    alpha = jitter = 0 is the perfect clock trip.
    """

    duration: float = 1.0
    alpha: float = 0.0
    jitter: float = 0.0

    def __post_init__(self):
        _store_fields(self)
        if self.duration <= 0.0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")


@dataclass(frozen=True)
class TransportModel:
    """Frequency-dependent deterministic phase plus two Gaussian jitter scales.

    alpha         effective transport delay, s; deterministic phase = alpha*omega
    beta_by_species  extra per-species phase, rad (field-sensitivity offset)
    sigma_common  std. dev. of the per-ensemble common-mode phase, rad (>= 0)
    sigma_pair    std. dev. of the independent per-pair phase, rad (>= 0)
    """

    alpha: float = 0.0
    beta_by_species: Mapping[str, float] = field(default_factory=dict)
    sigma_common: float = 0.0
    sigma_pair: float = 0.0

    def __post_init__(self):
        _store_fields(self)
        for name in ("sigma_common", "sigma_pair"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class Epochs:
    """A's announced start reading and B's measurement reading(s), s."""

    a_start: float = 0.0
    b_measure: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        _store_fields(self)
        if len(self.b_measure) == 0:
            raise ConfigError("b_measure must list at least one epoch")
        if any(b <= a for a, b in zip(self.b_measure, self.b_measure[1:])):
            raise ConfigError("b_measure must be strictly increasing")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one experiment needs; `with_run` applies a run's overrides.

    `species` maps species id -> angular frequency omega of its clock
    transition, rad/s (finite and > 0); its insertion order is meaningful
    (the first two species define the beat pair).
    """

    species: Mapping[str, float]
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
        _store_fields(self)
        if len(self.species) == 0:
            raise ConfigError("species must name at least one species")
        for sp, omega in self.species.items():
            if omega <= 0.0:
                raise ConfigError(f"species.{sp} must be > 0, got {omega}")
            if omega < 1.0 / MAX_MAGNITUDE:
                raise ConfigError(f"species.{sp} must be >= {1.0 / MAX_MAGNITUDE:g}")
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
        if self.ensemble_size > MAX_MAGNITUDE:  # a noiseless run counts in floats
            raise ConfigError(f"ensemble_size must be at most {MAX_MAGNITUDE:g}")
        if not self.noiseless and self.ensemble_size >= 2**63:  # numpy's Binomial takes a C long
            raise ConfigError(
                f"ensemble_size must be < 2**63 unless noiseless, got {self.ensemble_size}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a u64, got {self.seed}")
        for where, entries in (("clock_a.delta_by_species", self.clock_a.delta_by_species),
                               ("clock_b.delta_by_species", self.clock_b.delta_by_species),
                               ("transport.beta_by_species", self.transport.beta_by_species)):
            for sp in self.species:
                if sp not in entries:
                    raise ConfigError(f"{where} has no entry for species {sp!r}")
            for sp in entries:
                if sp not in self.species:
                    raise ConfigError(f"{where}.{sp} names no configured species")
        if self.noiseless:
            noisy = [name for name, value in (
                ("transport.sigma_common", self.transport.sigma_common),
                ("transport.sigma_pair", self.transport.sigma_pair),
                ("clock_a.sigma_read", self.clock_a.sigma_read),
                ("clock_b.sigma_read", self.clock_b.sigma_read),
                ("trip.jitter", self.trip.jitter),
                ("shuffle_type_list", self.shuffle_type_list)) if value]
            if noisy:
                raise ConfigError("noiseless mode requires zero noise parameters; offending: "
                                  + ", ".join(noisy))
        if self.shuffle_type_list and self.use_type_i:
            raise ConfigError("shuffle_type_list: a shuffled list cannot be read with use_type_i")

    def with_run(self, seed=None, trials=None) -> "ScenarioConfig":
        """A copy with a run's overrides (None keeps the stored value), checked like the fields."""
        given = {k: v for k, v in (("seed", seed), ("trials", trials)) if v is not None}
        return dataclasses.replace(self, **given) if given else self

    @functools.cached_property
    def sha256(self) -> str:
        """SHA-256 of the canonical JSON form: the manifest's config_sha256."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- (de)serialization ------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return _plain(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        return _value(cls, data, "")


def _int(value, where) -> int:
    """An integer (numpy's too), or an integral float such as 1e6."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


@functools.cache
def _schema(cls) -> tuple[dict[str, Any], tuple[str, ...], frozenset[str]]:
    """A dataclass's field types, resolved once; its fields without a default; its sections."""
    fields = dataclasses.fields(cls)
    hints = typing.get_type_hints(cls)
    required = tuple(f.name for f in fields
                     if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
    sections = frozenset(f.name for f in fields if dataclasses.is_dataclass(hints[f.name]))
    return {f.name: hints[f.name] for f in fields}, required, sections


def _value(tp, value, where: str):
    """`value` checked and stored as a `tp`; every error names the dotted `where`.

    A JSON object arrives as its `_Pairs` and becomes a dict, one key each,
    before any other check. Tuple and mapping entries are floats, each named
    by its own path (`epochs.b_measure[1]`, `transport.beta_by_species.cs`).
    A section is built from its JSON object, with the dataclass defaults for
    missing fields; the model's ValueError comes back prefixed with `where`.
    """
    prefix = f"{where}." if where else ""
    if isinstance(value, _Pairs):
        obj = dict(value)
        if len(obj) < len(value):
            keys = [k for k, _ in value]
            raise ConfigError(f"{prefix}{next(k for k in obj if keys.count(k) > 1)} is repeated")
        value = obj
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an int beyond float range reads as JSON's 1e999 does
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"{where} must be finite")
        if abs(number) > MAX_MAGNITUDE:
            raise ConfigError(f"{where} must be at most {MAX_MAGNITUDE:g} in magnitude")
        if isinstance(value, numbers.Integral) and number != int(value):
            raise ConfigError(f"{where} is an integer that no float holds exactly, got {value!r}")
        return number
    if tp is int:
        return _int(value, where)
    if tp is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false, got {value!r}")
        return value
    origin = typing.get_origin(tp)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return tuple(_value(float, v, f"{where}[{i}]") for i, v in enumerate(value))
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where or 'config root'} must be an object, got {value!r}")
    if origin is Mapping:
        bad = [k for k in value if not isinstance(k, str)]
        if bad:
            raise ConfigError(f"{where} keys must be strings, got {bad!r}")
        return MappingProxyType({k: _value(float, v, f"{where}.{k}") for k, v in value.items()})
    types, required, sections = _schema(tp)
    unknown = value.keys() - types
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(f'{prefix}{k}' for k in unknown)}")
    for name in required:
        if name not in value:
            raise ConfigError(f"config must define '{prefix}{name}'")
    kwargs = {k: _value(types[k], v, prefix + k) if k in sections else v for k, v in value.items()}
    try:
        return tp(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _store_fields(model) -> None:
    """The field pass each model's `__post_init__` starts with; a section must be its model."""
    types, _, sections = _schema(type(model))
    for name, tp in types.items():
        value = getattr(model, name)
        if name not in sections:
            object.__setattr__(model, name, _value(tp, value, name))
        elif not isinstance(value, tp):
            raise ConfigError(f"{name} must be of type {tp.__name__}, got {value!r}")


def _plain(value):
    """The JSON form of a config value: the inverse of `_value`."""
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    return {name: _plain(getattr(value, name)) for name in _schema(type(value))[0]}


class _Pairs(list):
    """A JSON object's (key, value) pairs as `load_config` reads them; `_value` makes the dict."""


def load_config(path) -> ScenarioConfig:
    """Load and fully validate a scenario file; raises ConfigError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_Pairs)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None
    return ScenarioConfig.from_dict(data)
