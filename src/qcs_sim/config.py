"""Scenario configuration: schema, validation, JSON round-trip.

A scenario is one JSON object whose sections mirror the model types (see
README for the field/unit reference). Only `species` and the per-species
delta/beta entries are mandatory; everything else has perfect-model defaults.
Validation is strict: unknown keys, missing cross-references and out-of-range
values all raise ConfigError naming the offending field.
"""
from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass, field
from typing import Any, Mapping

_SPECIES_ID = re.compile(r"[A-Za-z0-9_]+")

from .clocks import ClockModel, ClockTrip
from .errors import ConfigError
from .quantum import BasisPhase, Frequency
from .transport import TransportModel

#: Minimum pairs per measurement epoch (>= 100 per quadrature after the
#: ~50% type-II selection).
MIN_ENSEMBLE_PER_EPOCH = 400

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
    """Everything one experiment needs, minus the CLI-level seed override.

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
            raise ConfigError("at least one species must be configured")
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

    # -- (de)serialization ------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "species": {sp: f.omega for sp, f in self.species.items()},
            "ensemble_size": self.ensemble_size,
            "clock_a": _clock_to_dict(self.clock_a),
            "clock_b": _clock_to_dict(self.clock_b),
            "transport": {
                "alpha": self.transport.alpha,
                "beta_by_species": dict(self.transport.beta_by_species),
                "sigma_common": self.transport.sigma_common,
                "sigma_pair": self.transport.sigma_pair,
            },
            "trip": {
                "duration": self.trip.duration,
                "alpha": self.trip.alpha,
                "jitter": self.trip.jitter,
            },
            "epochs": {"a_start": self.epochs.a_start, "b_measure": list(self.epochs.b_measure)},
            "seed": self.seed,
            "trials": self.trials,
            "use_type_i": self.use_type_i,
            "shuffle_type_list": self.shuffle_type_list,
            "noiseless": self.noiseless,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        if not isinstance(data, Mapping):
            raise ConfigError("config root must be an object")
        known = {
            "species", "ensemble_size", "clock_a", "clock_b", "transport",
            "trip", "epochs", "seed", "trials", "use_type_i",
            "shuffle_type_list", "noiseless",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "species" not in data:
            raise ConfigError("config must define 'species'")

        species = {}
        for sp, omega in _section(data, "species").items():
            try:
                species[sp] = Frequency(_number(omega, f"species.{sp}"))
            except ValueError as exc:
                raise ConfigError(f"species.{sp}: {exc}") from None
        try:
            clock_a = _clock_from_dict(_section(data, "clock_a", {}), "clock_a")
            clock_b = _clock_from_dict(_section(data, "clock_b", {}), "clock_b")
            transport = _transport_from_dict(_section(data, "transport", {}))
            trip = _trip_from_dict(_section(data, "trip", {}))
            epochs = _epochs_from_dict(_section(data, "epochs", {}))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cls(
            species=species,
            ensemble_size=_int(data.get("ensemble_size", 100_000), "ensemble_size"),
            clock_a=clock_a,
            clock_b=clock_b,
            transport=transport,
            trip=trip,
            epochs=epochs,
            seed=_int(data.get("seed", 0), "seed"),
            trials=_int(data.get("trials", 100), "trials"),
            use_type_i=_bool(data.get("use_type_i", False), "use_type_i"),
            shuffle_type_list=_bool(data.get("shuffle_type_list", False), "shuffle_type_list"),
            noiseless=_bool(data.get("noiseless", False), "noiseless"),
        )


def _section(data, key, default=None):
    value = data.get(key, default)
    if value is None:
        raise ConfigError(f"config must define '{key}'")
    if not isinstance(value, Mapping):
        raise ConfigError(f"config section '{key}' must be an object")
    return value


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


def _check_keys(section, allowed, where):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in '{where}': {sorted(unknown)}")


def _clock_to_dict(clock: ClockModel) -> dict[str, Any]:
    return {
        "x0": clock.x0,
        "y": clock.y,
        "sigma_read": clock.sigma_read,
        "delta_by_species": {sp: b.delta for sp, b in clock.delta_by_species.items()},
    }


def _clock_from_dict(section, where) -> ClockModel:
    _check_keys(section, ("x0", "y", "sigma_read", "delta_by_species"), where)
    deltas = {
        sp: BasisPhase(_number(d, f"{where}.delta_by_species.{sp}"))
        for sp, d in section.get("delta_by_species", {}).items()
    }
    return ClockModel(
        x0=_number(section.get("x0", 0.0), f"{where}.x0"),
        y=_number(section.get("y", 0.0), f"{where}.y"),
        sigma_read=_number(section.get("sigma_read", 0.0), f"{where}.sigma_read"),
        delta_by_species=deltas,
    )


def _transport_from_dict(section) -> TransportModel:
    _check_keys(
        section, ("alpha", "beta_by_species", "sigma_common", "sigma_pair"), "transport"
    )
    betas = {
        sp: _number(b, f"transport.beta_by_species.{sp}")
        for sp, b in section.get("beta_by_species", {}).items()
    }
    return TransportModel(
        alpha=_number(section.get("alpha", 0.0), "transport.alpha"),
        beta_by_species=betas,
        sigma_common=_number(section.get("sigma_common", 0.0), "transport.sigma_common"),
        sigma_pair=_number(section.get("sigma_pair", 0.0), "transport.sigma_pair"),
    )


def _trip_from_dict(section) -> ClockTrip:
    _check_keys(section, ("duration", "alpha", "jitter"), "trip")
    return ClockTrip(
        duration=_number(section.get("duration", 1.0), "trip.duration"),
        alpha=_number(section.get("alpha", 0.0), "trip.alpha"),
        jitter=_number(section.get("jitter", 0.0), "trip.jitter"),
    )


def _epochs_from_dict(section) -> Epochs:
    _check_keys(section, ("a_start", "b_measure"), "epochs")
    b_measure = section.get("b_measure", [1.0])
    if not isinstance(b_measure, (list, tuple)):
        raise ConfigError("epochs.b_measure must be a list")
    return Epochs(
        a_start=_number(section.get("a_start", 0.0), "epochs.a_start"),
        b_measure=tuple(_number(t, "epochs.b_measure[]") for t in b_measure),
    )


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
