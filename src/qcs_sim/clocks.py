"""Local clock models for the two sites, plus the physical clock-trip baseline.

Clocks are linear: reading(t) = x0 + (1 + y) * t with optional white noise per
read. Richer noise (flicker, random walk) is deliberately out of scope; the
protocols analyzed here assume at most a constant rate offset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .quantum import canonicalize


@dataclass(frozen=True)
class ClockModel:
    """A site-local clock/oscillator.

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
        for sp, delta in self.delta_by_species.items():
            if not math.isfinite(delta):
                raise ValueError(f"delta_by_species.{sp}: delta must be finite")
        object.__setattr__(self, "delta_by_species", MappingProxyType(
            {sp: canonicalize(float(delta)) for sp, delta in self.delta_by_species.items()}))
        for name in ("x0", "y", "sigma_read"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.y <= -1.0:
            raise ValueError(f"y must be > -1, got {self.y}")
        if self.sigma_read < 0.0:
            raise ValueError(f"sigma_read must be >= 0, got {self.sigma_read}")


def basis_for(clock: ClockModel, species: str) -> float:
    """The clock's oscillator basis phase delta for a species, rad, in [0, 2*pi).

    `ScenarioConfig` checks that every configured species has an entry.
    """
    return clock.delta_by_species[species]


def read(clock: ClockModel, t_true: float, rng) -> float:
    """Clock reading at true time t_true: x0 + (1 + y)*t_true + white noise."""
    t_true = float(t_true)
    if not math.isfinite(t_true):
        raise ValueError("t_true must be finite")
    value = clock.x0 + (1.0 + clock.y) * t_true
    if clock.sigma_read > 0.0:
        value += clock.sigma_read * rng.standard_normal()
    return value


def trigger_time(clock: ClockModel, reading: float, rng) -> float:
    """True time at which the clock display reaches `reading` (inverse of read).

    With read noise, the event fires when the noisy display crosses the
    target, so one noise draw enters the inversion.
    """
    reading = float(reading)
    if not math.isfinite(reading):
        raise ValueError("reading must be finite")
    noise = 0.0
    if clock.sigma_read > 0.0:
        noise = clock.sigma_read * rng.standard_normal()
    return (reading - clock.x0 - noise) / (1.0 + clock.y)


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
        for name in ("duration", "alpha", "jitter"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")


def esct_transfer(trip: ClockTrip, rng) -> float:
    """Synchronization error carried by the transported clock on arrival."""
    error = trip.alpha
    if trip.jitter > 0.0:
        error += trip.jitter * rng.standard_normal()
    return error
