"""When the two sites' local clocks reach a reading, plus the physical clock-trip baseline.

Clocks are linear: a clock displays x0 + (1 + y) * t at true time t, with
optional white noise per read, and `trigger_time` inverts that display.
Richer noise (flicker, random walk) is deliberately out of scope; the
protocols analyzed here assume at most a constant rate offset. The models,
`ClockModel` and `ClockTrip`, are config sections and live in `config`.
"""
from __future__ import annotations

from .config import ClockModel, ClockTrip


def basis_for(clock: ClockModel, species: str) -> float:
    """The clock's oscillator basis phase delta for a species, rad, in [0, 2*pi).

    `ScenarioConfig` checks that every configured species has an entry.
    """
    return clock.delta_by_species[species]


def trigger_time(clock: ClockModel, reading: float, rng) -> float:
    """True time at which the display x0 + (1 + y)*t reaches `reading`.

    With read noise, the event fires when the noisy display crosses the
    target, so one noise draw enters the inversion. Unchecked: see `config.MAX_MAGNITUDE`.
    """
    noise = 0.0
    if clock.sigma_read > 0.0:
        noise = clock.sigma_read * rng.standard_normal()
    return (reading - clock.x0 - noise) / (1.0 + clock.y)


def esct_transfer(trip: ClockTrip, rng) -> float:
    """Synchronization error carried by the transported clock on arrival."""
    error = trip.alpha
    if trip.jitter > 0.0:
        error += trip.jitter * rng.standard_normal()
    return error
