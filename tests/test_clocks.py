import math

import numpy as np
import pytest

from qcs_sim import ClockModel, ClockTrip
from qcs_sim.clocks import basis_for, esct_transfer, trigger_time
from qcs_sim.quantum import canonicalize

# the stream for calls without noise, which draw nothing from it
QUIET = np.random.default_rng(0)


def test_perfect_clock_reads_true_time():
    c = ClockModel()
    assert trigger_time(c, 5.0, QUIET) == 5.0


def test_linear_clock_closed_form():
    c = ClockModel(x0=1e-6, y=1e-9)
    assert trigger_time(c, 1000.0, QUIET) == (1000.0 - 1e-6) / (1 + 1e-9)


def test_read_linearity_without_noise():
    c = ClockModel(x0=0.37, y=2.5e-7)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.uniform(-1e4, 1e4, 2)
        diff = trigger_time(c, a + b, rng) - trigger_time(c, a, rng)
        assert math.isclose(diff, b / (1 + c.y), rel_tol=1e-9, abs_tol=1e-10)
    # dyadic inputs and 1 + y = 2 make every difference and quotient exact,
    # so the identity is bitwise
    c = ClockModel(x0=2.0**-3, y=1.0)
    a, b = 2.0**10, 2.0**4
    assert trigger_time(c, a + b, rng) - trigger_time(c, a, rng) == b / (1 + c.y)


def test_read_noise_std():
    # one read-noise draw, seen on the true-time axis: std sigma_read / (1 + y)
    c = ClockModel(sigma_read=1e-9, y=0.25)
    rng = np.random.default_rng(12)
    samples = np.array([trigger_time(c, 3.0, rng) for _ in range(10_000)])
    assert 0.9 * 0.8e-9 < samples.std(ddof=1) < 1.1 * 0.8e-9


def test_trigger_time_inverts_read():
    # the oracle is the clock's display model, reading(t) = x0 + (1 + y) * t
    c = ClockModel(x0=-2.5e-6, y=3e-8)
    for reading in (-3.0, 0.0, 17.25):
        t_true = trigger_time(c, reading, QUIET)
        assert math.isclose(c.x0 + (1 + c.y) * t_true, reading, rel_tol=1e-15)


def test_delta_lookup_is_total():
    # a species with no entry is ScenarioConfig's error (test_missing_delta_names_species)
    c = ClockModel(delta_by_species={"cs": 0.4, "rb": -0.4})
    assert basis_for(c, "cs") == 0.4
    assert basis_for(c, "rb") == canonicalize(-0.4) == 2 * math.pi - 0.4


def test_sigma_read_must_be_nonnegative():
    with pytest.raises(ValueError):
        ClockModel(sigma_read=-1e-9)


# -- the slow clock trip --------------------------------------------------------


def test_perfect_trip_transfers_exactly():
    assert esct_transfer(ClockTrip(duration=100.0), QUIET) == 0.0


def test_deterministic_trip_error():
    assert esct_transfer(ClockTrip(duration=100.0, alpha=3e-9), QUIET) == 3e-9


def test_trip_jitter_half_normal_mean():
    trip = ClockTrip(duration=10.0, jitter=1e-9)
    rng = np.random.default_rng(21)
    errors = np.abs([esct_transfer(trip, rng) for _ in range(10_000)])
    expected = 1e-9 * math.sqrt(2 / math.pi)
    se = 1e-9 * math.sqrt(1 - 2 / math.pi) / math.sqrt(10_000)
    assert abs(errors.mean() - expected) < 3 * se


def test_trip_validation():
    with pytest.raises(ValueError):
        ClockTrip(duration=0.0)
    with pytest.raises(ValueError):
        ClockTrip(duration=1.0, jitter=-1.0)
