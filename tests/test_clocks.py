import math

import numpy as np
import pytest

from qcs_sim import BasisPhase, ClockModel, ClockTrip, ConfigError
from qcs_sim.clocks import basis_for, esct_transfer, read, trigger_time

# the stream for calls without noise, which draw nothing from it
QUIET = np.random.default_rng(0)


def test_perfect_clock_reads_true_time():
    c = ClockModel()
    assert read(c, 5.0, QUIET) == 5.0


def test_linear_clock_closed_form():
    c = ClockModel(x0=1e-6, y=1e-9)
    assert read(c, 1000.0, QUIET) == 1e-6 + 1000.0 * (1 + 1e-9)


def test_read_linearity_without_noise():
    c = ClockModel(x0=0.37, y=2.5e-7)
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.uniform(-1e4, 1e4, 2)
        diff = read(c, a + b, rng) - read(c, a, rng)
        assert math.isclose(diff, (1 + c.y) * b, rel_tol=1e-9, abs_tol=1e-10)
    # dyadic inputs make every product and sum exact, so the identity is bitwise
    c = ClockModel(x0=2.0**-3, y=2.0**-20)
    a, b = 2.0**10, 2.0**4
    assert read(c, a + b, rng) - read(c, a, rng) == (1 + c.y) * b


def test_read_noise_std():
    c = ClockModel(sigma_read=1e-9)
    rng = np.random.default_rng(12)
    samples = np.array([read(c, 3.0, rng) for _ in range(10_000)])
    assert 0.9e-9 < samples.std(ddof=1) < 1.1e-9


def test_trigger_time_inverts_read():
    c = ClockModel(x0=-2.5e-6, y=3e-8)
    for reading in (-3.0, 0.0, 17.25):
        t_true = trigger_time(c, reading, QUIET)
        assert math.isclose(read(c, t_true, QUIET), reading, rel_tol=1e-15)


def test_delta_lookup_is_total():
    c = ClockModel(delta_by_species={"cs": BasisPhase(0.4)})
    assert basis_for(c, "cs").delta == 0.4
    with pytest.raises(ConfigError, match="rb"):
        basis_for(c, "rb")


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
