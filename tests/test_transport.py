import math

import numpy as np
import pytest

from qcs_sim import ClockTrip, ConfigError, Frequency, TransportModel
from qcs_sim.clocks import esct_transfer
from qcs_sim.quantum import EquatorialState, canonicalize
from qcs_sim.transport import transport_phase
from qcs_sim.transport import apply_transport

TWO_PI = 2 * math.pi
# the stream for calls without noise, which draw nothing from it
QUIET = np.random.default_rng(0)


def test_perfect_transport_imprints_nothing():
    m = TransportModel(beta_by_species={"cs": 0.0})
    assert transport_phase(m, "cs", Frequency(1e9), QUIET) == 0.0
    for _ in range(100):
        state, phi = apply_transport(EquatorialState(0.0), m, "cs", Frequency(1e9), QUIET)
        assert phi == 0.0 and state.theta == 0.0


def test_deterministic_phase_closed_form():
    # 1 ns of effective delay at omega = 2*pi*9.2e9 rad/s is 2*pi*9.2 rad
    m = TransportModel(alpha=1e-9, beta_by_species={"cs": 0.0})
    phi = transport_phase(m, "cs", Frequency(TWO_PI * 9.2e9), QUIET)
    assert math.isclose(phi, TWO_PI * 9.2, rel_tol=1e-12)
    # unreduced on purpose: way outside [0, 2*pi)
    assert phi > TWO_PI


def test_frequency_dependence_linearity():
    m = TransportModel(alpha=1e-9, beta_by_species={"a": 0.2, "b": 0.5})
    f1, f2 = Frequency(TWO_PI * 1.0e6), Frequency(TWO_PI * 0.7e6)
    phi1 = transport_phase(m, "a", f1, QUIET)
    phi2 = transport_phase(m, "b", f2, QUIET)
    expected = 1e-9 * (f1.omega - f2.omega) + 0.2 - 0.5
    assert math.isclose(phi1 - phi2, expected, rel_tol=1e-12)


def test_frequency_dependence_exact_for_dyadic_inputs():
    # powers of two make every product exact, so the identity holds bitwise
    m = TransportModel(alpha=2.0**-30, beta_by_species={"a": 0.0, "b": 0.0})
    f1, f2 = Frequency(2.0**22), Frequency(2.0**21)
    phi1 = transport_phase(m, "a", f1, QUIET)
    phi2 = transport_phase(m, "b", f2, QUIET)
    assert phi1 - phi2 == 2.0**-30 * (f1.omega - f2.omega)


def test_matched_trip_and_transport_imply_equal_time_error():
    # the time error implied by transport, phi/omega, is the trip error alpha
    alpha = 5e-9
    for omega in (TWO_PI * 1e6, TWO_PI * 9.2e9, 2.0**20):
        m = TransportModel(alpha=alpha, beta_by_species={"cs": 0.0})
        phi = transport_phase(m, "cs", Frequency(omega), QUIET)
        trip_error = esct_transfer(ClockTrip(duration=1.0, alpha=alpha), QUIET)
        assert math.isclose(phi / omega, trip_error, rel_tol=1e-12)
    # dyadic case is exact
    m = TransportModel(alpha=2.0**-28, beta_by_species={"cs": 0.0})
    phi = transport_phase(m, "cs", Frequency(2.0**20), QUIET)
    assert phi / 2.0**20 == esct_transfer(ClockTrip(duration=1.0, alpha=2.0**-28), QUIET)


def test_apply_transport_uniform_shift_when_noiseless():
    m = TransportModel(alpha=1e-8, beta_by_species={"cs": 0.3})
    f = Frequency(TWO_PI * 1e6)
    expected = 1e-8 * f.omega + 0.3
    shifts = []
    for theta in np.linspace(0, 6.0, 1000).tolist():
        state, phi_common = apply_transport(EquatorialState(theta), m, "cs", f, QUIET)
        assert phi_common == expected
        shifts.append((state.theta - theta) % TWO_PI)
    assert np.allclose(shifts, expected % TWO_PI, atol=1e-9)


def test_apply_transport_pair_jitter_std():
    m = TransportModel(sigma_pair=0.05, beta_by_species={"cs": 0.0})
    f = Frequency(TWO_PI * 1e6)
    rng = np.random.default_rng(17)
    n = 100_000
    thetas = np.array([apply_transport(EquatorialState(0.0), m, "cs", f, rng)[0].theta
                       for _ in range(n)])
    # all imprinted phases stay tiny, so no wrap correction is needed
    centered = np.where(thetas > math.pi, thetas - TWO_PI, thetas)
    assert abs(centered.std(ddof=1) / 0.05 - 1.0) < 0.05


def test_apply_transport_common_mode_is_shared():
    m = TransportModel(sigma_common=0.2, beta_by_species={"cs": 0.0})
    f = Frequency(TWO_PI * 1e6)
    rng = np.random.default_rng(23)
    for _ in range(50):
        # sigma_pair = 0: the pair carries exactly the common-mode phase
        state, phi_common = apply_transport(EquatorialState(0.0), m, "cs", f, rng)
        assert state.theta == canonicalize(phi_common)


def test_unknown_species_is_config_error():
    m = TransportModel(beta_by_species={"cs": 0.0})
    with pytest.raises(ConfigError, match="rb"):
        transport_phase(m, "rb", Frequency(1.0), QUIET)


def test_sigma_validation():
    with pytest.raises(ValueError):
        TransportModel(sigma_common=-0.1)
    with pytest.raises(ValueError):
        TransportModel(sigma_pair=-0.1)
