import math

import numpy as np
import pytest

from qcs_sim.quantum import EquatorialState, canonicalize, evolve, imprint_phase, prob_pos
from qcs_sim.quantum import BasisPhase, collapse_singlet

from amplitude_oracle import (
    circular_diff,
    evolve_amplitudes,
    prob_pos_amplitudes,
    relative_phase,
    state_from_theta,
)
from quantum_helpers import NEG, POS, prob_neg, ramsey_prob

TWO_PI = 2 * math.pi


class FakeRng:
    """Returns preset uniforms, for forcing collapse outcomes."""

    def __init__(self, *values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


# -- canonicalization --------------------------------------------------------


def test_canonicalize_range_over_random_inputs():
    rng = np.random.default_rng(7)
    for theta in rng.uniform(-1e7, 1e7, 20_000).tolist():
        out = canonicalize(theta)
        assert 0.0 <= out < TWO_PI


def test_canonicalize_edge_cases():
    assert canonicalize(TWO_PI) == 0.0
    assert canonicalize(0.0) == 0.0
    # tiny negative values must fold to 0, not round up to 2*pi
    assert canonicalize(-1e-18) == 0.0
    assert canonicalize(-0.0) == 0.0
    assert math.isclose(canonicalize(-7.0), -7.0 + 2 * TWO_PI, rel_tol=1e-15)


def test_state_theta_is_always_canonical():
    s = EquatorialState(17.5)
    assert 0.0 <= s.theta < TWO_PI
    theta = imprint_phase(5.5, 1.5)
    assert math.isclose(theta, 5.5 + 1.5 - TWO_PI, rel_tol=1e-15)


def test_state_holds_one_angle_not_an_ensemble():
    with pytest.raises(TypeError):
        EquatorialState(np.zeros(4))


# -- evolution ----------------------------------------------------------------


def test_evolve_identity_at_tau_zero():
    omega = 2 * math.pi * 10.0
    assert evolve(POS, omega, 0.0) == 0.0


def test_evolve_half_period_maps_neg_to_pos():
    omega = 2 * math.pi * 10.0
    tau = math.pi / omega  # omega * tau = pi
    assert abs(evolve(NEG, omega, tau)) < 1e-12


def test_evolve_closed_form_against_matrix_exponential():
    # theta = 0.3 evolved by omega*tau = pi lands at canonicalize(0.3 - pi)
    omega = 2 * math.pi * 10.0
    got = evolve(0.3, omega, 0.05)
    assert math.isclose(got, 0.3 - math.pi + TWO_PI, rel_tol=1e-12)
    amps = evolve_amplitudes(state_from_theta(0.3), omega, 0.05, e0=1.7)
    assert abs(circular_diff(got, relative_phase(amps))) < 1e-10


def test_evolve_negative_tau_rewinds():
    omega = 3.0
    s = evolve(1.0, omega, 2.5)
    back = evolve(s, omega, -2.5)
    assert abs(circular_diff(back, 1.0)) < 1e-12


def test_evolve_is_additive_in_tau():
    omega = 2 * math.pi * 3.7
    rng = np.random.default_rng(11)
    for _ in range(500):
        theta = rng.uniform(0, TWO_PI)
        a, b = rng.uniform(-50, 50, 2)
        two_step = evolve(evolve(theta, omega, a), omega, b)
        one_step = evolve(theta, omega, a + b)
        assert abs(circular_diff(two_step, one_step)) < 1e-12


# -- imprinting ---------------------------------------------------------------


def test_imprint_trivia():
    assert imprint_phase(POS, 0.0) == 0.0
    assert math.isclose(imprint_phase(1.0, TWO_PI), 1.0, rel_tol=1e-15)


def test_imprint_wraps_each_phi_into_range():
    thetas = [imprint_phase(POS, phi) for phi in (0.0, 1.0, -1.0, 7.0)]
    assert np.allclose(thetas, [0.0, 1.0, TWO_PI - 1.0, 7.0 - TWO_PI])


# -- measurement probabilities -------------------------------------------------


def test_prob_pos_trivia():
    assert prob_pos(POS, 0.0) == 1.0
    assert prob_pos(NEG, 0.0) < 1e-30


def test_prob_pos_of_evolved_neg_state():
    # collapsed neg partner evolved for tau reads sin^2(omega*tau/2) in the
    # delta = 0 basis; cross-checked with explicit complex amplitudes
    omega = 2 * math.pi * 5.0
    for tau in (0.0, 0.013, 0.27, 1.9):
        s = evolve(NEG, omega, tau)
        got = prob_pos(s, 0.0)
        assert math.isclose(got, math.sin(omega * tau / 2) ** 2, abs_tol=1e-12)
        amps = evolve_amplitudes(state_from_theta(math.pi), omega, tau, e0=0.4)
        assert abs(got - prob_pos_amplitudes(amps, 0.0)) < 1e-10


def test_probability_completeness():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        s = rng.uniform(0, TWO_PI)
        delta = rng.uniform(0, TWO_PI)
        # the neg outcome is the exact complement by construction
        assert prob_pos(s, delta) + prob_neg(s, delta) == 1.0
        # the delta + pi basis vector is the orthogonal outcome
        total = prob_pos(s, delta) + prob_pos(s, canonicalize(delta + math.pi))
        assert abs(total - 1.0) < 1e-12


def test_full_amplitude_oracle_equivalence_10k():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        theta = rng.uniform(0, TWO_PI)
        delta = rng.uniform(0, TWO_PI)
        tau = rng.uniform(-10, 10)
        omega = rng.uniform(0.1, 100.0)
        e0 = rng.uniform(-5, 5)
        s = evolve(theta, omega, tau)
        amps = evolve_amplitudes(state_from_theta(theta), omega, tau, e0=e0)
        assert abs(circular_diff(s, relative_phase(amps))) < 1e-10
        assert abs(prob_pos(s, delta) - prob_pos_amplitudes(amps, delta)) < 1e-10


# -- singlet collapse ----------------------------------------------------------


def test_collapse_forced_outcomes():
    out = collapse_singlet(BasisPhase(0.0), FakeRng(0.2))
    assert out.type_i is True and math.isclose(out.state_b.theta, math.pi)
    out = collapse_singlet(BasisPhase(0.0), FakeRng(0.9))
    assert out.type_i is False and out.state_b.theta == 0.0
    out = collapse_singlet(BasisPhase(1.3), FakeRng(0.1))
    assert math.isclose(out.state_b.theta, 1.3 + math.pi, rel_tol=1e-15)


def test_singlet_anticorrelation_in_any_common_basis():
    rng = np.random.default_rng(5)
    for _ in range(200):
        basis = BasisPhase(rng.uniform(0, TWO_PI))
        out = collapse_singlet(basis, rng)
        # probability that B's outcome matches A's in the same basis
        theta_b, delta = out.state_b.theta, basis.delta
        p_match = prob_pos(theta_b, delta) if out.type_i else prob_neg(theta_b, delta)
        assert p_match < 1e-12


# -- two-pulse fringe -----------------------------------------------------------


def test_ramsey_resonant_is_dark_time_independent():
    omega = 2 * math.pi * 9.2e9
    for T in (0.0, 1.0, 10.0, 100.0):
        assert abs(ramsey_prob(omega, omega, T, 0.0) - 1.0) <= 1e-12


def test_ramsey_antinode_and_quadrature():
    omega = 100.0
    detuning = 0.5
    T = math.pi / detuning
    assert abs(ramsey_prob(omega, omega - detuning, T, 0.0)) < 1e-12
    assert math.isclose(ramsey_prob(omega, omega, 5.0, math.pi / 2), 0.5, rel_tol=1e-12)


def test_ramsey_rejects_negative_dark_time():
    with pytest.raises(ValueError):
        ramsey_prob(1.0, 1.0, -1.0)
