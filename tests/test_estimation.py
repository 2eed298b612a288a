import math

import numpy as np
import pytest

from qcs_sim import (
    AmbiguityError,
    DegenerateCountsError,
    Frequency,
    InsufficientSamplesError,
)
from qcs_sim.estimation import (
    PhaseEstimate,
    check_rate_ambiguity,
    estimate_phase,
    estimate_rate,
    wrap_pi,
)
from qcs_sim.quantum import canonicalize, prob_pos

from amplitude_oracle import circular_diff

TWO_PI = 2 * math.pi
HALF_PI = math.pi / 2


def quadrature_records(theta, delta0, n0, n1, rng=None):
    """Counts for one state read out at delta0 and delta0 + pi/2.

    Returns estimate_phase's arguments (n0, k0, delta0, n1, k1, delta1). With
    rng=None the counts are the exact expectations (idealized counts).
    """
    s = canonicalize(theta)
    b0, b1 = canonicalize(delta0), canonicalize(delta0 + HALF_PI)
    p0, p1 = prob_pos(s, b0), prob_pos(s, b1)
    if rng is None:
        k0, k1 = n0 * p0, n1 * p1
    else:
        k0, k1 = int(rng.binomial(n0, p0)), int(rng.binomial(n1, p1))
    return n0, k0, b0, n1, k1, b1


# -- wrap helper -----------------------------------------------------------------


def test_wrap_pi_range_and_edges():
    assert wrap_pi(math.pi) == math.pi
    assert wrap_pi(-math.pi) == math.pi
    assert wrap_pi(3 * math.pi) == math.pi
    assert abs(wrap_pi(0.1) - 0.1) < 1e-15
    rng = np.random.default_rng(2)
    for x in rng.uniform(-100, 100, 5000).tolist():
        assert -math.pi < wrap_pi(x) <= math.pi


# -- record validation -------------------------------------------------------------


def test_record_validation():
    # each bad (n, k_pos) is rejected in either quadrature, before the
    # sample-size check could reject n = 10 for another reason
    good = (1000, 500)
    for (n, k_pos), message in (((0, 0), "n must be >= 1"), ((10, 11), "k_pos must be in"),
                                ((10, -1), "k_pos must be in"), ((math.nan, 0), "n must be >= 1"),
                                ((math.inf, 0), "n must be >= 1"),
                                ((10, math.nan), "k_pos must be in")):
        with pytest.raises(ValueError, match=message):
            estimate_phase(n, k_pos, 0.0, *good, HALF_PI)
        with pytest.raises(ValueError, match=message):
            estimate_phase(*good, 0.0, n, k_pos, HALF_PI)


# -- phase estimation ----------------------------------------------------------------


def test_noiseless_plugin_is_exact_at_quarter_turn():
    # theta = pi/2, delta = 0: exact counts are k0/n0 = cos^2(pi/4) = 1/2 and
    # k1/n1 = 1, so c = 0, s = 1 and atan2 hits the axis exactly
    est = estimate_phase(1000, 500, 0.0, 1000, 1000, HALF_PI)
    assert est.theta_hat == HALF_PI
    assert est.sigma_theta > 0.0
    assert est.n_used == 2000


def test_quadrature_completeness_on_idealized_records():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        theta = rng.uniform(0, TWO_PI)
        delta = rng.uniform(0, TWO_PI)
        est = estimate_phase(*quadrature_records(theta, delta, 10_000, 10_000))
        assert abs(circular_diff(est.theta_hat, theta)) < 1e-12


def test_estimate_against_binomial_sampling_at_known_truth():
    # truth aligned with the first basis: c ~ 1, s ~ 0
    rng = np.random.default_rng(101)
    delta = 0.8
    est = estimate_phase(*quadrature_records(delta, delta, 1_000_000, 1_000_000, rng))
    assert abs(circular_diff(est.theta_hat, delta)) < 3 * est.sigma_theta


def test_estimates_land_on_correct_side_of_wrap():
    rng = np.random.default_rng(55)
    for theta in (1e-4, TWO_PI - 1e-4):
        est = estimate_phase(*quadrature_records(theta, 0.0, 1_000_000, 1_000_000, rng))
        assert abs(circular_diff(est.theta_hat, theta)) < HALF_PI


def test_sigma_scaling_follows_inverse_sqrt_n():
    rng = np.random.default_rng(77)
    n = 4000
    ratios = []
    for _ in range(100):
        theta = rng.uniform(0, TWO_PI)
        delta = rng.uniform(0, TWO_PI)
        single = quadrature_records(theta, delta, n, n, rng)
        double = quadrature_records(theta, delta, 2 * n, 2 * n, rng)
        ratios.append(
            estimate_phase(*double).sigma_theta / estimate_phase(*single).sigma_theta
        )
    assert 0.69 < np.mean(ratios) < 0.73


def test_sigma_positive_even_at_count_extremes():
    counts = quadrature_records(0.3, 0.3, 500, 500)  # p0 = 1 exactly
    n0, k0 = counts[:2]
    assert k0 == n0
    assert estimate_phase(*counts).sigma_theta > 0.0


def test_bases_must_be_in_quadrature():
    with pytest.raises(ValueError, match="quadrature"):
        estimate_phase(1000, 500, 0.0, 1000, 500, HALF_PI + 1e-6)
    # tolerance admits 1e-10 of slack
    estimate_phase(1000, 500, 0.0, 1000, 400, HALF_PI + 1e-10)


def test_non_finite_basis_phase_is_not_in_quadrature():
    # float basis phases arrive unchecked, so a NaN must not pass the gap test
    for delta0, delta1 in ((math.nan, HALF_PI), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(ValueError, match="quadrature"):
            estimate_phase(1000, 500, delta0, 1000, 400, delta1)


def test_insufficient_samples():
    counts = quadrature_records(0.2, 0.0, 99, 1000)
    with pytest.raises(InsufficientSamplesError):
        estimate_phase(*counts)


def test_degenerate_counts_raise():
    with pytest.raises(DegenerateCountsError):
        estimate_phase(1_000_000, 500_000, 0.0, 1_000_000, 500_000, HALF_PI)


# -- rate estimation -------------------------------------------------------------------


def rate_records(y, omega, t1, t2, n=100_000, common_phase=0.0):
    """Idealized phase estimates for a clock running fast by y."""
    ests = []
    for t in (t1, t2):
        tau = t / (1 + y)  # true elapsed time when the local clock shows t
        theta = common_phase - omega * tau
        ests.append(estimate_phase(*quadrature_records(theta, 0.0, n, n)))
    return ests


def test_rate_zero_for_perfect_clock():
    f = Frequency(TWO_PI * 1e6)
    e1, e2 = rate_records(0.0, f.omega, 1e-3, 2e-3)
    rate = estimate_rate(e1, 1e-3, e2, 2e-3, f)
    assert abs(rate.y_hat) < 1e-12
    assert rate.sigma_y > 0.0


def test_rate_recovers_configured_offset():
    f = Frequency(TWO_PI * 1e6)
    y = 1e-9
    t1, t2 = 0.0012, 0.0012 + 0.5 / (f.omega * y)  # half a radian of advance
    e1, e2 = rate_records(y, f.omega, t1, t2)
    rate = estimate_rate(e1, t1, e2, t2, f)
    # idealized counts: accurate to the y^2 linearization and float dust
    assert abs(rate.y_hat - y) < 1e-15 + y * y


def test_rate_invariant_under_common_phase():
    f = Frequency(TWO_PI * 1e6)
    y = 1e-9
    t1, t2 = 0.0012, 0.0012 + 0.5 / (f.omega * y)
    base = estimate_rate(*_interleave(rate_records(y, f.omega, t1, t2), t1, t2), f)
    for phi in (1.0, 2.0, 4.0):
        shifted = estimate_rate(
            *_interleave(rate_records(y, f.omega, t1, t2, common_phase=phi), t1, t2), f
        )
        assert abs(shifted.y_hat - base.y_hat) < 1e-13


def _interleave(ests, t1, t2):
    return ests[0], t1, ests[1], t2


def test_rate_epoch_ordering():
    e = PhaseEstimate(0.0, 1e-3, 1000)
    with pytest.raises(ValueError):
        estimate_rate(e, 2.0, e, 1.0, Frequency(1.0))


def test_ambiguity_guard():
    check_rate_ambiguity(TWO_PI * 1e6, 1e-12, 1.0)  # comfortably inside
    with pytest.raises(AmbiguityError):
        check_rate_ambiguity(TWO_PI * 1e6, 1e-6, 1.0)  # ~6.3 rad of walk
