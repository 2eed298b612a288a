import math

import numpy as np
import pytest

from qcs_sim import ConfigError, DegenerateCountsError
from qcs_sim.estimation import (
    MIN_SAMPLES,
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

    Returns estimate_phase's arguments (n0, k0, n1, k1, delta0). With
    rng=None the counts are the exact expectations (idealized counts).
    """
    s = canonicalize(theta)
    b0, b1 = canonicalize(delta0), canonicalize(delta0 + HALF_PI)
    p0, p1 = prob_pos(s, b0), prob_pos(s, b1)
    if rng is None:
        k0, k1 = n0 * p0, n1 * p1
    else:
        k0, k1 = int(rng.binomial(n0, p0)), int(rng.binomial(n1, p1))
    return n0, k0, n1, k1, b0


# -- wrap helper -----------------------------------------------------------------


def test_wrap_pi_range_and_edges():
    assert wrap_pi(math.pi) == math.pi
    assert wrap_pi(-math.pi) == math.pi
    assert wrap_pi(3 * math.pi) == math.pi
    assert abs(wrap_pi(0.1) - 0.1) < 1e-15
    rng = np.random.default_rng(2)
    for x in rng.uniform(-100, 100, 5000).tolist():
        assert -math.pi < wrap_pi(x) <= math.pi


# -- phase estimation ----------------------------------------------------------------


def test_noiseless_plugin_is_exact_at_quarter_turn():
    # theta = pi/2, delta = 0: exact counts are k0/n0 = cos^2(pi/4) = 1/2 and
    # k1/n1 = 1, so c = 0, s = 1 and atan2 hits the axis exactly
    est = estimate_phase(1000, 500, 1000, 1000, 0.0)
    assert est.theta_hat == HALF_PI
    assert est.sigma_theta > 0.0
    assert est.n_used == 2000


@pytest.mark.parametrize("counts", [(1000, 700, 1001, 1001), (500.5, 375.25, 500.5, 0.0)],
                         ids=["drawn", "expected"])
def test_estimate_carries_the_counts_it_read(counts):
    # the record is the whole readout: its counts come back as given, type
    # and all, and n_used is the pairs of both quadratures
    est = estimate_phase(*counts, 0.3)
    assert (est.n0, est.k0, est.n1, est.k1) == est[2:] == counts
    assert [type(v) for v in est[2:]] == [type(v) for v in counts]
    assert est.n_used == counts[0] + counts[2] and type(est.n_used) is type(counts[0])


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


def test_insufficient_samples():
    counts = quadrature_records(0.2, 0.0, 99, 1000)
    with pytest.raises(DegenerateCountsError):
        estimate_phase(*counts)


def test_exactly_min_samples_per_quadrature_estimates():
    # MIN_SAMPLES is the only small-sample guard: 100 pairs in each quadrature
    # estimate, one fewer in either does not
    assert MIN_SAMPLES == 100
    est = estimate_phase(*quadrature_records(0.2, 0.0, 100, 100))
    assert abs(circular_diff(est.theta_hat, 0.2)) < 1e-12
    for n0, n1 in ((99, 100), (100, 99)):
        with pytest.raises(DegenerateCountsError, match=f"got {n0} and {n1}$"):
            estimate_phase(*quadrature_records(0.2, 0.0, n0, n1))


def test_degenerate_counts_raise():
    with pytest.raises(DegenerateCountsError):
        estimate_phase(1_000_000, 500_000, 1_000_000, 500_000, 0.0)


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
    omega = TWO_PI * 1e6
    e1, e2 = rate_records(0.0, omega, 1e-3, 2e-3)
    y_hat, sigma_y = estimate_rate(e1, 1e-3, e2, 2e-3, omega)
    assert abs(y_hat) < 1e-12
    assert sigma_y > 0.0


def test_rate_recovers_configured_offset():
    omega = TWO_PI * 1e6
    y = 1e-9
    t1, t2 = 0.0012, 0.0012 + 0.5 / (omega * y)  # half a radian of advance
    e1, e2 = rate_records(y, omega, t1, t2)
    y_hat, _ = estimate_rate(e1, t1, e2, t2, omega)
    # idealized counts: accurate to the y^2 linearization and float dust
    assert abs(y_hat - y) < 1e-15 + y * y


def test_rate_invariant_under_common_phase():
    omega = TWO_PI * 1e6
    y = 1e-9
    t1, t2 = 0.0012, 0.0012 + 0.5 / (omega * y)
    base, _ = estimate_rate(*_interleave(rate_records(y, omega, t1, t2), t1, t2), omega)
    for phi in (1.0, 2.0, 4.0):
        shifted, _ = estimate_rate(
            *_interleave(rate_records(y, omega, t1, t2, common_phase=phi), t1, t2), omega
        )
        assert abs(shifted - base) < 1e-13


def _interleave(ests, t1, t2):
    return ests[0], t1, ests[1], t2


def test_ambiguity_guard():
    check_rate_ambiguity(TWO_PI * 1e6, 1e-12, 1.0)  # comfortably inside
    with pytest.raises(ConfigError):
        check_rate_ambiguity(TWO_PI * 1e6, 1e-6, 1.0)  # ~6.3 rad of walk


@pytest.mark.parametrize("dt", [0.25, 4.0])
@pytest.mark.parametrize("y", [0.5, -0.5])
def test_ambiguity_guard_at_the_pi_edge(dt, y):
    # the walk is omega * dt * |y / (1 + y)|: dt != 1 tells omega * dt from omega / dt,
    # and y / (1 + y) is 1/3 at y = 0.5 and -1 at y = -0.5, neither of them y
    edge = math.pi / (dt * abs(y / (1.0 + y)))
    check_rate_ambiguity(edge * (1 - 1e-9), y, dt)
    with pytest.raises(ConfigError, match=r"^clock_b\.y: configured rate offset is ambiguous"):
        check_rate_ambiguity(edge * (1 + 1e-9), y, dt)


def test_ambiguity_guard_rejects_a_walk_of_exactly_pi():
    # omega * dt = 2*pi and y / (1 + y) = 1/2 are exact in binary, so the walk is pi to the bit
    omega, y, dt = 8.0 * math.pi, 1.0, 0.25
    assert omega * dt * abs(y / (1.0 + y)) == math.pi
    with pytest.raises(ConfigError, match="= 3.142 rad >= pi$"):
        check_rate_ambiguity(omega, y, dt)
