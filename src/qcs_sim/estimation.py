"""Phase recovery from binomial counts, and rate recovery from two phases.

A single measurement basis only determines |cos| of the phase, leaving an
unresolvable arccos branch. Each protocol measurement therefore consumes two
sub-ensembles read out in quadrature bases (delta and delta + pi/2); atan2 of
the two rescaled count fractions gives an unambiguous angle, and binomial
delta-method propagation gives its standard error. `estimate_phase` takes
raw counts and the first basis phase, (n0, k0, n1, k1, delta0); the second
basis is delta0 + pi/2 by definition, so it is never passed. The
`PhaseEstimate` it returns is the whole readout: the angle and those counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import AmbiguityError, DegenerateCountsError, InsufficientSamplesError
from .quantum import TWO_PI, BasisPhase, canonicalize

#: Minimum pairs per quadrature sub-ensemble.
MIN_SAMPLES = 100

# Estimates whose count radius is below ~1e-3/sqrt(n) are statistically
# indistinguishable from the circle center and carry no phase information.
_DEGENERATE_R2_SCALE = 1e-6


def wrap_pi(x: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - x) % TWO_PI


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts of one sub-ensemble in one basis; unused, the readout passes raw counts."""

    n: float
    k_pos: float
    basis: BasisPhase


class PhaseEstimate(NamedTuple):
    """A recovered phase angle, its delta-method standard error, and the counts read."""

    theta_hat: float
    sigma_theta: float
    n0: float  # k0 of n0 pairs read pos at delta0, k1 of n1 at delta0 + pi/2:
    k0: float  # ints when drawn, floats when expected (noiseless)
    n1: float
    k1: float
    n_used = property(lambda e: e.n0 + e.n1)


def estimate_phase(n0, k0, n1, k1, delta0: float) -> PhaseEstimate:
    """Recover the state phase from the counts of two quadrature readouts.

    k0 of n0 pairs read pos at basis phase delta0, k1 of n1 at delta0 + pi/2;
    float (expected) counts are accepted. With c = 2*k0/n0 - 1 and
    s = 2*k1/n1 - 1 the estimate is canonicalize(delta0 + atan2(s, c)); it
    is consistent, with bias -> 0 as n grows. The angle only means something
    when both readouts are of the same species at the same epoch; pairing
    them is the caller's job. Only what chance can reach is checked.
    """
    if n0 < MIN_SAMPLES or n1 < MIN_SAMPLES:
        raise InsufficientSamplesError(
            f"need >= {MIN_SAMPLES} pairs per quadrature, got {n0} and {n1}"
        )

    c = 2.0 * k0 / n0 - 1.0
    s = 2.0 * k1 / n1 - 1.0
    r2 = c * c + s * s
    if r2 * min(n0, n1) < _DEGENERATE_R2_SCALE:
        raise DegenerateCountsError(
            "quadrature counts sit at the circle center; no phase information "
            f"(c={c:.3e}, s={s:.3e})"
        )
    theta_hat = canonicalize(delta0 + math.atan2(s, c))
    # Jeffreys-style smoothing keeps each variance positive at k in {0, n}, negligible inside
    p0, p1 = (k0 + 0.5) / (n0 + 1.0), (k1 + 0.5) / (n1 + 1.0)
    var_c = 4.0 * p0 * (1.0 - p0) / n0
    var_s = 4.0 * p1 * (1.0 - p1) / n1
    sigma = math.sqrt(s * s * var_c + c * c * var_s) / r2
    # tuple.__new__ builds what PhaseEstimate(...) would, without its Python-level __new__
    return tuple.__new__(PhaseEstimate, (theta_hat, sigma, n0, k0, n1, k1))


def estimate_rate(
    e1: PhaseEstimate,
    t1: float,
    e2: PhaseEstimate,
    t2: float,
    omega: float,
) -> tuple[float, float]:
    """Fractional rate offset of the local clock from phases at two epochs, (y_hat, sigma_y).

    t1 < t2 are the local clock readings at which the two phases were
    measured (a config's `Epochs` are strictly increasing, and
    `Protocol.validate` bounds omega * (t2 - t1) from below), and omega is the
    species' angular frequency, rad/s. The phase
    difference is unwrapped to the branch nearest the nominal advance
    -omega*(t2 - t1); any constant phase common to both epochs (transport
    phase, oscillator phase) cancels in the difference. The result is only
    unambiguous while |omega * y * (t2 - t1)| < pi, a protocol constraint
    checked by the scenario runner, which knows the configured truth.
    """
    advance_nominal = omega * (t2 - t1)
    dtheta = e2.theta_hat - e1.theta_hat
    k = round((-advance_nominal - dtheta) / TWO_PI)
    unwrapped = dtheta + TWO_PI * k
    y_hat = (unwrapped + advance_nominal) / advance_nominal
    return y_hat, math.hypot(e1.sigma_theta, e2.sigma_theta) / advance_nominal


def check_rate_ambiguity(omega: float, y_true: float, dt: float):
    """Raise AmbiguityError when a configured rate walks past the +/- pi window."""
    advance_error = omega * dt * abs(y_true / (1.0 + y_true))
    if advance_error >= math.pi:
        raise AmbiguityError(
            "clock_b.y: configured rate offset is ambiguous: |omega * y * dt| = "
            f"{advance_error:.3f} rad >= pi"
        )
