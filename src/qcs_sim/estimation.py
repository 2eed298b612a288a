"""Phase recovery from binomial counts, and rate recovery from two phases.

A single measurement basis only determines |cos| of the phase, leaving an
unresolvable arccos branch. Each protocol measurement therefore consumes two
sub-ensembles read out in quadrature bases (delta and delta + pi/2); atan2 of
the two rescaled count fractions gives an unambiguous angle, and binomial
delta-method propagation gives its standard error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AmbiguityError, DegenerateCountsError, InsufficientSamplesError
from .quantum import TWO_PI, BasisPhase, Frequency, canonicalize

#: Tolerance on the quadrature condition delta1 = delta0 + pi/2 (mod 2*pi).
QUADRATURE_TOL = 1e-9

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
    """Counts from one sub-ensemble measured in one basis at one local epoch.

    n and k_pos are conceptually integers; floats are accepted so idealized
    expected-count records can flow through the same estimator.
    """

    n: float
    k_pos: float
    basis: BasisPhase
    epoch_local: float
    species: str

    def __post_init__(self):
        if not (math.isfinite(self.n) and self.n >= 1):
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (0 <= self.k_pos <= self.n):
            raise ValueError(f"k_pos must be in [0, n], got {self.k_pos} of {self.n}")
        if not math.isfinite(self.epoch_local):
            raise ValueError("epoch_local must be finite")


@dataclass(frozen=True)
class PhaseEstimate:
    """A recovered phase angle with its delta-method standard error."""

    theta_hat: float
    sigma_theta: float
    n_used: float


@dataclass(frozen=True)
class RateEstimate:
    """A recovered fractional rate offset with its propagated standard error."""

    y_hat: float
    sigma_y: float


def _smoothed_var(k, n):
    # Jeffreys-style smoothing keeps the variance estimate positive at k in
    # {0, n}; negligible for interior counts.
    p = (k + 0.5) / (n + 1.0)
    return 4.0 * p * (1.0 - p) / n


def estimate_phase(rec0: MeasurementRecord, rec1: MeasurementRecord) -> PhaseEstimate:
    """Recover the state phase from two quadrature measurement records.

    rec0 is read out at basis phase delta, rec1 at delta + pi/2 (mod 2*pi,
    within QUADRATURE_TOL). With c = 2*k0/n0 - 1 and s = 2*k1/n1 - 1 the
    estimate is canonicalize(delta + atan2(s, c)); it is consistent, with
    bias -> 0 as n grows, and both records must come from states measured at
    the same epoch for the angle to mean anything.
    """
    if rec0.species != rec1.species:
        raise ValueError(
            f"records mix species {rec0.species!r} and {rec1.species!r}"
        )
    gap = wrap_pi(rec1.basis.delta - rec0.basis.delta - 0.5 * math.pi)
    if abs(gap) > QUADRATURE_TOL:
        raise ValueError(
            f"bases are not in quadrature: delta1 - delta0 = pi/2 {gap:+.3e} rad"
        )
    if rec0.n < MIN_SAMPLES or rec1.n < MIN_SAMPLES:
        raise InsufficientSamplesError(
            f"need >= {MIN_SAMPLES} pairs per quadrature, got {rec0.n} and {rec1.n}"
        )

    c = 2.0 * rec0.k_pos / rec0.n - 1.0
    s = 2.0 * rec1.k_pos / rec1.n - 1.0
    r2 = c * c + s * s
    if r2 * min(rec0.n, rec1.n) < _DEGENERATE_R2_SCALE:
        raise DegenerateCountsError(
            "quadrature counts sit at the circle center; no phase information "
            f"(c={c:.3e}, s={s:.3e})"
        )
    theta_hat = canonicalize(rec0.basis.delta + math.atan2(s, c))
    var_c = _smoothed_var(rec0.k_pos, rec0.n)
    var_s = _smoothed_var(rec1.k_pos, rec1.n)
    sigma = math.sqrt(s * s * var_c + c * c * var_s) / r2
    return PhaseEstimate(theta_hat, sigma, rec0.n + rec1.n)


def estimate_rate(
    e1: PhaseEstimate,
    t1: float,
    e2: PhaseEstimate,
    t2: float,
    freq: Frequency,
) -> RateEstimate:
    """Fractional rate offset of the local clock from phases at two epochs.

    t1 < t2 are the local clock readings at which the two phases were
    measured. The phase difference is unwrapped to the branch nearest the
    nominal advance -omega*(t2 - t1); any constant phase common to both
    epochs (transport phase, oscillator phase) cancels in the difference.
    The result is only unambiguous while |omega * y * (t2 - t1)| < pi, a
    protocol constraint checked by the scenario runner, which knows the
    configured truth.
    """
    if not (t2 > t1):
        raise ValueError(f"epochs must satisfy t2 > t1, got t1={t1}, t2={t2}")
    advance_nominal = freq.omega * (t2 - t1)
    dtheta = e2.theta_hat - e1.theta_hat
    k = round((-advance_nominal - dtheta) / TWO_PI)
    unwrapped = dtheta + TWO_PI * k
    y_hat = (unwrapped + advance_nominal) / advance_nominal
    sigma_y = math.hypot(e1.sigma_theta, e2.sigma_theta) / advance_nominal
    return RateEstimate(y_hat, sigma_y)


def check_rate_ambiguity(omega: float, y_true: float, dt: float):
    """Raise AmbiguityError when a configured rate walks past the +/- pi window."""
    advance_error = omega * dt * abs(y_true / (1.0 + y_true))
    if advance_error >= math.pi:
        raise AmbiguityError(
            "configured rate offset is ambiguous: |omega * y * dt| = "
            f"{advance_error:.3f} rad >= pi"
        )
