"""Equatorial qubit states: free precession, phase imprinting, dual-basis readout.

Every state the simulator ever handles is an equal-weight superposition of the
two energy eigenstates of a clock transition, so one relative phase angle on
[0, 2*pi) is a complete description. theta = 0 is the pos-type state, theta = pi
the neg-type state, and free evolution at angular frequency omega rotates theta
by -omega*tau. The pi/2 preparation/readout pulses are not separate operations
here: preparation is "states start equatorial" and readout is `prob_pos`, which
folds the second pulse and the detector into one projection probability.

`evolve`, `imprint_phase` and `prob_pos` take and return float angles on
[0, 2*pi), a state phase theta and a basis phase delta, and `evolve` takes
the angular frequency omega as a float; `EquatorialState` and `BasisPhase`
hold one pair's angles for the one-pair models. The simulator never holds an
ensemble of states: B's kept pairs share one common phase per trial, and the
count sampler in `protocols` turns that phase into counts. The full
two-complex-amplitude representation exists only in the test oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def canonicalize(theta: float) -> float:
    """Reduce an angle to the canonical range [0, 2*pi).

    Floor-based modular reduction; values that round up to exactly 2*pi
    (e.g. tiny negative inputs) are folded back to 0 so the half-open
    range holds bit-exactly.
    """
    t = theta % TWO_PI
    return t - TWO_PI if t >= TWO_PI else t


def _angle(theta: float) -> float:
    """A state phase reduced to [0, 2*pi) as `canonicalize` does; ValueError if non-finite."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    t = theta % TWO_PI
    return t - TWO_PI if t >= TWO_PI else t


@dataclass(frozen=True, eq=False)
class EquatorialState:
    """Equal-weight superposition with relative phase theta in [0, 2*pi).

    theta is one float, canonicalized; anything `float()` rejects, such as
    an array of several angles, raises TypeError.
    """

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _angle(float(self.theta)))


@dataclass(frozen=True)
class BasisPhase:
    """Phase delta of a {pos_delta, neg_delta} measurement basis, [0, 2*pi).

    Only the one-pair model (`collapse_singlet`) takes one; configs hold
    each delta as a float. The basis pair is orthonormal for every delta by construction: the
    probability of the neg-type outcome is defined as 1 - prob_pos, so
    completeness holds exactly.
    """

    delta: float

    def __post_init__(self):
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")
        object.__setattr__(self, "delta", canonicalize(float(self.delta)))


@dataclass(frozen=True, eq=False)
class CollapseOutcome:
    """Result of measuring the A side of one singlet.

    `type_i` is True when A saw the pos-type outcome (type I); `state_b` holds
    the partner state left on the B side, expressed in the same basis frame
    at the collapse instant: type I leaves B at delta + pi, type II at delta.
    """

    type_i: bool
    state_b: EquatorialState


def evolve(theta: float, omega: float, tau) -> float:
    """Free precession for tau seconds: theta -> theta - omega*tau (mod 2*pi).

    tau may be negative (rewinding is legitimate for analysis); the config's
    magnitude rule keeps omega*tau finite. Additive in tau, identity at tau = 0.
    """
    return canonicalize(theta - omega * tau)


def imprint_phase(theta: float, phi: float) -> float:
    """Add a classical phase shift phi to the state phase theta (unchecked, as in `evolve`)."""
    return canonicalize(theta + phi)


def prob_pos(theta: float, delta: float) -> float:
    """Probability of the pos-type outcome: cos((theta - delta) / 2)**2, in [0, 1]."""
    c = math.cos(0.5 * (theta - delta))
    return c * c


def collapse_singlet(basis_a: BasisPhase, rng) -> CollapseOutcome:
    """Measure the A half of one singlet in basis_a.

    The A outcome is type I (pos) or type II (neg) with probability 1/2.
    Singlet anticorrelation fixes the B partner in the same frame: a type I
    outcome leaves B in the neg-type state (theta = delta + pi), a type II
    outcome leaves B in the pos-type state (theta = delta).

    `rng` is an owned Generator (see `rng.trial_stream`); one uniform is consumed.
    """
    type_i = bool(rng.random() < 0.5)
    theta_b = basis_a.delta + (math.pi if type_i else 0.0)
    return CollapseOutcome(type_i, EquatorialState(theta_b))
