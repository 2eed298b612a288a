"""Quantum helpers that only the tests use.

The simulator itself needs neither named basis states, the neg-type
probability nor the two-pulse fringe; the tests use them to state physics
claims directly.
"""
import math

from qcs_sim.quantum import prob_pos

#: Phases of the two dual-basis states reachable at delta = 0.
POS = 0.0
NEG = math.pi


def prob_neg(theta, delta):
    """Probability of the orthogonal neg-type outcome, exactly 1 - prob_pos."""
    return 1.0 - prob_pos(theta, delta)


def ramsey_prob(omega: float, omega_osc: float, T: float, dphi_osc: float = 0.0) -> float:
    """Two-pulse interrogation fringe against a local oscillator.

    P = (1 + cos((omega - omega_osc)*T + dphi_osc)) / 2 for transition
    frequency omega, dark time T, oscillator frequency omega_osc and
    oscillator-vs-precession relative phase dphi_osc. On resonance with a phase-locked oscillator
    (omega_osc = omega, dphi_osc = 0) the outcome is 1 for every T: the
    fringe carries no dark-time dependence, only detuning and oscillator
    phase do.
    """
    T = float(T)
    if not math.isfinite(T) or T < 0.0:
        raise ValueError(f"T must be finite and >= 0, got {T}")
    detuning = float(omega) - float(omega_osc)
    return 0.5 * (1.0 + math.cos(detuning * T + float(dphi_osc)))
