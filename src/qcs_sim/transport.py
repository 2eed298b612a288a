"""Phase imprinted on B's half of each pair by physically moving it.

The deterministic part is alpha * omega + beta[species]: an effective delay
alpha (seconds) that every species sees scaled by its own frequency, plus a
species-specific offset capturing that different isotopes respond differently
to field perturbations en route. On top of that, one common-mode Gaussian
phase is drawn per transported ensemble and an independent Gaussian phase per
pair. omega is always the species' angular frequency as a float, rad/s.

The same model covers entanglement delivered by photons: writing the photon
phase onto the stored qubit makes an unknown propagation delay d act exactly
like alpha = d, so no separate channel type exists here. Post-arrival drift
of the accumulated phase is out of scope. The model, `TransportModel`, is a
config section and lives in `config`.
"""
from __future__ import annotations

from .config import TransportModel
from .quantum import EquatorialState, imprint_phase


def transport_phase(model: TransportModel, species: str, omega: float, rng) -> float:
    """Draw the phase one transported ensemble shares, phi_common, in rad.

    phi_common is the deterministic part alpha * omega + beta[species], for
    the species' angular frequency omega (rad/s), plus the common-mode
    jitter; it is deliberately unreduced so callers can reason about
    unwrapped phase. Per-pair jitter is not included. `ScenarioConfig`
    checks that every configured species has a beta entry.
    """
    phi_common = model.alpha * omega + model.beta_by_species[species]
    if model.sigma_common > 0.0:
        phi_common += model.sigma_common * rng.standard_normal()
    return phi_common


def apply_transport(
    state: EquatorialState,
    model: TransportModel,
    species: str,
    omega: float,
    rng,
):
    """Imprint the transport phase on one B-side pair.

    The pair receives phi_common plus, when sigma_pair > 0, its own Gaussian
    jitter; the state is shifted via `imprint_phase`. Like `collapse_singlet`
    this describes one pair: the protocols never move pairs one by one, they
    draw counts from phi_common and the sigma_pair contrast.
    Returns (transported_state, phi_common) with phi_common unreduced.
    """
    phi = phi_common = transport_phase(model, species, omega, rng)
    if model.sigma_pair > 0.0:
        phi = phi_common + model.sigma_pair * rng.standard_normal()
    return EquatorialState(imprint_phase(state.theta, phi)), phi_common
