"""Phase imprinted on B's half of each pair by physically moving it.

The deterministic part is alpha * omega + beta[species]: an effective delay
alpha (seconds) that every species sees scaled by its own frequency, plus a
species-specific offset capturing that different isotopes respond differently
to field perturbations en route. On top of that, one common-mode Gaussian
phase is drawn per transported ensemble and an independent Gaussian phase per
pair.

The same model covers entanglement delivered by photons: writing the photon
phase onto the stored qubit makes an unknown propagation delay d act exactly
like alpha = d, so no separate channel type exists here. Post-arrival drift
of the accumulated phase is out of scope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ConfigError
from .quantum import EquatorialState, Frequency, imprint_phase


@dataclass(frozen=True)
class TransportModel:
    """Frequency-dependent deterministic phase plus two Gaussian jitter scales.

    alpha         effective transport delay, s; deterministic phase = alpha*omega
    beta_by_species  extra per-species phase, rad (field-sensitivity offset)
    sigma_common  std. dev. of the per-ensemble common-mode phase, rad (>= 0)
    sigma_pair    std. dev. of the independent per-pair phase, rad (>= 0)
    """

    alpha: float = 0.0
    beta_by_species: Mapping[str, float] = field(default_factory=dict)
    sigma_common: float = 0.0
    sigma_pair: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "sigma_common", "sigma_pair"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("sigma_common", "sigma_pair"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        for sp, beta in self.beta_by_species.items():
            if not math.isfinite(beta):
                raise ValueError(f"beta_by_species.{sp} must be finite")


def beta_for(model: TransportModel, species: str) -> float:
    try:
        return model.beta_by_species[species]
    except KeyError:
        raise ConfigError(
            f"transport model has no beta entry for species {species!r}"
        ) from None


def transport_phase(model: TransportModel, species: str, freq: Frequency, rng) -> float:
    """Draw the phase one transported ensemble shares, phi_common, in rad.

    phi_common is the deterministic part alpha * omega + beta[species] plus
    the common-mode jitter; it is deliberately unreduced so callers can
    reason about unwrapped phase. Per-pair jitter is not included.
    """
    phi_common = model.alpha * freq.omega + beta_for(model, species)
    if model.sigma_common > 0.0:
        phi_common += model.sigma_common * rng.standard_normal()
    return phi_common


def apply_transport(
    state: EquatorialState,
    model: TransportModel,
    species: str,
    freq: Frequency,
    rng,
):
    """Imprint the transport phase on one B-side pair.

    The pair receives phi_common plus, when sigma_pair > 0, its own Gaussian
    jitter; the state is shifted via `imprint_phase`. Like `collapse_singlet`
    this describes one pair: the protocols never move pairs one by one, they
    draw counts from phi_common and the sigma_pair contrast.
    Returns (transported_state, phi_common) with phi_common unreduced.
    """
    phi = phi_common = transport_phase(model, species, freq, rng)
    if model.sigma_pair > 0.0:
        phi = phi_common + model.sigma_pair * rng.standard_normal()
    return imprint_phase(state, phi), phi_common
