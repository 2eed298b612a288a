"""qcs-sim: Monte Carlo study of entanglement-based remote clock synchronization.

The package simulates synchronizing two remote clocks with shared singlet
pairs plus a classical channel, a two-frequency beat-note variant, a
doubled-ensemble syntonization (rate-only) variant, and the classical
baseline of slowly transporting a physical clock. Its purpose is
quantitative: with matched disturbance models, the phase a transported qubit
picks up makes the entangled protocol's time error match the transported
clock's, so the schemes are equivalent up to estimation noise.
"""
from .clocks import ClockModel, ClockTrip, basis_for, esct_transfer, read, trigger_time
from .config import Epochs, ScenarioConfig, load_config
from .errors import (
    AmbiguityError,
    ConfigError,
    DegenerateCountsError,
    InsufficientSamplesError,
    QcsSimError,
)
from .estimation import (
    MeasurementRecord,
    PhaseEstimate,
    RateEstimate,
    estimate_phase,
    estimate_rate,
    wrap_pi,
)
from .harness import RunManifest, compare_equivalence, run_experiment
from .protocols import (
    Protocol,
    TrialResult,
    run_esct,
    run_qcs_basic,
    run_qcs_beat,
    run_qcs_syntonize,
    run_trials,
)
from .quantum import (
    BasisPhase,
    EquatorialState,
    Frequency,
    canonicalize,
    evolve,
    imprint_phase,
    prob_pos,
)
from .rng import RNG_ALGORITHM, trial_stream
from .transport import TransportModel, transport_phase

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError",
    "BasisPhase",
    "ClockModel",
    "ClockTrip",
    "ConfigError",
    "DegenerateCountsError",
    "Epochs",
    "EquatorialState",
    "Frequency",
    "InsufficientSamplesError",
    "MeasurementRecord",
    "PhaseEstimate",
    "Protocol",
    "QcsSimError",
    "RNG_ALGORITHM",
    "RateEstimate",
    "RunManifest",
    "ScenarioConfig",
    "TransportModel",
    "TrialResult",
    "basis_for",
    "canonicalize",
    "compare_equivalence",
    "esct_transfer",
    "estimate_phase",
    "estimate_rate",
    "evolve",
    "imprint_phase",
    "load_config",
    "prob_pos",
    "read",
    "run_esct",
    "run_experiment",
    "run_qcs_basic",
    "run_qcs_beat",
    "run_qcs_syntonize",
    "run_trials",
    "transport_phase",
    "trial_stream",
    "trigger_time",
    "wrap_pi",
]
