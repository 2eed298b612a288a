"""qcs-sim: Monte Carlo study of entanglement-based remote clock synchronization.

The package simulates synchronizing two remote clocks with shared singlet
pairs plus a classical channel, a two-frequency beat-note variant, a
doubled-ensemble syntonization (rate-only) variant, and the classical
baseline of slowly transporting a physical clock. Its purpose is
quantitative: with matched disturbance models, the phase a transported qubit
picks up makes the entangled protocol's time error match the transported
clock's, so the schemes are equivalent up to estimation noise.
"""
from .config import ClockModel, ClockTrip, Epochs, ScenarioConfig, TransportModel, load_config
from .errors import ConfigError, DegenerateCountsError, QcsSimError
from .harness import compare_equivalence, run_experiment
from .protocols import (
    Protocol,
    TrialResult,
    run_esct,
    run_qcs_basic,
    run_qcs_beat,
    run_qcs_syntonize,
    run_trials,
)
from .rng import trial_stream

__version__ = "0.1.0"

__all__ = [
    "ClockModel",
    "ClockTrip",
    "ConfigError",
    "DegenerateCountsError",
    "Epochs",
    "Protocol",
    "QcsSimError",
    "ScenarioConfig",
    "TransportModel",
    "TrialResult",
    "compare_equivalence",
    "load_config",
    "run_esct",
    "run_experiment",
    "run_qcs_basic",
    "run_qcs_beat",
    "run_qcs_syntonize",
    "run_trials",
    "trial_stream",
]
