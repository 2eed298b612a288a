"""Experiment execution: dispatch, compare pairing, result tables, summaries, manifests.

Outputs per run directory:

  results.csv    one row per trial; fixed columns trial_id, protocol, then
                 truth_*, estimate_*, error_*, diagnostics_* (units in a
                 leading '#' comment line); floats carry 17 significant
                 digits so identical runs are byte-identical
  summary.json   aggregate statistics (means, RMS, CIs) per error key
  manifest.json  reproducibility record: config hash, seed, trial counts,
                 RNG algorithm identifier, artifact version, output names

Sweeps vary one named parameter over a grid and emit sweep.csv instead of
results.csv: one plot-ready row per grid point.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ScenarioConfig, _int
from .errors import ConfigError
from .protocols import LANE_BASELINE, LANE_PRIMARY, Protocol, require_count, run_trials
from .rng import RNG_ALGORITHM

ARTIFACT_VERSION = "0.2.0"

#: What `sweep --protocol` accepts: every protocol, plus the compare pairing.
SWEEP_PROTOCOLS = (*(p.value for p in Protocol), "compare")

SUBCOMMANDS = (*SWEEP_PROTOCOLS, "sweep")

_UNITS_COMMENT = (
    "# units: *_time_offset s, *_rate_offset dimensionless, theta*/sigma_theta/"
    "phi_common* rad, sigma_time s, sigma_rate dimensionless, counts dimensionless"
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def config_sha256(cfg: ScenarioConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _ordered_union(results, group):
    keys: list[str] = []
    for r in results:
        for k in sorted(getattr(r, group)):
            if k not in keys:
                keys.append(k)
    return keys


def write_results_csv(path, results):
    """One row per trial, merged in trial_id order."""
    groups = ("truth", "estimate", "error", "diagnostics")
    columns = [(g, k) for g in groups for k in _ordered_union(results, g)]
    header = ["trial_id", "protocol"] + [f"{g}_{k}" for g, k in columns]
    lines = [_UNITS_COMMENT, ",".join(header)]
    for r in results:
        row = [str(r.trial_id), r.protocol.value]
        for g, k in columns:
            value = getattr(r, g).get(k)
            row.append("" if value is None else _fmt(value))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _stats(values) -> dict:
    """Mean, spread, RMS, range and 95% CI half-width of one key over the trials."""
    n = len(values)
    x = np.array(values)
    std = float(np.std(x, ddof=1)) if n > 1 else 0.0
    return {
        "mean": float(np.mean(x)),
        "std": std,
        "rms": float(np.sqrt(np.mean(x**2))),
        "min": float(np.min(x)),
        "max": float(np.max(x)),
        "ci95_halfwidth": 1.959963984540054 * std / math.sqrt(n) if n > 1 else 0.0,
    }


def summarize_trials(results) -> dict:
    """Aggregate per-error-key statistics plus mean diagnostics."""
    n = len(results)
    metrics = {
        key: _stats([r.error[key] for r in results])
        for key in _ordered_union(results, "error")
    }
    mean_diag = {
        key: float(np.mean([r.diagnostics[key] for r in results]))
        for key in _ordered_union(results, "diagnostics")
    }
    return {"trials": n, "metrics": metrics, "mean_diagnostics": mean_diag}


#: Relative tolerance for the matched-models precondition of compare runs.
MATCHED_MODEL_RTOL = 1e-9


def _require_matched_models(cfg: ScenarioConfig):
    ((_, freq),) = cfg.species.items()
    implied_jitter = cfg.transport.sigma_common / freq.omega
    alpha_gap = abs(cfg.trip.alpha - cfg.transport.alpha)
    jitter_gap = abs(cfg.trip.jitter - implied_jitter)
    alpha_tol = MATCHED_MODEL_RTOL * max(abs(cfg.trip.alpha), abs(cfg.transport.alpha))
    jitter_tol = MATCHED_MODEL_RTOL * max(abs(cfg.trip.jitter), abs(implied_jitter))
    if alpha_gap > alpha_tol or jitter_gap > jitter_tol:
        raise ValueError(
            "compare requires matched models: trip.alpha == transport.alpha "
            "and trip.jitter == transport.sigma_common/omega; got "
            f"trip=({cfg.trip.alpha}, {cfg.trip.jitter}) vs "
            f"transport=({cfg.transport.alpha}, {implied_jitter})"
        )


def compare_equivalence(cfg: ScenarioConfig, seed=None, trials=None,
                        keep_trials: bool = False) -> dict:
    """Head-to-head RMS time error of the entangled protocol vs. the clock trip.

    Requires matched models (trip.alpha = transport.alpha and trip.jitter =
    sigma_common/omega): then the two protocols face the same disturbance and
    the entangled one differs only by its binomial estimation floor, which is
    reported separately.
    """
    require_count("compare", "configured species", len(cfg.species), 1)
    _require_matched_models(cfg)

    qcs = run_trials(Protocol.QCS_BASIC, cfg, seed, trials, lane=LANE_PRIMARY)
    esct = run_trials(Protocol.ESCT_BASELINE, cfg, seed, trials, lane=LANE_BASELINE)

    stats_qcs = _stats([r.error["time_offset"] for r in qcs])
    stats_esct = _stats([r.error["time_offset"] for r in esct])
    rms_esct = stats_esct["rms"]
    summary = {
        "trials": len(qcs),
        "rms_qcs": stats_qcs["rms"],
        "rms_esct": rms_esct,
        "ratio": stats_qcs["rms"] / rms_esct if rms_esct > 0.0 else None,
        "mean_error_qcs": stats_qcs["mean"],
        "mean_error_esct": stats_esct["mean"],
        "qcs_estimator_floor": _stats([r.diagnostics["sigma_time"] for r in qcs])["rms"],
        "esct_floor": 0.0,
    }
    if keep_trials:
        summary["trials_qcs"] = qcs
        summary["trials_esct"] = esct
    return summary


def _write_json(path, payload):
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record: everything needed to regenerate a run's bytes."""

    subcommand: str
    config_sha256: str
    seed: int
    trials: dict[str, int]
    outputs: dict[str, str]
    artifact_version: str = ARTIFACT_VERSION
    rng_algorithm: str = RNG_ALGORITHM
    sweep: dict | None = field(default=None)

    def to_dict(self) -> dict:
        return asdict(self)


def _manifest(subcommand, cfg, seed, trials_by_protocol, outputs, sweep=None) -> RunManifest:
    return RunManifest(
        subcommand=subcommand,
        config_sha256=config_sha256(cfg),
        seed=seed,
        trials=trials_by_protocol,
        outputs=outputs,
        sweep=sweep,
    )


# -- sweep parameter plumbing ------------------------------------------------


def apply_sweep_value(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    """Return a copy of cfg with one named parameter set to `value`.

    `param` is a dotted path into the config document (e.g. transport.alpha,
    clock_b.y, trip.jitter, transport.beta_by_species.cs, ensemble_size), or
    one of the matched pseudo-parameters used for compare runs:

      matched_alpha    sets trip.alpha and transport.alpha together
      matched_jitter   sets trip.jitter and transport.sigma_common together
                       (sigma_common = jitter * omega of the first species)
    """
    doc = cfg.to_dict()
    if param == "matched_alpha":
        doc["trip"]["alpha"] = value
        doc["transport"]["alpha"] = value
    elif param == "matched_jitter":
        omega = next(iter(doc["species"].values()))
        doc["trip"]["jitter"] = value
        doc["transport"]["sigma_common"] = value * omega
    else:
        node = doc
        parts = param.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"unknown sweep parameter {param!r}")
            node = node[part]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"unknown sweep parameter {param!r}")
        if isinstance(node[leaf], bool):
            if value not in (0, 1):
                raise ConfigError(f"sweep values for {param!r} must be 0 or 1, got {value!r}")
            value = bool(value)
        node[leaf] = value  # from_dict checks int fields
    return ScenarioConfig.from_dict(doc)


def run_sweep(protocol_name, cfg, seed, trials, out_dir, param, values) -> dict:
    """Run one protocol per grid point; emit a plot-ready table."""
    rows = []
    for value in values:
        cfg_v = apply_sweep_value(cfg, param, value)
        if protocol_name == "compare":
            summary = compare_equivalence(cfg_v, seed=seed, trials=trials)
            rows.append({
                "param": param,
                "value": value,
                "trials": summary["trials"],
                "rms_qcs": summary["rms_qcs"],
                "rms_esct": summary["rms_esct"],
                "ratio": summary["ratio"],
            })
        else:
            protocol = Protocol(protocol_name)
            results = run_trials(protocol, cfg_v, seed, trials)
            key = protocol.error_key
            stats = summarize_trials(results)["metrics"][key]
            rows.append({
                "param": param,
                "value": value,
                "trials": len(results),
                "metric": f"error_{key}",
                "mean_error": stats["mean"],
                "rms_error": stats["rms"],
                "ci95_halfwidth": stats["ci95_halfwidth"],
            })

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = list(rows[0].keys())
    lines = [_UNITS_COMMENT, ",".join(header)]
    for row in rows:
        lines.append(",".join("" if row[k] is None else _fmt(row[k]) for k in header))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = {"protocol": protocol_name, "param": param, "points": rows}
    _write_json(out / "summary.json", summary)
    manifest = _manifest(
        "sweep", cfg, seed,
        {protocol_name: trials},
        {"sweep": "sweep.csv", "summary": "summary.json"},
        sweep={"param": param, "values": list(values), "protocol": protocol_name},
    )
    _write_json(out / "manifest.json", manifest.to_dict())
    return summary


# -- top-level entry ----------------------------------------------------------


def run_experiment(
    subcommand: str,
    cfg: ScenarioConfig,
    out_dir,
    seed=None,
    trials=None,
    protocol: str | None = None,
    sweep_param: str | None = None,
    sweep_values: Sequence[float] | None = None,
) -> dict:
    """Execute one subcommand and write results/summary/manifest to out_dir.

    `protocol`, `sweep_param` and `sweep_values` belong to the sweep
    subcommand; any other subcommand given one raises a ConfigError naming
    it. Returns the summary record. Raises ConfigError/ValueError for invalid
    configurations or arguments (CLI exit 2) and lets I/O errors propagate
    (CLI exit 3).
    """
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    seed = cfg.seed if seed is None else _int(seed, "seed")
    trials = cfg.trials if trials is None else _int(trials, "trials")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")

    if subcommand == "sweep":
        if protocol not in SWEEP_PROTOCOLS:
            raise ConfigError("sweep requires a valid --protocol")
        if not sweep_param or not sweep_values:
            raise ConfigError("sweep requires --sweep-param and --sweep-values")
        return run_sweep(protocol, cfg, seed, trials, out_dir, sweep_param, list(sweep_values))
    sweep_args = {"protocol": protocol, "sweep_param": sweep_param, "sweep_values": sweep_values}
    for name, value in sweep_args.items():
        if value is not None:
            raise ConfigError(f"{name} is a sweep argument; {subcommand!r} takes no {name}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if subcommand == "compare":
        summary = compare_equivalence(cfg, seed=seed, trials=trials, keep_trials=True)
        results = summary.pop("trials_qcs") + summary.pop("trials_esct")
        trials_by_protocol = {"qcs": trials, "esct": trials}
    else:
        results = run_trials(Protocol(subcommand), cfg, seed, trials)
        summary = summarize_trials(results)
        trials_by_protocol = {subcommand: trials}
    summary = {"subcommand": subcommand, "seed": seed, **summary}

    write_results_csv(out / "results.csv", results)
    _write_json(out / "summary.json", summary)
    manifest = _manifest(
        subcommand, cfg, seed, trials_by_protocol,
        {"results": "results.csv", "summary": "summary.json"},
    )
    _write_json(out / "manifest.json", manifest.to_dict())
    return summary
