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

Files are written only after every trial of a run has succeeded: a run that
fails, say on a config its protocol rejects, creates no output directory.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ScenarioConfig
from .errors import ConfigError
from .protocols import LANE_BASELINE, Protocol, require_count, run_trials
from .rng import RNG_ALGORITHM

ARTIFACT_VERSION = "0.2.0"

#: What `sweep --protocol` accepts: every protocol, plus the compare pairing.
SWEEP_PROTOCOLS = (*(p.value for p in Protocol), "compare")

SUBCOMMANDS = (*SWEEP_PROTOCOLS, "sweep")

_UNITS_COMMENT = (
    "# units: *_time_offset s, *_rate_offset dimensionless, theta*/sigma_theta/"
    "phi_common* rad, sigma_time s, sigma_rate dimensionless, counts dimensionless"
)


def config_sha256(cfg: ScenarioConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _ordered_union(results, group):
    """Each result's keys in sorted order, first seen first, each key once."""
    shapes = dict.fromkeys(tuple(getattr(r, group)) for r in results)
    return list(dict.fromkeys(k for shape in shapes for k in sorted(shape)))


def _write_csv(path, header, rows):
    """The units comment, the header, then one line per row of values.

    None is an empty cell and floats carry 17 significant digits.
    """
    lines = [_UNITS_COMMENT, ",".join(header)]
    lines += [",".join(["" if v is None else "%.17g" % v if isinstance(v, float) else str(v)
                        for v in row]) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_results_csv(path, results):
    """One row per trial, merged in trial_id order."""
    groups = ("truth", "estimate", "error", "diagnostics")
    columns = [(g, k) for g in groups for k in _ordered_union(results, g)]
    header = ["trial_id", "protocol"] + [f"{g}_{k}" for g, k in columns]
    rows = ([r.trial_id, r.protocol.value, *[getattr(r, g).get(k) for g, k in columns]]
            for r in results)
    _write_csv(path, header, rows)


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
    ((species, freq),) = cfg.species.items()
    if cfg.transport.beta_by_species[species] != 0.0:
        raise ConfigError(f"transport.beta_by_species.{species} must be 0 for compare: "
                          "a clock trip has no species-dependent phase")
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


def _run(name: str, cfg: ScenarioConfig) -> tuple[list, dict]:
    """Run one protocol, or the compare pairing, and return (results, summary).

    For compare, results holds the qcs lane's trials, then the esct lane's.
    """
    if name != "compare":
        results = run_trials(Protocol(name), cfg)
        return results, summarize_trials(results)
    require_count("compare", "configured species", len(cfg.species), 1)
    _require_matched_models(cfg)
    qcs = run_trials(Protocol.QCS_BASIC, cfg)
    esct = run_trials(Protocol.ESCT_BASELINE, cfg, lane=LANE_BASELINE)
    stats_qcs = _stats([r.error["time_offset"] for r in qcs])
    stats_esct = _stats([r.error["time_offset"] for r in esct])
    rms_esct = stats_esct["rms"]
    return qcs + esct, {
        "trials": len(qcs),
        "rms_qcs": stats_qcs["rms"],
        "rms_esct": rms_esct,
        "ratio": stats_qcs["rms"] / rms_esct if rms_esct > 0.0 else None,
        "mean_error_qcs": stats_qcs["mean"],
        "mean_error_esct": stats_esct["mean"],
        "qcs_estimator_floor": _stats([r.diagnostics["sigma_time"] for r in qcs])["rms"],
        "esct_floor": 0.0,
    }


def compare_equivalence(cfg: ScenarioConfig, seed=None, trials=None) -> dict:
    """Head-to-head RMS time error of the entangled protocol vs. the clock trip.

    Requires matched models (trip.alpha = transport.alpha and trip.jitter =
    sigma_common/omega): then the two protocols face the same disturbance and
    the entangled one differs only by its binomial estimation floor, which is
    reported separately.
    """
    return _run("compare", cfg.with_run(seed, trials))[1]


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


def run_sweep(protocol_name, cfg, param, values) -> list[dict]:
    """Run one protocol per grid point; return one plot-ready row per point."""
    rows = []
    for value in values:
        _, summary = _run(protocol_name, apply_sweep_value(cfg, param, value))
        if protocol_name == "compare":
            point = {k: summary[k] for k in ("rms_qcs", "rms_esct", "ratio")}
        else:
            key = Protocol(protocol_name).error_key
            stats = summary["metrics"][key]
            point = {
                "metric": f"error_{key}",
                "mean_error": stats["mean"],
                "rms_error": stats["rms"],
                "ci95_halfwidth": stats["ci95_halfwidth"],
            }
        rows.append({"param": param, "value": value, "trials": summary["trials"], **point})
    return rows


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
    it. `seed` and `trials` override the config's once, through
    `cfg.with_run`; the manifest hashes the config as given. Returns the
    summary record. Raises ConfigError/ValueError for invalid
    configurations or arguments (CLI exit 2) and lets I/O errors propagate
    (CLI exit 3).
    """
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    run_cfg = cfg.with_run(seed, trials)
    out = Path(out_dir)

    if subcommand == "sweep":
        if protocol not in SWEEP_PROTOCOLS:
            raise ConfigError("sweep requires a valid --protocol")
        if not sweep_param or not sweep_values:
            raise ConfigError("sweep requires --sweep-param and --sweep-values")
        sweep = {"param": sweep_param, "values": list(sweep_values), "protocol": protocol}
        rows = run_sweep(protocol, run_cfg, sweep_param, sweep["values"])
        summary = {"protocol": protocol, "param": sweep_param, "points": rows}
        table, trial_counts = "sweep", {protocol: run_cfg.trials}
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "sweep.csv", list(rows[0]), (list(row.values()) for row in rows))
    else:
        sweep_args = {"protocol": protocol, "sweep_param": sweep_param,
                      "sweep_values": sweep_values}
        for name, value in sweep_args.items():
            if value is not None:
                raise ConfigError(f"{name} is a sweep argument; {subcommand!r} takes no {name}")
        results, summary = _run(subcommand, run_cfg)
        summary = {"subcommand": subcommand, "seed": run_cfg.seed, **summary}
        table, sweep = "results", None
        trial_counts = {r.protocol.value: run_cfg.trials for r in results}
        out.mkdir(parents=True, exist_ok=True)
        write_results_csv(out / "results.csv", results)
    _write_json(out / "summary.json", summary)
    manifest = RunManifest(subcommand, config_sha256(cfg), run_cfg.seed, trial_counts,
                           {table: f"{table}.csv", "summary": "summary.json"}, sweep=sweep)
    _write_json(out / "manifest.json", asdict(manifest))
    return summary
