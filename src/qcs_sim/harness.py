"""Experiment execution: dispatch, compare pairing, result tables, summaries, manifests.

Outputs per run directory:

  results.csv    one row per trial; fixed columns trial_id, protocol, then
                 truth_*, estimate_*, error_*, diagnostics_*, each group
                 sorted (units in a leading '#' comment line); floats carry
                 17 significant digits so identical runs are byte-identical
  summary.json   aggregate statistics (means, RMS, CIs) per error key
  manifest.json  reproducibility record: config hash, seed, trial counts,
                 RNG algorithm identifier, artifact version, output names

Sweeps vary one named parameter over a grid and emit sweep.csv instead of
results.csv: one plot-ready row per grid point.

`_run` hands on one table of value rows (`protocols.Layout`) per protocol it runs:
a summary reads its columns as one array, results.csv writes each table through
its layout's cached template, and the manifest counts each table's trials.

Nothing is written until every trial has succeeded and both JSON files are
serialized as strict JSON, so a run that fails creates no output directory.
"""
from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ScenarioConfig
from .errors import ConfigError
from .protocols import Layout, Protocol, require_count, run_trials
from .rng import RNG_ALGORITHM

ARTIFACT_VERSION = "0.2.0"

#: Stream lane of compare's esct trials; its qcs trials run on lane 0.
LANE_BASELINE = 1

#: What `sweep --protocol` accepts: every protocol, plus the compare pairing.
SWEEP_PROTOCOLS = (*(p.value for p in Protocol), "compare")

SUBCOMMANDS = (*SWEEP_PROTOCOLS, "sweep")

_UNITS_COMMENT = (
    "# units: *_time_offset s, *_rate_offset dimensionless, theta*/sigma_theta/"
    "phi_common* rad, sigma_time s, sigma_rate dimensionless, counts dimensionless"
)


def _write_csv(path, header, tables, line):
    """Units comment, header, then `line(i, row)` for row i of each table, 1000 rows at a time."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{_UNITS_COMMENT}\n{','.join(header)}\n")
        for rows in tables:
            for i in range(0, len(rows), 1000):
                f.write("\n".join(map(line, range(i, i + 1000), rows[i:i + 1000])) + "\n")


@functools.cache
def _csv_format(layouts: tuple) -> tuple[tuple, dict]:
    """results.csv's header for trials of these layouts, and each layout's row template."""
    columns = Layout.order({c for layout in layouts for c in layout.columns})
    templates = {layout: ",".join(["%d", layout.protocol.value,
                                   *["%.17g" if c in layout.columns else "" for c in columns]])
                 for layout in layouts}
    return ("trial_id", "protocol", *[f"{g}_{k}" for g, k in columns]), templates


def write_results_csv(path, tables):
    """One row per trial of each `run_trials` table; a row's trial_id is its position there."""
    header, templates = _csv_format(tuple(t[0].layout for t in tables))
    _write_csv(path, header, tables, lambda i, r: templates[r.layout] % (i, *r.values))


def _array(table, columns) -> np.ndarray:
    """The (group, key) columns of one trial table, one row per column."""
    index = table[0].layout.columns.index
    return np.array([[r.values[i] for r in table] for i in map(index, columns)])


def _stats(x: np.ndarray) -> list[dict]:
    """Mean, spread, RMS, range and 95% CI half-width of each row of x."""
    n = x.shape[1]
    mean = x.mean(axis=1)
    std = np.sqrt(((x - mean[:, None]) ** 2).sum(axis=1) / (n - 1)) if n > 1 else np.zeros(len(x))
    stats = {"mean": mean, "std": std, "rms": np.sqrt((x**2).mean(axis=1)), "min": x.min(axis=1),
             "max": x.max(axis=1), "ci95_halfwidth": 1.959963984540054 * std / math.sqrt(n)}
    return [dict(zip(stats, row)) for row in zip(*[v.tolist() for v in stats.values()])]


def summarize_trials(results) -> dict:
    """Aggregate per-error-key statistics plus mean diagnostics."""
    columns = [c for c in results[0].layout.columns if c[0] in ("error", "diagnostics")]
    e = sum(g == "error" for g, _ in columns)  # error columns come first
    keys, x = [k for _, k in columns], _array(results, columns)
    return {"trials": len(results), "metrics": dict(zip(keys, _stats(x[:e]))),
            "mean_diagnostics": dict(zip(keys[e:], x[e:].mean(axis=1).tolist()))}


#: Relative tolerance for the matched-models precondition of compare runs.
MATCHED_MODEL_RTOL = 1e-9


def _require_matched_models(cfg: ScenarioConfig):
    ((species, omega),) = cfg.species.items()
    if cfg.transport.beta_by_species[species] != 0.0:
        raise ConfigError(f"transport.beta_by_species.{species} must be 0 for compare: "
                          "a clock trip has no species-dependent phase")
    implied_jitter = cfg.transport.sigma_common / omega
    for name, trip, model in (("trip.alpha", cfg.trip.alpha, cfg.transport.alpha),
                              ("trip.jitter", cfg.trip.jitter, implied_jitter)):
        if not math.isclose(trip, model, rel_tol=MATCHED_MODEL_RTOL):
            raise ConfigError(
                f"{name}: compare requires matched models: trip.alpha == transport.alpha "
                "and trip.jitter == transport.sigma_common/omega; got "
                f"trip=({cfg.trip.alpha}, {cfg.trip.jitter}) vs "
                f"transport=({cfg.transport.alpha}, {implied_jitter})"
            )


def _run(name: str, cfg: ScenarioConfig) -> tuple[list, dict]:
    """Run one protocol, or the compare pairing, and return (tables, summary).

    `tables` holds one trial table, or compare's qcs then esct (LANE_BASELINE) tables.
    """
    if name != "compare":
        results = run_trials(Protocol(name), cfg)
        return [results], summarize_trials(results)
    require_count("species", "compare", "configured species", len(cfg.species), 1)
    _require_matched_models(cfg)
    qcs = run_trials(Protocol.QCS_BASIC, cfg)
    esct = run_trials(Protocol.ESCT_BASELINE, cfg, lane=LANE_BASELINE)
    stats_qcs, floor = _stats(_array(qcs, [("error", "time_offset"),
                                            ("diagnostics", "sigma_time")]))
    (stats_esct,) = _stats(_array(esct, [("error", "time_offset")]))
    rms_esct = stats_esct["rms"]
    return [qcs, esct], {
        "trials": len(qcs),
        "rms_qcs": stats_qcs["rms"],
        "rms_esct": rms_esct,
        "ratio": stats_qcs["rms"] / rms_esct if rms_esct > 0.0 else None,
        "mean_error_qcs": stats_qcs["mean"],
        "mean_error_esct": stats_esct["mean"],
        "qcs_estimator_floor": floor["rms"],
        "esct_floor": 0.0,
    }


def compare_equivalence(cfg: ScenarioConfig) -> dict:
    """Head-to-head RMS time error of the entangled protocol vs. the clock trip.

    Requires matched models (trip.alpha = transport.alpha and trip.jitter =
    sigma_common/omega): then the two protocols face the same disturbance and
    the entangled one differs only by its binomial estimation floor, which is
    reported separately.
    """
    return _run("compare", cfg)[1]


def _write_json(path, text: str):
    Path(path).write_text(text, encoding="utf-8")


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
        *path, leaf = param.split(".")
        node = doc
        for part in path:
            node = node.get(part) if isinstance(node, dict) else None
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
        write_table = lambda path: _write_csv(path, list(rows[0]), [rows], lambda _, row: ",".join(
            "" if v is None else "%.17g" % v if isinstance(v, float) else str(v)
            for v in row.values()))
    else:
        sweep_args = {"protocol": protocol, "sweep_param": sweep_param,
                      "sweep_values": sweep_values}
        for name, value in sweep_args.items():
            if value is not None:
                raise ConfigError(f"{name} is a sweep argument; {subcommand!r} takes no {name}")
        tables, summary = _run(subcommand, run_cfg)
        summary = {"subcommand": subcommand, "seed": run_cfg.seed, **summary}
        table, sweep = "results", None
        trial_counts = {t[0].protocol.value: len(t) for t in tables}
        write_table = lambda path: write_results_csv(path, tables)
    outputs = {table: f"{table}.csv", "summary": "summary.json"}
    manifest = {
        "subcommand": subcommand, "config_sha256": cfg.sha256, "seed": run_cfg.seed,
        "trials": trial_counts, "outputs": outputs, "artifact_version": ARTIFACT_VERSION,
        "rng_algorithm": RNG_ALGORITHM, "sweep": sweep}
    try:  # strict JSON, serialized before the directory exists
        summary_json, manifest_json = (json.dumps(d, sort_keys=True, indent=2, allow_nan=False)
                                       + "\n" for d in (summary, manifest))
    except ValueError as exc:  # numpy's overflow left an inf or nan statistic
        raise ValueError(f"summary.json: {exc}; nothing was written") from None
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / outputs[table])
    _write_json(out / "summary.json", summary_json)
    _write_json(out / "manifest.json", manifest_json)
    return summary
