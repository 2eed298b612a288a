import json
import math
import re

import numpy as np
import pytest

from qcs_sim import (ClockModel, ConfigError, Epochs, Protocol, ScenarioConfig, TransportModel,
                     compare_equivalence, harness, run_experiment, run_qcs_basic, run_trials,
                     trial_stream)
from qcs_sim.errors import DegenerateCountsError
from qcs_sim.cli import _parse_values, main
from qcs_sim.harness import apply_sweep_value, summarize_trials, write_results_csv
from qcs_sim.protocols import Layout

from scenarios import OMEGA_CS, OMEGA_RB, matched_compare, one_species, syntonize, two_species


def write_config(tmp_path, cfg, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg.to_dict()))
    return p


def test_run_writes_results_summary_manifest(tmp_path):
    cfg = one_species(ensemble_size=5000, seed=3, trials=10)
    summary = run_experiment("qcs", cfg, tmp_path / "run")
    for name in ("results.csv", "summary.json", "manifest.json"):
        assert (tmp_path / "run" / name).exists()
    assert summary["trials"] == 10
    assert "time_offset" in summary["metrics"]

    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["trials"] == {"qcs": 10}
    assert manifest["config_sha256"] == cfg.sha256
    assert "Philox" in manifest["rng_algorithm"]


def test_results_csv_layout_and_precision(tmp_path):
    cfg = one_species(ensemble_size=5000, trials=5)
    run_experiment("qcs", cfg, tmp_path / "run", seed=9)
    lines = (tmp_path / "run" / "results.csv").read_text().splitlines()
    assert lines[0].startswith("# units:")
    header = lines[1].split(",")
    assert header[:2] == ["trial_id", "protocol"]
    assert "truth_time_offset" in header and "error_time_offset" in header
    # 17 significant digits round-trip float64 exactly
    row = dict(zip(header, lines[2].split(",")))
    err = float(row["error_time_offset"])
    est = float(row["estimate_time_offset"])
    truth = float(row["truth_time_offset"])
    assert err == est - truth


def test_results_csv_fills_each_cell_from_its_own_layout(tmp_path):
    # three layouts, two of them beat with other species names: every cell
    # holds the value its header names, or stays empty
    tables = [
        run_trials(Protocol.QCS_BEAT, two_species(
            ensemble_size=5000, species={"rb": OMEGA_RB, "cs": OMEGA_CS}).with_run(1, 2)),
        run_trials(Protocol.QCS_BASIC, one_species(ensemble_size=5000).with_run(1, 2)),
        run_trials(Protocol.QCS_BEAT, two_species(
            ensemble_size=5000, species={"aa": OMEGA_RB, "zz": OMEGA_CS},
            clock_a={"delta_by_species": {"aa": 0.0, "zz": 0.0}},
            clock_b={"delta_by_species": {"aa": 0.0, "zz": 0.0}},
            transport={"beta_by_species": {"aa": 0.0, "zz": 0.0}}).with_run(1, 2)),
    ]
    write_results_csv(tmp_path / "results.csv", tables)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    header = lines[1].split(",")
    groups = ("truth", "estimate", "error", "diagnostics")
    columns = [tuple(name.split("_", 1)) for name in header[2:]]
    assert columns == sorted(columns, key=lambda c: (groups.index(c[0]), c[1]))
    rows = [(i, r) for table in tables for i, r in enumerate(table)]
    for (i, r), line in zip(rows, lines[2:], strict=True):
        cells = dict(zip(header, line.split(",")))
        assert (cells.pop("trial_id"), cells.pop("protocol")) == (str(i), r.protocol)
        filled = {f"{g}_{k}": "%.17g" % v for g in groups for k, v in getattr(r, g).items()}
        assert cells == {name: filled.get(name, "") for name in cells}


def test_results_csv_written_in_blocks_equals_the_whole_list_join(tmp_path):
    # 2500 rows: two full 1000-row blocks and a partial one
    results = run_trials(Protocol.QCS_BASIC, one_species(ensemble_size=1000).with_run(3, 2500))
    write_results_csv(tmp_path / "results.csv", [results])
    header, templates = harness._csv_format((results[0].layout,))
    lines = [templates[r.layout] % (i, *r.values) for i, r in enumerate(results)]
    want = f"{harness._UNITS_COMMENT}\n{','.join(header)}\n" + "\n".join(lines) + "\n"
    assert (tmp_path / "results.csv").read_bytes() == want.encode("utf-8")


def test_reruns_are_byte_identical(tmp_path):
    cfg = one_species(ensemble_size=5000, trials=8)
    run_experiment("qcs", cfg, tmp_path / "a", seed=5)
    run_experiment("qcs", cfg, tmp_path / "b", seed=5)
    for name in ("results.csv", "summary.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_a_config_built_in_python_writes_the_bytes_of_its_document(tmp_path):
    # a list of epochs, float omega and deltas outside [0, 2*pi)
    built = ScenarioConfig(species={"cs": OMEGA_CS}, ensemble_size=5000, trials=4,
                           clock_a=ClockModel(delta_by_species={"cs": -0.5}),
                           clock_b=ClockModel(x0=3e-8, delta_by_species={"cs": 7.0}),
                           transport=TransportModel(beta_by_species={"cs": 0.0}),
                           epochs=Epochs(b_measure=[0.25]))
    loaded = ScenarioConfig.from_dict({
        "species": {"cs": OMEGA_CS}, "ensemble_size": 5000, "trials": 4,
        "clock_a": {"delta_by_species": {"cs": -0.5}},
        "clock_b": {"x0": 3e-8, "delta_by_species": {"cs": 7.0}},
        "transport": {"beta_by_species": {"cs": 0.0}},
        "epochs": {"b_measure": [0.25]},
    })
    run_experiment("qcs", built, tmp_path / "built", seed=5)
    run_experiment("qcs", loaded, tmp_path / "loaded", seed=5)
    for name in ("results.csv", "summary.json", "manifest.json"):
        assert (tmp_path / "built" / name).read_bytes() == (tmp_path / "loaded" / name).read_bytes()


def test_compare_summary_fields(tmp_path):
    cfg = matched_compare(alpha=5e-9, jitter=0.0, ensemble_size=100_000)
    summary = run_experiment("compare", cfg, tmp_path / "run", seed=2, trials=50)
    assert {"rms_qcs", "rms_esct", "ratio"} <= set(summary)
    assert 0.9 < summary["ratio"] < 1.1
    lines = (tmp_path / "run" / "results.csv").read_text().splitlines()
    protocols = {line.split(",")[1] for line in lines[2:]}
    assert protocols == {"qcs", "esct"}


def _qcs_rows(trials, seed):
    """Synthetic qcs value rows at the scales a run produces, in trial_keys order."""
    rng = np.random.default_rng(seed)
    truth = rng.normal(3e-8, 2e-10, trials)
    estimate = truth + rng.normal(-5e-9, 1e-9, trials)
    n0, n1 = rng.binomial(500_000, 0.5, (2, trials))
    sigma = rng.uniform(1e-3, 2e-3, trials)
    columns = [truth, np.full(trials, 1e-12), rng.normal(0.0, 0.01, trials), estimate,
               estimate - truth, rng.uniform(0.0, 2 * math.pi, trials), sigma, n0,
               rng.binomial(n0, 0.3), n1, rng.binomial(n1, 0.6), n0 + n1, sigma / OMEGA_CS]
    layout = Layout(Protocol.QCS_BASIC, "cs")
    return [layout.row(tuple(v)) for v in np.array(columns, float).T.tolist()]


def _esct_rows(trials, seed):
    error = np.random.default_rng(seed).normal(5e-9, 1e-9, trials).tolist()
    layout = Layout(Protocol.ESCT_BASELINE)
    return [layout.row((0.0, e, e - 0.0)) for e in error]


def _reference_stats(values):
    """One key's statistics with 1-D numpy calls, column by column."""
    n = len(values)
    x = np.array(values)
    std = float(np.std(x, ddof=1)) if n > 1 else 0.0
    return {"mean": float(np.mean(x)), "std": std, "rms": float(np.sqrt(np.mean(x**2))),
            "min": float(np.min(x)), "max": float(np.max(x)),
            "ci95_halfwidth": 1.959963984540054 * std / math.sqrt(n) if n > 1 else 0.0}


def _column(results, group, key):
    return [getattr(r, group)[key] for r in results]


def _same(got, want):
    """Equal, and equal as summary.json bytes, which also tell -0.0 from 0.0."""
    assert got == want
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


# 8193 and 20000 trials pass numpy's 8192-element reduction block
@pytest.mark.parametrize("trials", [1, 2, 7, 8, 9, 300, 8193, 20000])
def test_summary_equals_the_column_by_column_formulas(trials):
    results = _qcs_rows(trials, seed=trials)
    first = results[0]
    _same(summarize_trials(results), {
        "trials": trials,
        "metrics": {k: _reference_stats(_column(results, "error", k)) for k in first.error},
        "mean_diagnostics": {k: float(np.mean(_column(results, "diagnostics", k)))
                             for k in first.diagnostics},
    })


def test_compare_summary_equals_the_column_by_column_formulas(monkeypatch):
    trials = 8193
    lanes = {Protocol.QCS_BASIC: _qcs_rows(trials, seed=1),
             Protocol.ESCT_BASELINE: _esct_rows(trials, seed=2)}
    monkeypatch.setattr(harness, "run_trials", lambda protocol, cfg, lane=0: lanes[protocol])
    qcs = _reference_stats(_column(lanes[Protocol.QCS_BASIC], "error", "time_offset"))
    esct = _reference_stats(_column(lanes[Protocol.ESCT_BASELINE], "error", "time_offset"))
    floor = _reference_stats(_column(lanes[Protocol.QCS_BASIC], "diagnostics", "sigma_time"))
    _same(compare_equivalence(matched_compare()), {
        "trials": trials, "rms_qcs": qcs["rms"], "rms_esct": esct["rms"],
        "ratio": qcs["rms"] / esct["rms"], "mean_error_qcs": qcs["mean"],
        "mean_error_esct": esct["mean"], "qcs_estimator_floor": floor["rms"], "esct_floor": 0.0,
    })


def test_sweep_emits_bias_table(tmp_path):
    cfg = one_species(
        epochs={"a_start": 0.0, "b_measure": [1e-3]}, noiseless=True, trials=1
    )
    summary = run_experiment(
        "sweep", cfg, tmp_path / "run", seed=1, protocol="qcs",
        sweep_param="transport.alpha", sweep_values=[0.0, 1e-9, 5e-9],
    )
    points = summary["points"]
    assert len(points) == 3
    for point, alpha in zip(points, (0.0, 1e-9, 5e-9)):
        assert abs(point["mean_error"] + alpha) < 1e-9 * alpha + 1e-18
    text = (tmp_path / "run" / "sweep.csv").read_text().splitlines()
    assert text[1].split(",")[0] == "param"
    assert len(text) == 5  # units comment + header + 3 points


def test_sweep_flags_on_protocol_subcommand(tmp_path, capsys):
    # one way to sweep: the grid belongs to the sweep subcommand only
    cfg = one_species(
        epochs={"a_start": 0.0, "b_measure": [1e-3]}, noiseless=True, trials=1
    )
    with pytest.raises(ConfigError, match="sweep_param"):
        run_experiment(
            "qcs", cfg, tmp_path / "a", seed=1,
            sweep_param="transport.alpha", sweep_values=[0.0, 1e-9],
        )
    assert not (tmp_path / "a").exists()
    path = write_config(tmp_path, cfg)
    with pytest.raises(SystemExit) as exc:
        main(["qcs", "--config", str(path), "--out", str(tmp_path / "b"),
              "--sweep-param", "transport.alpha", "--sweep-values", "0,1e-9"])
    assert exc.value.code == 2
    assert "--sweep-param" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("subcommand, name, value", [
    ("qcs", "protocol", "beat"),
    ("compare", "sweep_param", "transport.alpha"),
    ("esct", "sweep_values", [0.0, 1e-9]),
])
def test_protocol_subcommand_rejects_each_sweep_argument(tmp_path, subcommand, name, value):
    cfg = one_species(ensemble_size=5000, trials=2)
    with pytest.raises(ConfigError, match=name):
        run_experiment(subcommand, cfg, tmp_path / "run", **{name: value})
    assert not (tmp_path / "run").exists()


def test_matched_jitter_pseudo_parameter():
    cfg = matched_compare(alpha=5e-9, jitter=1e-9)
    swept = apply_sweep_value(cfg, "matched_jitter", 2e-9)
    assert swept.trip.jitter == 2e-9
    assert swept.transport.sigma_common == 2e-9 * OMEGA_CS
    swept = apply_sweep_value(cfg, "matched_alpha", 1e-9)
    assert swept.trip.alpha == 1e-9 and swept.transport.alpha == 1e-9


def test_compare_sweep_over_matched_jitter(tmp_path):
    cfg = matched_compare(alpha=5e-9, jitter=1e-9, ensemble_size=100_000)
    summary = run_experiment(
        "sweep", cfg, tmp_path / "run", seed=4, trials=100, protocol="compare",
        sweep_param="matched_jitter", sweep_values=[1e-10, 1e-9],
    )
    assert len(summary["points"]) == 2
    for point in summary["points"]:
        assert 0.9 < point["ratio"] < 1.1
    header = (tmp_path / "run" / "sweep.csv").read_text().splitlines()[1].split(",")
    assert {"rms_qcs", "rms_esct", "ratio"} <= set(header)


@pytest.mark.parametrize("param", ("transport.nope", "nope.alpha", "trip.alpha.x",
                                   "clock_b.delta_by_species.xx", "trip..alpha"))
def test_unknown_sweep_parameter(tmp_path, param):
    cfg = one_species(ensemble_size=5000)
    with pytest.raises(ConfigError, match=f"^unknown sweep parameter {re.escape(repr(param))}$"):
        run_experiment(
            "sweep", cfg, tmp_path / "x", protocol="qcs",
            sweep_param=param, sweep_values=[1.0],
        )


def test_trials_floor(tmp_path):
    cfg = one_species(ensemble_size=5000)
    with pytest.raises(ConfigError, match="trials"):
        run_experiment("qcs", cfg, tmp_path / "x", trials=0)


@pytest.mark.parametrize("field", ("seed", "trials"))
def test_library_entry_points_reject_non_integral_seed_and_trials(tmp_path, field):
    cfg = one_species(ensemble_size=5000)
    with pytest.raises(ConfigError, match=field):
        run_experiment("qcs", cfg, tmp_path / "x", **{"seed": 1, "trials": 2, field: 2.7})
    with pytest.raises(ConfigError, match=field):
        cfg.with_run(**{"seed": 2, "trials": 1, field: 1.5})
    with pytest.raises(ConfigError, match="trials"):
        cfg.with_run(seed=2, trials=0)
    assert len(run_trials(Protocol.QCS_BASIC, cfg.with_run(seed=2.0, trials=3.0))) == 3


def test_sweep_over_trials_runs_each_point_with_its_own_count(tmp_path):
    cfg = one_species(ensemble_size=5000, trials=3)
    run_experiment("sweep", cfg, tmp_path / "run", protocol="qcs",
                   sweep_param="trials", sweep_values=[2.0, 5.0])
    lines = (tmp_path / "run" / "sweep.csv").read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    assert [(float(r["value"]), int(r["trials"])) for r in rows] == [(2.0, 2), (5.0, 5)]
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["trials"] == {"qcs": 3}  # the base count; each point has its own


def test_sweep_over_seed_matches_standalone_runs(tmp_path):
    cfg = one_species(ensemble_size=5000, trials=3)
    summary = run_experiment("sweep", cfg, tmp_path / "sweep", protocol="qcs",
                             sweep_param="seed", sweep_values=[1.0, 2.0])
    for point in summary["points"]:
        seed = int(point["value"])
        alone = run_experiment("qcs", cfg, tmp_path / f"seed{seed}", seed=seed)
        assert point["mean_error"] == alone["metrics"]["time_offset"]["mean"]


@pytest.mark.parametrize("seed", (-1, 2**64))
def test_out_of_range_seed_override_is_a_config_error(tmp_path, capsys, seed):
    cfg = one_species(ensemble_size=5000, trials=2)
    with pytest.raises(ConfigError, match="seed"):
        run_experiment("qcs", cfg, tmp_path / "x", seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        cfg.with_run(seed=seed)
    path = write_config(tmp_path, cfg)
    assert main(["qcs", "--config", str(path), "--out", str(tmp_path / "x"),
                 "--seed", str(seed)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_compare_rejects_a_species_dependent_transport_phase(tmp_path, capsys):
    # the clock trip has no counterpart to beta, so the models cannot match
    cfg = apply_sweep_value(matched_compare(ensemble_size=5000, trials=2),
                            "transport.beta_by_species.cs", 1.0)
    with pytest.raises(ConfigError, match=r"transport\.beta_by_species\.cs"):
        compare_equivalence(cfg.with_run(seed=3, trials=2))
    path = write_config(tmp_path, cfg)
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "transport.beta_by_species.cs" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("subcommand,cfg,message", [
    ("qcs", two_species(ensemble_size=5000), "species: qcs requires exactly one configured species"),
    ("compare", two_species(ensemble_size=5000),
     "species: compare requires exactly one configured species"),
    ("syntonize", one_species(ensemble_size=5000),
     "epochs.b_measure: syntonize requires exactly two measurement epochs"),
    ("beat", two_species(ensemble_size=5000, species={"cs": OMEGA_CS, "rb": OMEGA_CS}),
     "species: beat requires omega1 != omega2 (beat undefined)"),
    ("compare", one_species(ensemble_size=5000, transport={"alpha": 1e-9,
                                                           "beta_by_species": {"cs": 0.0}}),
     "trip.alpha: compare requires matched models: trip.alpha == transport.alpha and "
     "trip.jitter == "),
    ("compare", one_species(ensemble_size=5000, trip={"duration": 10.0, "jitter": 1e-9}),
     "trip.jitter: compare requires matched models: trip.alpha == transport.alpha and "
     "trip.jitter == "),
])
def test_a_config_its_protocol_cannot_run_is_a_config_error_naming_the_field(
        tmp_path, subcommand, cfg, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}") as exc:
        run_experiment(subcommand, cfg, tmp_path / "x", trials=2)
    assert type(exc.value) is ConfigError
    assert not (tmp_path / "x").exists()


def test_a_statistic_beyond_float_range_fails_the_run_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    # the magnitude rule keeps every statistic finite, so one is planted: strict
    # JSON is the backstop that keeps it out of summary.json
    stats = harness._stats
    monkeypatch.setattr(harness, "_stats", lambda x: [dict(s, rms=math.inf) for s in stats(x)])
    cfg = one_species(ensemble_size=5000, trip={"duration": 10.0, "alpha": 0.0, "jitter": 1e-9})
    with pytest.raises(ValueError, match="^summary.json: Out of range float values"):
        run_experiment("esct", cfg, tmp_path / "x", seed=1, trials=5)
    assert not (tmp_path / "x").exists()
    path = write_config(tmp_path, cfg)
    assert main(["esct", "--config", str(path), "--out", str(tmp_path / "x"),
                 "--seed", "1", "--trials", "5"]) == 2
    assert "summary.json" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_a_jitter_whose_statistics_would_overflow_is_rejected_at_the_config(tmp_path, capsys):
    # the RMS of esct errors at trip.jitter = 1e308 would overflow to inf
    message = "trip.jitter must be at most 1e+100 in magnitude"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        one_species(ensemble_size=5000, trip={"duration": 10.0, "alpha": 0.0, "jitter": 1e308})
    doc = one_species(ensemble_size=5000).to_dict()
    doc["trip"]["jitter"] = 1e308
    path = tmp_path / "jitter.json"
    path.write_text(json.dumps(doc))
    assert main(["esct", "--config", str(path), "--out", str(tmp_path / "x"),
                 "--seed", "1", "--trials", "5"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("subcommand,doc", [
    ("qcs", dict(one_species(ensemble_size=5000).to_dict(), use_type_i=True,
                 shuffle_type_list=True)),
    ("syntonize", dict(syntonize(ensemble_size=8000).to_dict(), shuffle_type_list=True)),
], ids=["use_type_i", "syntonize"])
def test_a_shuffled_list_no_sampler_reads_exits_2_naming_the_field(
        tmp_path, capsys, subcommand, doc):
    path = tmp_path / "shuffled.json"
    path.write_text(json.dumps(doc))
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "x"),
                 "--seed", "1", "--trials", "2"]) == 2
    assert "error: shuffle_type_list: " in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_a_run_that_fails_mid_way_writes_nothing(tmp_path, capsys):
    # a shuffled list leaves one of these trials with counts at the circle center
    cfg = one_species(ensemble_size=1000, shuffle_type_list=True)
    with pytest.raises(DegenerateCountsError, match=r"^trial (\d+) \(seed 21, lane 0\): ") as exc:
        run_experiment("qcs", cfg, tmp_path / "x", seed=21, trials=3000)
    assert not (tmp_path / "x").exists()
    # the message names the trial, and that trial alone raises the same error
    trial = int(re.match(r"trial (\d+)", str(exc.value)).group(1))
    with pytest.raises(DegenerateCountsError) as alone:
        run_qcs_basic(cfg.with_run(seed=21), trial_stream(21, trial, 0))
    assert str(exc.value).endswith(f": {alone.value}")
    run_trials(Protocol.QCS_BASIC, cfg.with_run(seed=21, trials=trial))  # the trials before it run
    path = write_config(tmp_path, cfg)
    assert main(["qcs", "--config", str(path), "--out", str(tmp_path / "x"),
                 "--seed", "21", "--trials", "3000"]) == 3
    assert (f"runtime error: DegenerateCountsError: trial {trial} (seed 21, lane 0): "
            in capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("model", ["alpha", "jitter"])
@pytest.mark.parametrize("off,matched", [(0.5, True), (2.0, False)])
def test_matched_models_tolerance_edge(model, off, matched):
    # trip.alpha against transport.alpha, trip.jitter against sigma_common / omega,
    # each off by `off` times MATCHED_MODEL_RTOL, relative
    cfg = matched_compare(alpha=5e-9, jitter=1e-9)
    target = cfg.transport.alpha if model == "alpha" else cfg.transport.sigma_common / OMEGA_CS
    cfg = apply_sweep_value(cfg, f"trip.{model}", target * (1 + off * harness.MATCHED_MODEL_RTOL))
    if matched:
        harness._require_matched_models(cfg)
    else:
        with pytest.raises(ValueError, match="matched models"):
            harness._require_matched_models(cfg)


# -- CLI ------------------------------------------------------------------------


def test_cli_end_to_end(tmp_path):
    cfg = one_species(ensemble_size=5000, trials=4)
    path = write_config(tmp_path, cfg)
    assert main(["qcs", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "results.csv").exists()


def test_cli_exit_code_2_on_config_problems(tmp_path):
    cfg = one_species(ensemble_size=5000)
    path = write_config(tmp_path, cfg)
    assert main(["qcs", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2
    # a config the protocol rejects fails before any output directory is made
    assert main(["beat", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    unmatched = write_config(tmp_path, one_species(
        ensemble_size=5000, transport={"alpha": 1e-9, "beta_by_species": {"cs": 0.0}}),
        name="unmatched.json")
    assert main(["compare", "--config", str(unmatched), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert main(["qcs", "--config", str(path), "--out", str(tmp_path / "o"), "--trials", "0"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["qcs", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("y", (-1.0, -2.0))
def test_cli_exit_code_2_on_a_clock_rate_at_or_below_minus_one(tmp_path, capsys, y):
    # at y = -1 the clock stands still, below it runs backwards
    doc = one_species(ensemble_size=5000, trials=2).to_dict()
    doc["clock_b"]["y"] = y
    path = tmp_path / "rate.json"
    path.write_text(json.dumps(doc))
    assert main(["qcs", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "clock_b.y must be > -1" in capsys.readouterr().err
    valid = write_config(tmp_path, one_species(ensemble_size=5000, trials=2))
    assert main(["sweep", "--protocol", "qcs", "--config", str(valid), "--out",
                 str(tmp_path / "o"), "--sweep-param", "clock_b.y", "--sweep-values",
                 f"0,{y}"]) == 2
    assert "clock_b.y must be > -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_exit_code_2_on_an_int_literal_beyond_float_range(tmp_path, capsys):
    doc = one_species(ensemble_size=5000, trials=2).to_dict()
    doc["clock_b"]["x0"] = 10**400
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["qcs", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "clock_b.x0 must be finite" in capsys.readouterr().err


def test_cli_rejects_an_integer_sweep_value_no_float_holds(tmp_path, capsys):
    path = write_config(tmp_path, one_species(ensemble_size=5000, trials=2))
    for grid in ("1,9007199254740993", "-9007199254740993", "1,9007199254740993.0"):
        assert main(["sweep", "--protocol", "qcs", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--sweep-param", "seed", "--sweep-values", grid]) == 2
        err = capsys.readouterr().err
        assert "--sweep-values" in err and grid.split(",")[-1] in err
    assert not (tmp_path / "o").exists()
    assert _parse_values("9007199254740992, 1.5,,1e20") == [2.0**53, 1.5, 1e20]


@pytest.mark.parametrize("param", ("seed", "trials", "ensemble_size"))
def test_integer_field_rejects_a_decimal_sweep_value_no_float_holds(param):
    # 2**53 + 1 written in decimal or exponent form parses to the float 2**53
    for entry in ("9007199254740993.0", "9.007199254740993e15", "-9007199254740993.0"):
        with pytest.raises(ConfigError, match=f"^{param}: .*'{re.escape(entry)}'"):
            _parse_values(f"1,{entry}", param)


def test_float_field_runs_a_large_decimal_sweep_value_as_its_float():
    assert _parse_values("1e30, 9007199254740993.0", "transport.alpha") == [1e30, 2.0**53]
    assert _parse_values("4000.0,8e3,1e16", "ensemble_size") == [4000.0, 8000.0, 1e16]


@pytest.mark.parametrize("section,key", [("clock_a", "delta_by_species"),
                                         ("transport", "beta_by_species")])
def test_cli_exit_code_2_on_list_valued_by_species(tmp_path, capsys, section, key):
    doc = one_species(ensemble_size=5000).to_dict()
    doc[section][key] = [0.0]
    path = tmp_path / "list.json"
    path.write_text(json.dumps(doc))
    assert main(["qcs", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


def test_cli_exit_code_2_on_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x", "--out", "y"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_exit_code_3_on_io_failure(tmp_path):
    cfg = one_species(ensemble_size=5000, trials=2)
    path = write_config(tmp_path, cfg)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = main(["qcs", "--config", str(path), "--out", str(blocker / "sub")])
    assert code == 3
