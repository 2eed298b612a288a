import json

import pytest

from qcs_sim import ConfigError, Protocol, compare_equivalence, run_experiment, run_trials
from qcs_sim.cli import main
from qcs_sim.harness import apply_sweep_value, config_sha256

from scenarios import OMEGA_CS, matched_compare, one_species


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
    assert manifest["config_sha256"] == config_sha256(cfg)
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


def test_reruns_are_byte_identical(tmp_path):
    cfg = one_species(ensemble_size=5000, trials=8)
    run_experiment("qcs", cfg, tmp_path / "a", seed=5)
    run_experiment("qcs", cfg, tmp_path / "b", seed=5)
    for name in ("results.csv", "summary.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_compare_summary_fields(tmp_path):
    cfg = matched_compare(alpha=5e-9, jitter=0.0, ensemble_size=100_000)
    summary = run_experiment("compare", cfg, tmp_path / "run", seed=2, trials=50)
    assert {"rms_qcs", "rms_esct", "ratio"} <= set(summary)
    assert 0.9 < summary["ratio"] < 1.1
    lines = (tmp_path / "run" / "results.csv").read_text().splitlines()
    protocols = {line.split(",")[1] for line in lines[2:]}
    assert protocols == {"qcs", "esct"}


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


def test_unknown_sweep_parameter(tmp_path):
    cfg = one_species(ensemble_size=5000)
    with pytest.raises(ConfigError, match="sweep parameter"):
        run_experiment(
            "sweep", cfg, tmp_path / "x", protocol="qcs",
            sweep_param="transport.nope", sweep_values=[1.0],
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
        run_trials(Protocol.QCS_BASIC, cfg, **{"seed": 2, "trials": 1, field: 1.5})
    with pytest.raises(ConfigError, match="trials"):
        run_trials(Protocol.QCS_BASIC, cfg, seed=2, trials=0)
    assert len(run_trials(Protocol.QCS_BASIC, cfg, seed=2.0, trials=3.0)) == 3


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
        run_trials(Protocol.QCS_BASIC, cfg, seed=seed)
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
        compare_equivalence(cfg, seed=3, trials=2)
    path = write_config(tmp_path, cfg)
    assert main(["compare", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "transport.beta_by_species.cs" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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
