"""The benchmark tracer still finds every name it wraps.

`perfbench/spans.py::instrument` replaces module globals, dispatch-table
entries and class attributes by name. A refactor that renames or drops one
of them breaks only the traced benchmark run; this test makes it fail the
ordinary suite instead.
"""
from pathlib import Path

import pytest

from qcs_sim import harness, protocols, run_experiment

from scenarios import matched_compare, syntonize, two_species

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# every QCS runner: subcommand, config, traced runner, species per trial
RUNS = {
    "compare": (lambda: matched_compare(ensemble_size=4000), "run_qcs_basic", 1),
    "beat": (lambda: two_species(ensemble_size=4000), "run_qcs_beat", 2),
    "syntonize": (lambda: syntonize(ensemble_size=8000), "run_qcs_syntonize", 1),
}


@pytest.mark.parametrize("subcommand", sorted(RUNS))
def test_benchmark_tracer_instruments_installs_and_restores(monkeypatch, tmp_path, subcommand):
    make_cfg, runner, species = RUNS[subcommand]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    originals = dict(protocols._RUNNERS), harness.run_trials, protocols.transport_phase
    tracer, counters = spans.Tracer(), spans.Counters()
    spans.instrument(tracer, counters)
    tracer.install()
    try:
        cfg = make_cfg()
        run_experiment(subcommand, cfg, tmp_path / "run", seed=1, trials=2)
    finally:
        tracer.uninstall()
    assert (dict(protocols._RUNNERS), harness.run_trials, protocols.transport_phase) == originals
    taken = tracer.take()
    profile = spans.Profile(tracer)
    assert profile.analyse(taken) == []
    assert counters.ensemble == species * cfg.ensemble_size * 2
    # the readout reaches the estimator and the quantum core through the
    # names the tracer wraps, so their layers' times and counts are not empty;
    # a trial runs through the runner table and the rows through the writer global
    recorded = {tracer.names[name_id] for name_id, *_ in taken}
    for name in ("protocols.estimate_phase", "protocols.evolve", "protocols.prob_pos",
                 f"protocols.{runner}", "harness.write_results_csv"):
        assert name in recorded, name
    assert counters.n_used > 0
    metrics = spans.layer_metrics(profile, counters, {})
    assert metrics["protocols.trial_samples"] == (2, "count")
    assert metrics["harness.write_s"][0] > 0.0
