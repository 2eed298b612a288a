"""Smoke tests of the benchmark itself.

    python -m pytest perfbench

These run each workload briefly, so they take under a minute; the repository
test suite (`tests/`) does not collect them.
"""
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=3, seconds=0.5, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_run_prints_every_metric_and_passes_checks(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, provenance_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())

    provenance = json.loads(provenance_line)["provenance"]
    for key in ("python", "numpy", "nproc", "cpu_model", "git_commit", "seed",
                "ensemble_size", "trials_per_round", "rounds"):
        assert key in provenance
    if workload != "qcs-pairwise":
        assert provenance["golden"]["status"] in ("match", "not recorded for this numpy")


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("compare-fast", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_records_nested_spans_and_restores_originals():
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = spans.Tracer()
    tracer.add(mod, "inner", "fake.inner", "a")
    tracer.add(mod, "outer", "fake.outer", "b")
    originals = (mod.inner, mod.outer)

    tracer.install()
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert (mod.inner, mod.outer) == originals

    recorded = tracer.take()
    assert [tracer.names[r[0]] for r in recorded] == ["fake.outer", "fake.inner"]
    assert recorded[0][3] == -1 and recorded[1][3] == 0
    profile = spans.Profile(tracer)
    assert profile.analyse(recorded) == []
    outer, inner = recorded
    assert profile.self_ns[1] == (outer[2] - outer[1]) - (inner[2] - inner[1]) >= 0


def test_analyse_reports_a_child_outside_its_parent():
    tracer = spans.Tracer()
    tracer.names += ["p", "c"]
    tracer.layers += ["a", "a"]
    bad = [[0, 10, 20, -1, False], [1, 15, 25, 0, False]]
    assert spans.Profile(tracer).analyse(bad)


def _sweep_check_failures(tmp_path, offset_in_se, reference):
    """Failed rate checks on a synthetic sweep.csv whose means sit at floor + offset."""
    wl = workloads.WORKLOADS["sweep-syntonize"]
    call = wl.calls[0]
    se = 3e-16
    mean = workloads.rate_rounding_floor() + offset_in_se * se
    lines = ["# units", "param,value,trials,metric,mean_error,rms_error,ci95_halfwidth"]
    lines += [f"{call.sweep_param},{v!r},{call.trials},error_rate_offset,{mean!r},1e-15,"
              f"{se * workloads.CI95_Z!r}" for v in call.sweep_values]
    (tmp_path / "sweep.csv").write_text("\n".join(lines) + "\n")
    checks = workloads.Checks()
    wl.check_round(wl, [tmp_path], reference, checks, {})
    return [f for f in checks.failures if "mean rate error" in f]


@pytest.mark.parametrize("offset, reference, fails", [
    (0.0, True, False),    # the float64 floor alone passes
    (2.9, True, False),
    (3.5, True, True),     # 3 s.e. at the reference seed
    (3.5, False, False),
    (6.5, False, True),    # 6 s.e. on seeded rounds
])
def test_sweep_rate_check_thresholds(tmp_path, offset, reference, fails):
    assert bool(_sweep_check_failures(tmp_path, offset, reference)) == fails
