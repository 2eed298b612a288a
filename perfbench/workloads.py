"""Benchmark workloads: generated scenario configs, the calls of one round, output checks.

A round is the fixed set of `run_experiment` calls a workload makes with one
seed. The benchmark repeats rounds with seeds derived from its `--seed` until
its time is up, after one untimed reference round at GOLDEN_SEED whose bytes
are compared against goldens recorded per numpy version (numpy does not
promise stable `Generator.binomial` streams across releases).

Only the standard library is imported here, so that a child process can load
this module before it starts timing `import qcs_sim`.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

OMEGA_CS = 2 * math.pi * 1.0e6

#: Seed of the untimed reference round that every run starts with.
GOLDEN_SEED = 7030

#: Standard-error multiples for the per-point sweep check. At the golden seed
#: the outcome is fixed, so the 3 s.e. rule is checked once and stays checked.
#: A seeded run checks ~10 points in each of dozens of rounds, where a 3 s.e.
#: rule would fail about 2.7% of rounds by chance alone; 6 s.e. keeps chance
#: failures below 1e-7 per round while any transport leak into the rate
#: (a bias of order beta/(omega*dt), hundreds of s.e.) still fails at once.
Z_REFERENCE = 3.0
Z_SEEDED = 6.0

#: Float64 phase bookkeeping rounds in two places (evolve and the unwrap in
#: estimate_rate), each by up to one ulp of omega*t2. That bounds the
#: resolution of the rate estimate independently of the trial count; the
#: sweep check allows it on top of the statistical term.
RATE_ROUNDING_ULPS = 2

CI95_Z = 1.959963984540054


def round_seed(seed: int, index: int) -> int:
    """Seed of timed round `index` of a run started with `seed`."""
    return (seed * 1_000_003 + index) % 2**64


@dataclass(frozen=True)
class Call:
    """One `run_experiment` call of a round."""

    config: str
    subcommand: str
    trials: int
    protocol: str | None = None
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] | None = None


class Checks:
    """Named output checks of one run, counted into attempted/failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


@dataclass
class Workload:
    name: str
    configs: Callable[[int], dict[str, dict]]
    calls: tuple[Call, ...]
    check_round: Callable[["Workload", list[Path], bool, Checks, dict], None]
    check_run: Callable[[dict, Checks], None] = lambda facts, checks: None

    @property
    def trials_per_round(self) -> int:
        """Protocol trials one round completes; both compare lanes count."""
        total = 0
        for call in self.calls:
            lanes = 2 if call.subcommand == "compare" else 1
            points = len(call.sweep_values) if call.sweep_values else 1
            total += lanes * points * call.trials
        return total

    def facts(self, docs: dict[str, dict]) -> dict:
        return {
            "ensemble_size": {name: doc["ensemble_size"] for name, doc in docs.items()},
            "calls": [
                {"config": c.config, "subcommand": c.subcommand, "trials": c.trials,
                 "points": len(c.sweep_values) if c.sweep_values else 1}
                for c in self.calls
            ],
            "trials_per_round": self.trials_per_round,
        }


# -- scenario documents ------------------------------------------------------


def _perfect(omega=OMEGA_CS):
    return {
        "species": {"cs": omega},
        "ensemble_size": 1_000_000,
        "clock_a": {"delta_by_species": {"cs": 0.0}},
        "clock_b": {"delta_by_species": {"cs": 0.0}},
        "transport": {"beta_by_species": {"cs": 0.0}},
        "epochs": {"a_start": 0.0, "b_measure": [0.25]},
    }


def _compare_configs(seed):
    alpha, jitter = 5e-9, 1e-9
    doc = _perfect()
    doc.update(
        transport={"alpha": alpha, "sigma_common": jitter * OMEGA_CS,
                   "beta_by_species": {"cs": 0.0}},
        trip={"duration": 10.0, "alpha": alpha, "jitter": jitter},
        seed=seed,
    )
    return {"matched": doc}


SYNTONIZE_Y = 1e-12
SYNTONIZE_EPOCHS = (10.0, 10.0 + 0.5 / (OMEGA_CS * SYNTONIZE_Y))  # 0.5 rad of rate walk


def _syntonize_configs(seed):
    doc = _perfect()
    doc.update(
        ensemble_size=8_000_000,
        clock_b={"y": SYNTONIZE_Y, "delta_by_species": {"cs": 0.0}},
        epochs={"a_start": 0.0, "b_measure": list(SYNTONIZE_EPOCHS)},
        seed=seed,
    )
    return {"syntonize": doc}


def _pairwise_configs(seed):
    jitter = _perfect()
    jitter.update(
        clock_b={"x0": 3e-8, "delta_by_species": {"cs": 0.0}},
        transport={"beta_by_species": {"cs": 0.0}, "sigma_pair": 0.3},
        use_type_i=True,
        seed=seed,
    )
    shuffled = _perfect()
    shuffled.update(
        clock_b={"x0": 3e-8, "delta_by_species": {"cs": 0.0}},
        shuffle_type_list=True,
        seed=seed,
    )
    return {"sigma_pair": jitter, "shuffle": shuffled}


# -- output parsing ----------------------------------------------------------


def read_rows(path: Path) -> list[dict[str, str]]:
    """Rows of a results.csv or sweep.csv, skipping the leading units comment."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_error_identity(rows, checks: Checks, where: str):
    """error_k == estimate_k - truth_k on every row, exactly."""
    bad = 0
    for row in rows:
        for col, err in row.items():
            if not col.startswith("error_"):
                continue
            key = col[len("error_"):]
            est, truth = row.get(f"estimate_{key}", ""), row.get(f"truth_{key}", "")
            if not (_finite(err) and _finite(est) and _finite(truth)) or \
                    float(err) != float(est) - float(truth):
                bad += 1
    checks.record(f"{where}: error == estimate - truth", bad == 0 and len(rows) > 0,
                  f"{bad} of {len(rows)} rows differ")


def check_golden(wl: Workload, path: Path, checks: Checks, facts: dict):
    """Compare an output's sha256 with the golden recorded for this numpy."""
    import numpy as np  # already imported by qcs_sim; version keys the golden

    goldens = json.loads((Path(__file__).parent / "golden.json").read_text())
    key = f"numpy {np.__version__}"
    expected = goldens.get(wl.name, {}).get(key)
    actual = sha256_file(path)
    facts["golden"] = {"file": path.name, "sha256": actual, "numpy": np.__version__}
    if expected is None:
        # Without a recorded value there is nothing to compare: say so in the
        # provenance rather than count a failure the code did not cause.
        facts["golden"]["status"] = "not recorded for this numpy"
        return
    ok = checks.record(f"{wl.name}: golden {path.name} sha256", actual == expected,
                       f"got {actual}, recorded {expected}")
    facts["golden"]["status"] = "match" if ok else "MISMATCH"


# -- per-workload checks -----------------------------------------------------


def _check_compare(wl, outs, reference, checks, facts):
    (out,) = outs
    call = wl.calls[0]
    rows = read_rows(out / "results.csv")
    lanes = {p: sum(1 for r in rows if r["protocol"] == p) for p in ("qcs", "esct")}
    checks.record("compare: one row per trial and lane",
                  lanes == {"qcs": call.trials, "esct": call.trials}, str(lanes))
    check_error_identity(rows, checks, "compare")
    ratio = json.loads((out / "summary.json").read_text()).get("ratio")
    checks.record("compare: RMS ratio in [0.9, 1.1]",
                  ratio is not None and 0.9 <= ratio <= 1.1, f"ratio={ratio}")
    if reference:
        check_golden(wl, out / "results.csv", checks, facts)


def rate_rounding_floor(epochs=SYNTONIZE_EPOCHS, omega=OMEGA_CS) -> float:
    t1, t2 = epochs
    return RATE_ROUNDING_ULPS * math.ulp(omega * t2) / (omega * (t2 - t1))


def _check_sweep(wl, outs, reference, checks, facts):
    (out,) = outs
    call = wl.calls[0]
    rows = read_rows(out / "sweep.csv")
    grid_ok = len(rows) == len(call.sweep_values) and all(
        float(r["value"]) == v and int(r["trials"]) == call.trials
        for r, v in zip(rows, call.sweep_values)
    )
    checks.record("sweep: one row per grid point", grid_ok, f"{len(rows)} rows")
    z = Z_REFERENCE if reference else Z_SEEDED
    floor = rate_rounding_floor()
    worst = 0.0
    for r in rows:
        se = float(r["ci95_halfwidth"]) / CI95_Z
        excess = abs(float(r["mean_error"])) - floor
        worst = max(worst, excess / se if se > 0 else math.inf)
    checks.record(f"sweep: mean rate error within {z:g} s.e. at every point",
                  bool(rows) and worst <= z, f"worst point at {worst:.2f} s.e.")
    if reference:
        check_golden(wl, out / "sweep.csv", checks, facts)


def _check_pairwise(wl, outs, reference, checks, facts):
    pooled = facts.setdefault("pooled", {"theta_shuffle": [], "coverage": []})
    for call, out in zip(wl.calls, outs):
        rows = read_rows(out / "results.csv")
        estimated = sum(1 for r in rows if _finite(r.get("estimate_time_offset", "")))
        checks.record(f"{call.config}: every trial yields an estimate",
                      len(rows) == call.trials and estimated == call.trials,
                      f"{estimated} estimates from {len(rows)} rows")
        check_error_identity(rows, checks, call.config)
        for r in rows:
            if call.config == "shuffle":
                pooled["theta_shuffle"].append(float(r["diagnostics_theta_hat"]))
            else:
                pooled["coverage"].append(
                    abs(float(r["error_time_offset"])) <= 3.0 * float(r["diagnostics_sigma_time"])
                )


def circular_std(angles) -> float:
    n = len(angles)
    c = sum(math.cos(a) for a in angles) / n
    s = sum(math.sin(a) for a in angles) / n
    r = math.hypot(c, s)
    return math.sqrt(-2.0 * math.log(r)) if r > 0 else math.inf


def _check_pairwise_run(facts, checks):
    """Distribution checks pooled over every trial of the run.

    Pooling keeps chance failures negligible: with ~40 shuffled trials a
    uniform phase reads a circular std below 1 rad with probability ~1e-6.
    """
    pooled = facts.pop("pooled", {"theta_shuffle": [], "coverage": []})
    thetas, cover = pooled["theta_shuffle"], pooled["coverage"]
    spread = circular_std(thetas) if thetas else 0.0
    checks.record("shuffle: circular std of theta_hat > 1 rad", spread > 1.0,
                  f"{spread:.3f} rad over {len(thetas)} trials")
    share = sum(cover) / len(cover) if cover else 0.0
    checks.record("sigma_pair: >= 95% of errors within 3 reported sigma", share >= 0.95,
                  f"{share:.3f} of {len(cover)} trials")
    facts["shuffle_circular_std_rad"] = spread
    facts["sigma_pair_coverage_3sigma"] = share


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="compare-fast",
            configs=_compare_configs,
            calls=(Call("matched", "compare", 5000),),
            check_round=_check_compare,
        ),
        Workload(
            name="sweep-syntonize",
            configs=_syntonize_configs,
            calls=(Call("syntonize", "sweep", 300, protocol="syntonize",
                        sweep_param="transport.beta_by_species.cs",
                        sweep_values=tuple(0.5 * i for i in range(10))),),
            check_round=_check_sweep,
        ),
        Workload(
            name="qcs-pairwise",
            configs=_pairwise_configs,
            calls=(Call("sigma_pair", "qcs", 3), Call("shuffle", "qcs", 3)),
            check_round=_check_pairwise,
            check_run=_check_pairwise_run,
        ),
    )
}
