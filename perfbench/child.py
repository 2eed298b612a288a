"""One benchmark workload in a fresh, single-threaded process.

    python3 perfbench/child.py --workload NAME --workdir DIR --seed N --seconds S --trace 0|1
    python3 perfbench/child.py --workload NAME --workdir DIR --setup-only

`run.py` starts this script with the scenario files already written to
DIR/configs. The script imports qcs_sim from the checkout's `src`, loads the
configs, runs one untimed reference round and then timed rounds until S
seconds have passed, checking every round's outputs. It prints one JSON
object as the last line of its standard output.

With --trace 1 each round runs twice with the same seed, untraced and then
traced, and the traced outputs must equal the untraced ones byte for byte.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_qcs_sim():
    sys.path.insert(0, str(ROOT / "src"))
    import qcs_sim

    location = Path(qcs_sim.__file__).resolve()
    if not location.is_relative_to(ROOT / "src"):
        raise ImportError(f"qcs_sim imported from {location}, not from this checkout")
    return qcs_sim


def run_round(qcs_sim, wl, cfgs, seed, out_root, checks):
    """One round's run_experiment calls; returns (busy seconds, output dirs, all ok)."""
    shutil.rmtree(out_root, ignore_errors=True)
    busy, outs, ok = 0.0, [], True
    for i, call in enumerate(wl.calls):
        out = out_root / f"{i}-{call.config}"
        start = time.perf_counter()
        try:
            qcs_sim.harness.run_experiment(
                call.subcommand, cfgs[call.config], out, seed=seed, trials=call.trials,
                protocol=call.protocol, sweep_param=call.sweep_param,
                sweep_values=call.sweep_values,
            )
        except Exception:
            busy += time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            checks.record(f"{call.config}: run_experiment", False, "raised")
            ok = False
        else:
            busy += time.perf_counter() - start
            checks.record(f"{call.config}: run_experiment", True)
        outs.append(out)
    return busy, outs, ok


def check_round(wl, outs, reference, checks, facts):
    try:
        wl.check_round(wl, outs, reference, checks, facts)
    except (OSError, KeyError, ValueError):
        traceback.print_exc(file=sys.stderr)
        checks.record(f"{wl.name}: outputs readable", False, "could not parse outputs")


def tree_digest(root: Path) -> tuple[dict[str, str], int]:
    """sha256 of every file under root by relative path, and their total bytes."""
    digests, size = {}, 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digests[str(path.relative_to(root))] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    config_dir = args.workdir / "configs"

    start = time.perf_counter()
    qcs_sim = import_qcs_sim()
    tracer = counters = None
    if args.trace:
        tracer, counters = spans.Tracer(), spans.Counters()
        spans.instrument(tracer, counters)
        tracer.install()
    cfgs = {
        path.stem: qcs_sim.config.load_config(path)
        for path in sorted(config_dir.glob("*.json"))
    }
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np

    checks = workloads.Checks()
    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qcs_sim": str(Path(qcs_sim.__file__).resolve().relative_to(ROOT)),
    }
    profile = None
    if tracer is not None:
        tracer.uninstall()
        profile = spans.Profile(tracer)
        problems = profile.analyse(tracer.take())
        checks.record("trace: set-up spans nest", not problems, "; ".join(problems[:3]))

    # Untimed reference round: golden bytes, warm caches.
    ref_root = args.workdir / "reference"
    _, outs, ok = run_round(qcs_sim, wl, cfgs, workloads.GOLDEN_SEED, ref_root, checks)
    if ok:
        check_round(wl, outs, True, checks, facts)

    rates, rounds = [], 0
    untraced_s = traced_s = 0.0
    bytes_written = 0
    loop_start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - loop_start < args.seconds:
        seed = workloads.round_seed(args.seed, rounds)
        root_u = args.workdir / "untraced"
        busy, outs, ok = run_round(qcs_sim, wl, cfgs, seed, root_u, checks)
        rounds += 1
        if not ok:
            continue
        rates.append(wl.trials_per_round / busy)
        check_round(wl, outs, False, checks, facts)
        if tracer is None:
            continue
        root_t = args.workdir / "traced"
        tracer.install()
        try:
            busy_t, _, ok_t = run_round(qcs_sim, wl, cfgs, seed, root_t, checks)
        finally:
            tracer.uninstall()
        problems = profile.analyse(tracer.take())
        profile.rounds += 1
        checks.record("trace: spans nest and self times >= 0", not problems,
                      "; ".join(problems[:3]))
        digests_u, size = tree_digest(root_u)
        digests_t, _ = tree_digest(root_t)
        checks.record("trace: outputs byte-identical to untraced", ok_t and digests_u == digests_t)
        untraced_s += busy
        traced_s += busy_t
        bytes_written += size
    wl.check_run(facts, checks)
    shutil.rmtree(args.workdir / "untraced", ignore_errors=True)
    shutil.rmtree(args.workdir / "traced", ignore_errors=True)
    shutil.rmtree(ref_root, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "trials_per_s": statistics.median(rates) if rates else 0.0,
        "round_rates": rates,
        "rounds": rounds,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "facts": facts,
    }
    if profile is not None:
        overhead = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
        extra = {
            "trace.overhead_frac": (overhead, "frac"),
            "harness.bytes_written": (bytes_written / max(profile.rounds, 1), "B"),
        }
        result["layers"] = spans.layer_metrics(profile, counters, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
