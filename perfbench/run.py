"""qcs-sim benchmark: run one workload in fresh child processes and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and the
simulator is imported from its `src`. Workloads are defined in workloads.py
and explained in README.md. Scratch outputs go to .bench_build/perfbench in
the checkout and are removed at exit.

With --trace 0 the metrics are the end-to-end ones (trials_per_s, setup_s,
peak_rss_mib, ok_frac); with --trace 1 they are the per-layer ones of a
traced run. Standard output ends with a provenance line and then one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

#: Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_SAMPLES = 9

#: Time a workload child gets beyond --seconds for set-up, reference round and
#: checks, and the time a set-up-only child gets; together they stay well
#: inside a three-minute budget per run.
CHILD_GRACE_S = 100
SETUP_TIMEOUT_S = 20

#: Single process, single thread: no worker pool, no BLAS threads.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        p.error("--seed must be a u64 and --seconds > 0")
    return args


def run_child(workdir: Path, args, extra: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", args.workload, "--workdir", str(workdir),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (checkout has no git metadata)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qcs_sim" / "__init__.py").is_file():
        print(f"error: no qcs_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    docs = wl.configs(args.seed)
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "configs").mkdir(parents=True)
    try:
        for name, doc in docs.items():
            (workdir / "configs" / f"{name}.json").write_text(json.dumps(doc, indent=2))
        setup = []
        if not args.trace:
            setup = [run_child(workdir, args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
                     for _ in range(SETUP_SAMPLES - 1)]
        child = run_child(workdir, args, [], args.seconds + CHILD_GRACE_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append(child["setup_s"])

    attempted, failed = child["attempted"], child["failed"]
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in child["layers"].items()}
    else:
        metrics = {
            "trials_per_s": {"value": child["trials_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": child["peak_rss_mib"], "unit": "MiB"},
            "ok_frac": {"value": 1.0 - failed / attempted if attempted else 0.0, "unit": "frac"},
        }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        **child["facts"],
        **wl.facts(docs),
        "rounds": child["rounds"],
        "round_trials_per_s": [round(r, 3) for r in child["round_rates"]],
        "setup_s_samples": setup,
        "failures": child["failures"],
    }
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
