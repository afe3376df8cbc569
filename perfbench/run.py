"""csplab benchmark: Monte Carlo trial throughput on fixed workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload weak-scan --seed 3 --seconds 25 --trace 0

Every workload runs in fresh single-threaded worker processes (worker.py)
with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1.  With --trace 0 the benchmark
starts a few set-up probes and one timed run, and reports the end-to-end
metrics; with --trace 1 it splits --seconds between an untraced and a traced
run and reports the per-layer metrics and the tracing overhead.  End-to-end
times are rescaled to a reference machine speed (see calibration.py); the raw
wall-clock values are printed too.  Outputs are checked (see worker.py); the
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--smoke`` runs tiny units (and allows the smoke-only workloads); selftest.py
uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 4  # extra fresh processes per run; with the timed run, 5 set-up samples
MIN_TRIALS = 100  # so that at least 10 trial times lie beyond the p90
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT_DIR = ".perfbench_out"
_START = time.monotonic()


class WorkerError(RuntimeError):
    pass


def _worker(mode: str, args, seconds: float = 0.0, min_trials: int = 1,
            extra=()) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - _START)
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds),
           "--min-trials", str(min_trials), *extra]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"{mode} worker timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args) -> tuple[dict, int, int, list]:
    probes = [_worker("setup", args) for _ in range(SETUP_PROBES)]
    run = _worker("run", args, args.seconds, 1 if args.smoke else MIN_TRIALS)
    probes.append(run)
    print(f"env {json.dumps(run['env'], sort_keys=True)}")
    print(f"trials {run['trials']} in {run['wall_s']:.3f} s (trial-time samples: "
          f"{run['trials']}); machine speed {run['speed']:.4f} of reference")
    print("raw (not rescaled): trials_per_s {!r} 1/s, trial_ms_p50 {!r} ms, "
          "trial_ms_p90 {!r} ms, setup_s samples {}".format(
              run["raw_trials_per_s"], run["raw_trial_ms_p50"], run["raw_trial_ms_p90"],
              [p["raw_setup_s"] for p in probes]))
    ops_failed = run["failed"] / run["attempted"]
    print(f"ops_failed_frac {ops_failed!r} ratio")
    metrics = {
        "trials_per_s": (run["trials_per_s"], "1/s"),
        "trial_ms_p50": (run["trial_ms_p50"], "ms"),
        "trial_ms_p90": (run["trial_ms_p90"], "ms"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
        "ops_ok_frac": (1.0 - ops_failed, "ratio"),
    }
    return metrics, run["attempted"], run["failed"], run["failures"]


def per_layer(args) -> tuple[dict, int, int, list]:
    half = args.seconds / 2.0
    plain = _worker("run", args, half)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.trace.jsonl")
    traced = _worker("trace", args, half, extra=("--trace-out", trace_path))
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    failures = plain["failures"] + traced["failures"]
    common = min(len(plain["digests"]), len(traced["digests"]))
    for unit in range(common):
        attempted += 1
        if plain["digests"][unit] != traced["digests"][unit]:
            failed += 1
            failures.append(f"unit {unit}: traced output differs from untraced")
    print(f"traced vs untraced outputs compared on {common} units; spans in {trace_path}")
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["bench.trace_overhead_frac"] = (
        1.0 - traced["trials_per_s"] / plain["trials_per_s"], "ratio")
    return metrics, attempted, failed, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="csplab trial-throughput benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny units, for the self-test")
    args = p.parse_args(argv)
    if args.workload not in workloads.names(args.smoke):
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {workloads.names(args.smoke)}")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        metrics, attempted, failed, failures = (
            per_layer(args) if args.trace else end_to_end(args))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for note in failures:
        print(f"FAILED {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
