"""Self-test of the benchmark: tiny runs of every workload.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that

* every metric BENCHMARK.json defines is emitted, with its unit, and that
  BENCHMARK.json defines every metric the benchmark is meant to report;
* every metric name matches [A-Za-z0-9_.-]+;
* traced and untraced runs give byte-identical outputs and no failure;
* a sweep point the program cannot run (delta far too small for the 2^24
  codebook cap) is counted as a failed operation;
* without the csplab sources next to it, the benchmark exits non-zero and
  prints no result.

It exits non-zero at the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = "7"

REQUIRED_END_TO_END = {"trials_per_s", "trial_ms_p50", "trial_ms_p90", "setup_s",
                       "peak_rss_mb", "ops_ok_frac"}
REQUIRED_PER_LAYER = {
    "codecs.build_s", "codecs.decode_block_calls", "codecs.decode_block_s",
    "codecs.codewords_decoded", "codecs.decode_calls", "codecs.decode_s",
    "codecs.sample_member_calls", "codecs.stress_member_calls", "codecs.coef_block_s",
    "rng.derive_stream_calls", "rng.derive_stream_s", "rng.gaussian_values",
    "rng.gaussian_s", "measurement.sample_ensemble_s",
    "measurement.sample_wiener_ensemble_s", "measurement.measure_s",
    "measurement.apply_noise_s", "solver.calls", "solver.scan_s", "solver.scan_self_s",
    "solver.codewords_scanned", "solver.codewords_per_s", "solver.visited_frac",
    "bounds.evaluate_calls", "bounds.evaluate_s", "harness.build_panel_calls",
    "harness.build_panel_s", "harness.trial_self_s", "harness.csv_s",
    "harness.csv_bytes", "svgplot.render_s", "svgplot.svg_bytes",
    "piecewise.l2_distance_calls", "piecewise.l2_distance_s",
    "bench.trace_overhead_frac",
}


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def bench(workload: str, trace: int, cwd: Path = ROOT, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED,
           "--seconds", "0.5", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result(workload: str, trace: int) -> tuple[dict, list]:
    proc, lines = bench(workload, trace)
    check(proc.returncode == 0 and lines,
          f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    check(set(out) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(out)}")
    return out, lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check(REQUIRED_END_TO_END <= set(declared[0]), "BENCHMARK.json lacks end-to-end metrics")
    check(REQUIRED_PER_LAYER <= set(declared[1]), "BENCHMARK.json lacks per-layer metrics")

    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out, lines = result(w, trace)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == declared[trace], f"{w} --trace {trace}: metrics {got}")
            check(all(NAME.fullmatch(k) for k in got), f"{w}: bad metric name")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{w} --trace {trace}: {lines[-40:]}")
            if trace:
                compared = [ln for ln in lines if ln.startswith("traced vs untraced")]
                check(compared and " on 0 units" not in compared[0],
                      f"{w}: traced and untraced outputs were not compared")
        print(f"selftest: {w} ok")

    out, lines = result("infeasible-sweep", 0)
    check(out["failed"] > 0 and not out["correct"]
          and out["metrics"]["ops_ok_frac"]["value"] < 1.0,
          f"infeasible sweep point not counted as failed: {lines[-10:]}")
    print("selftest: infeasible sweep point counted as failed")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench(spec["workloads"][0]["name"], 0, cwd=bare, smoke=False)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not any(ln.startswith("{") for ln in lines),
          f"without sources: exit {proc.returncode}, stdout {lines[-3:]}")
    print("selftest: without sources the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
