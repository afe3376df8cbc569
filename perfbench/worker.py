"""One benchmark workload in one fresh process.

run.py starts this script with the BLAS thread count pinned to 1 (the
variables must be set before numpy loads, hence a process of its own).
Modes:

  setup  import csplab, parse the config, build the codec and run one
         warm-up trial; report the time from process start to that point,
         raw and rescaled by the machine speed measured right after.
  run    set up, then run units of the workload until --seconds have passed
         (and at least --min-trials trials are done), timing every trial at
         the harness.run_trial boundary and rescaling the times as
         calibration.py describes; then check the outputs.
  trace  like run, with csplab's layers wrapped by tracer.py; reports the
         per-layer aggregates and writes the spans to --trace-out.

The last line of stdout is one JSON object with the results.
"""

import time

_T0 = time.perf_counter()  # the set-up clock starts before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MAX_SECONDS = 120.0  # hard stop for the timed phase, whatever --min-trials says
MAX_FAILURE_NOTES = 20
SETUP_MARKS = 15  # calibration runs that measure the speed set-up ran at


def _sha(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """State of one workload run: its codec, trial timings and the
    failure accounting behind ops_failed_frac."""

    def __init__(self, name: str, seed: int, smoke: bool):
        from csplab import codecs, harness, svgplot

        self.harness, self.svgplot = harness, svgplot
        self.name, self.seed, self.smoke = name, seed, smoke
        self.sweep = workloads.is_sweep(name)
        warm = harness.ExperimentConfig.from_dict(workloads.warmup_experiment(name, seed))
        self.codec = codecs.codec_from_config(warm.codec)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.speed: calibration.SpeedLog | None = None  # set while timing
        # while timing: (unit, trial index, start, seconds) per run_trial call
        self.calls: list[tuple[int, int, float, float]] = []
        self._unit = 0
        harness.run_trial(warm, 0, codec=self.codec)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(note)

    def time_trials(self) -> None:
        """Time every harness.run_trial call, including those run_sweep
        makes, by wrapping the module-level name run_trials looks up."""
        inner = self.harness.run_trial

        def timed(config, trial_index, *args, **kwargs):
            self.attempted += 1
            start = time.perf_counter()
            record = inner(config, trial_index, *args, **kwargs)
            if self.speed is not None:
                self.calls.append((self._unit, trial_index, start,
                                   time.perf_counter() - start))
                self.speed.maybe_mark()
            return record

        self.harness.run_trial = timed
        self._untimed = inner

    def untime_trials(self) -> None:
        self.harness.run_trial = self._untimed

    def run_unit(self, unit: int) -> list:
        """Run one unit; return [csv sha256, svg sha256 or None]."""
        h = self.harness
        self._unit = unit
        config = h.ExperimentConfig.from_dict(
            workloads.experiment(self.name, self.seed, unit, self.smoke))
        svg = None
        if self.sweep:
            self.attempted += len(config.axis["values"])
            try:
                result = h.run_sweep(config)
            except Exception:
                self.fail(f"unit {unit}: run_sweep raised\n{traceback.format_exc()}")
                return [None, None]
            records = result.records
            for p in result.points:
                if math.isnan(p.mean_error):
                    self.fail(f"unit {unit}: sweep point {p.axis_value!r} unavailable")
            try:
                svg = self.svgplot.render_svg(result, title=self.name)
            except ValueError:
                self.fail(f"unit {unit}: render_svg raised\n{traceback.format_exc()}")
        else:
            records = []
            for t in range(config.trials):
                try:
                    records.append(h.run_trial(config, t, codec=self.codec))
                except Exception:
                    self.fail(f"unit {unit} trial {t}: run_trial raised\n"
                                 f"{traceback.format_exc()}")
        for r in records:
            if r.error_l2 is None or not math.isfinite(r.error_l2):
                self.fail(f"unit {unit} trial {r.trial}: error_l2={r.error_l2!r}")
        return [_sha(h.records_to_csv(records, config.master_seed)), _sha(svg)]

    def check_digests(self, unit: int, digests: list, expected: list, what: str) -> None:
        if digests != expected:
            self.fail(f"unit {unit}: output digests {digests} != {what} {expected}")


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--min-trials", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace-out")
    args = p.parse_args(argv)
    if args.workload not in workloads.names(args.smoke):
        p.error(f"unknown workload {args.workload!r}")
    if not (SRC / "csplab" / "__init__.py").is_file():
        print(f"worker: no csplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracing.install(tracer)
    try:
        work = Workload(args.workload, args.seed, args.smoke)
        setup_s = time.perf_counter() - _T0
        speed = calibration.SpeedLog()
        for _ in range(SETUP_MARKS):
            speed.mark()
        out = {"setup_s": setup_s * speed.speed(), "raw_setup_s": setup_s}
        if args.mode != "setup":
            out.update(_measure(work, args))
    finally:
        if tracer is not None:
            tracer.remove()
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        if args.trace_out:
            tracer.write_jsonl(args.trace_out, {"workload": args.workload,
                                                "seed": args.seed})
    print(json.dumps(out))
    return 0


def _measure(work: Workload, args) -> dict:
    work.time_trials()
    speed = work.speed = calibration.SpeedLog()
    digests = []
    speed.mark()
    start = time.perf_counter()
    while True:
        digests.append(work.run_unit(len(digests)))
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_SECONDS or (elapsed >= args.seconds and len(
                {call[:2] for call in work.calls}) >= args.min_trials):
            break
    speed.mark()
    work.speed = None
    if not work.calls:
        raise RuntimeError(f"no trial completed; failures: {work.notes}")

    # outputs: a rerun of unit 0 must give the same bytes, and at the
    # default seed unit 0 must match the pinned digests
    work.check_digests(0, work.run_unit(0), digests[0], "first run")
    pinned = workloads.PINNED.get(work.name)
    if args.seed == workloads.DEFAULT_SEED and not args.smoke and pinned:
        work.check_digests(0, digests[0], pinned, "pinned")
    work.untime_trials()

    # a sweep runs trial t once per axis point: its time is the sum
    raw: dict[tuple[int, int], float] = {}
    scaled: dict[tuple[int, int], float] = {}
    for unit, t, begin, seconds in work.calls:
        raw[(unit, t)] = raw.get((unit, t), 0.0) + seconds
        scaled[(unit, t)] = scaled.get((unit, t), 0.0) + speed.scale(begin, seconds)
    trials = len(raw)
    return {
        "trials": trials,
        "wall_s": elapsed,
        "speed": speed.speed(),
        "trials_per_s": trials / speed.scaled_wall(),
        **_percentiles_ms(scaled.values(), ""),
        "raw_trials_per_s": trials / elapsed,
        **_percentiles_ms(raw.values(), "raw_"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": work.attempted,
        "failed": work.failed,
        "failures": work.notes,
        "digests": digests,
        "env": _environment(),
    }


def _percentiles_ms(seconds, prefix: str) -> dict:
    ms = sorted(s * 1e3 for s in seconds)
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    return {f"{prefix}trial_ms_p50": statistics.median(ms), f"{prefix}trial_ms_p90": p90}


if __name__ == "__main__":
    sys.exit(main())
