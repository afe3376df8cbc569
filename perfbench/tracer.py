"""Span tracing of csplab, installed from the benchmark's side.

The tracer replaces public functions of csplab's modules, and methods of
the codec and PiecewisePolynomial classes, with timing wrappers.  The
program itself is not edited: the wrappers sit on the module-level names
that ``csplab.harness`` (and the other modules) look up at call time, and
``remove()`` puts every original back.

Each call becomes a span (seq, stage, fn, start_ns, end_ns, parent_seq,
trial).  ``stage`` uses the stage names that in-program tracing will use
(ensemble, signal, measure, noise, scan, decode, error, bound, csv, svg,
plus trial, codec and rng), ``fn`` names the wrapped function as
``layer.function``.  Calls run on one thread (the workloads set
``threads=1``), so child spans never overlap and a span's self time is its
duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

_SCANS = ("solver.csp_recover", "solver.csp_recover_panel", "solver.csp_recover_analog")


class Tracer:
    def __init__(self, max_spans: int = 20_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        # fn -> {"calls", "ns", "self_ns", "durations"?, counter names...};
        # only spans inside a trial, plus spans of fns traced in any scope
        self.agg: dict[str, dict] = {}
        self._stack: list[list[int]] = []  # open spans: [seq, child_ns]
        self._seq = 0
        self._trial = None
        self._trials = 0
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, stage: str, fn: str, counter=None,
             opens_trial: bool = False, any_scope: bool = False) -> None:
        """Replace owner.attr (a module function or a class's own method)
        by a traced wrapper.  ``counter(args, kwargs, result)`` returns
        extra per-call counts to sum into the fn's aggregate."""
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self._call(original, stage, fn, counter, opens_trial,
                              any_scope, args, kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _call(self, func, stage, fn, counter, opens_trial, any_scope, args, kwargs):
        seq = self._seq
        self._seq += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [seq, 0]
        self._stack.append(frame)
        outer_trial = self._trial
        if opens_trial:
            self._trial = self._trials
            self._trials += 1
        trial = self._trial
        result = None
        start = time.perf_counter_ns()
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._trial = outer_trial
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            if len(self.spans) < self.max_spans:
                self.spans.append((seq, stage, fn, start, end, parent, trial))
            else:
                self.dropped += 1
            if trial is not None or any_scope:
                a = self.agg.setdefault(fn, {"calls": 0, "ns": 0, "self_ns": 0})
                a["calls"] += 1
                a["ns"] += dur
                a["self_ns"] += dur - frame[1]
                if any_scope:
                    a.setdefault("durations", []).append(dur)
                if counter is not None and result is not None:
                    for key, value in counter(args, kwargs, result).items():
                        a[key] = a.get(key, 0) + value

    def write_jsonl(self, path, meta: dict) -> None:
        """Write a header line, then one JSON object per recorded span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": dict(meta, spans=len(self.spans),
                                              dropped=self.dropped)}) + "\n")
            for seq, stage, fn, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"seq": seq, "name": stage, "fn": fn,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent, "trial": trial}) + "\n")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _scan_counts(args, kwargs, result) -> dict:
    results = result if isinstance(result, list) else [result]
    visited = sum(r.candidates_scanned for r in results) / len(results)
    return {"visited": visited, "size": _arg(args, kwargs, 2, "codec").size}


def _block_counts(args, kwargs, result) -> dict:
    return {"codewords": len(result)}


def _gaussian_counts(args, kwargs, result) -> dict:
    return {"values": len(result)}


def _bytes_counts(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode())}


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of csplab."""
    from csplab import codecs, harness, measurement, piecewise, rng, svgplot

    w = tracer.wrap
    w(harness, "run_trial", "trial", "harness.run_trial", opens_trial=True)
    w(harness, "build_panel", "signal", "harness.build_panel")
    w(harness, "records_to_csv", "csv", "harness.records_to_csv",
      counter=_bytes_counts, any_scope=True)
    for owner in (harness, codecs):
        w(owner, "codec_from_config", "codec", "codecs.codec_from_config",
          any_scope=True)
    w(harness, "sample_ensemble", "ensemble", "measurement.sample_ensemble")
    w(harness, "sample_wiener_ensemble", "ensemble",
      "measurement.sample_wiener_ensemble")
    w(harness, "measure", "measure", "measurement.measure")
    w(harness, "measure_analog", "measure", "measurement.measure_analog")
    w(harness, "apply_noise", "noise", "measurement.apply_noise")
    for fn in _SCANS:
        w(harness, fn.split(".")[1], "scan", fn, counter=_scan_counts)
    w(harness, "evaluate_bound", "bound", "bounds.evaluate_bound")
    w(svgplot, "render_svg", "svg", "svgplot.render_svg",
      counter=_bytes_counts, any_scope=True)
    for owner in (rng, measurement, codecs):
        w(owner, "derive_stream", "rng", "rng.derive_stream")
    for owner in (rng, measurement):
        w(owner, "gaussian_vector", "rng", "rng.gaussian_vector",
          counter=_gaussian_counts)
    methods = (("decode", "decode", None), ("decode_block", "decode", _block_counts),
               ("coef_block", "decode", _block_counts),
               ("sample_member", "signal", None), ("stress_member", "signal", None))
    for cls in (codecs.GridCodec, codecs.SparseCodec, codecs.PiecewisePolyCodec,
                codecs.ExplicitCodec):
        for attr, stage, counter in methods:
            if attr in vars(cls):
                w(cls, attr, stage, f"codecs.{attr}", counter=counter)
    w(piecewise.PiecewisePolynomial, "l2_distance", "error", "piecewise.l2_distance")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)}.  Busy times and call
    counts are per trial; a trial is one run_trial call."""
    agg = tracer.agg

    def total(key, *fns):
        return sum(agg.get(fn, {}).get(key, 0) for fn in fns)

    trials = total("calls", "harness.run_trial")
    if trials == 0:
        raise RuntimeError("the traced run completed no trial")

    def calls(*fns):
        return (total("calls", *fns) / trials, "count/trial")

    def busy(*fns, key="ns"):
        return (total(key, *fns) / 1e9 / trials, "s/trial")

    def per_emission(fn):
        a = agg.get(fn, {})
        return (a.get("bytes", 0) / a["calls"] if a.get("calls") else 0.0, "B")

    builds = agg.get("codecs.codec_from_config", {}).get("durations", [0])
    scan_s = total("ns", *_SCANS) / 1e9
    visited = total("visited", *_SCANS)
    return {
        "codecs.build_s": (statistics.median(builds) / 1e9, "s"),
        "codecs.decode_block_calls": calls("codecs.decode_block"),
        "codecs.decode_block_s": busy("codecs.decode_block"),
        "codecs.codewords_decoded": (
            total("codewords", "codecs.decode_block", "codecs.coef_block") / trials,
            "count/trial"),
        "codecs.decode_calls": calls("codecs.decode"),
        "codecs.decode_s": busy("codecs.decode"),
        "codecs.sample_member_calls": calls("codecs.sample_member"),
        "codecs.stress_member_calls": calls("codecs.stress_member"),
        "codecs.coef_block_s": busy("codecs.coef_block"),
        "rng.derive_stream_calls": calls("rng.derive_stream"),
        "rng.derive_stream_s": busy("rng.derive_stream"),
        "rng.gaussian_values": (total("values", "rng.gaussian_vector") / trials,
                                "count/trial"),
        "rng.gaussian_s": busy("rng.gaussian_vector"),
        "measurement.sample_ensemble_s": busy("measurement.sample_ensemble"),
        "measurement.sample_wiener_ensemble_s":
            busy("measurement.sample_wiener_ensemble"),
        "measurement.measure_s": busy("measurement.measure",
                                      "measurement.measure_analog"),
        "measurement.apply_noise_s": busy("measurement.apply_noise"),
        "solver.calls": calls(*_SCANS),
        "solver.scan_s": busy(*_SCANS),
        "solver.scan_self_s": busy(*_SCANS, key="self_ns"),
        "solver.codewords_scanned": (visited / trials, "count/trial"),
        "solver.codewords_per_s": (visited / scan_s if scan_s else 0.0, "1/s"),
        "solver.visited_frac": (
            visited / total("size", *_SCANS) if total("size", *_SCANS) else 0.0,
            "ratio"),
        "bounds.evaluate_calls": calls("bounds.evaluate_bound"),
        "bounds.evaluate_s": busy("bounds.evaluate_bound"),
        "harness.build_panel_calls": calls("harness.build_panel"),
        "harness.build_panel_s": busy("harness.build_panel"),
        "harness.trial_self_s": busy("harness.run_trial", key="self_ns"),
        "harness.csv_s": busy("harness.records_to_csv"),
        "harness.csv_bytes": (total("bytes", "harness.records_to_csv") / trials,
                              "B/trial"),
        "svgplot.render_s": busy("svgplot.render_svg"),
        "svgplot.svg_bytes": per_emission("svgplot.render_svg"),
        "piecewise.l2_distance_calls": calls("piecewise.l2_distance"),
        "piecewise.l2_distance_s": busy("piecewise.l2_distance"),
    }
