"""Command-line front end.

Subcommands:
  rd-profile   rate-distortion profile of a codec family (CSV)
  recover      Monte Carlo recovery trials from a JSON config (CSV)
  sweep        parameter sweep from a JSON config (CSV + SVG chart)
  bounds       evaluate closed-form guarantees (CSV table)
  pair         build a sparse pair the measurement matrix cannot separate
  analog-demo  end-to-end function recovery from Wiener-integral measurements

Every CSV file starts with a '# master_seed=...' provenance line, and every
output file has LF line endings; runs with the same config and seed
reproduce outputs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bounds import (BoundInputs, construct_indistinguishable_pair,
                     evaluate_bound)
from .codecs import rd_profile
from .harness import (ExperimentConfig, SweepPoint, provenance_text,
                      records_to_csv, run_sweep, run_trials)
from .measurement import sample_ensemble
from .rng import derive_stream
from .svgplot import render_svg

_BOUND_FLAGS = [f.name for f in fields(BoundInputs)]
_RD_FLAGS = ("n", "k", "N", "Q", "rho", "cap")  # rd-profile's codec descriptor keys


def _add_common(p: argparse.ArgumentParser, config: bool = False, seed: bool = True):
    if config:
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--trials", type=int, default=None, help="trial count override")
    if seed:
        p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--out", default=".", help="output directory")


def _load_config(args) -> ExperimentConfig:
    raw = json.loads(Path(args.config).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, not {raw!r}")
    # overrides go in before construction, so they are validated like the file
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if args.trials is not None:
        raw["trials"] = args.trials
    return ExperimentConfig.from_dict(raw)


def _write(args, name: str, text: str) -> Path:
    """Write one output file into --out with LF line endings on every platform."""
    path = Path(args.out) / name
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


def _cmd_rd_profile(args) -> int:
    # each given flag is the descriptor key of its name; codec_from_config
    # refuses a key the class does not read and supplies the defaults
    descriptor = {"class": args.codec_class,
                  **{key: getattr(args, key) for key in _RD_FLAGS
                     if getattr(args, key) is not None}}
    deltas = [float(v) for v in args.deltas.split(",")]
    points = rd_profile(descriptor, deltas)
    rows = [f"{p.delta!r},{p.rate_bits!r},{p.alpha_hat!r}" for p in points]
    # the profile draws nothing from a seed: its audits use a fixed stream
    out = _write(args, "rd_profile.csv",
                 provenance_text(0, ["delta,rate_bits,alpha_hat", *rows]))
    print(f"wrote {out} ({len(points)} points)")
    for p in points:
        if p.reason is not None:
            print(f"  delta={p.delta:g}: unavailable ({p.reason})")
    return 0


def _recover(args, config: ExperimentConfig, name: str) -> int:
    """Run the config's trials, write them to the CSV file `name` and print
    their summary: mean and max error and, with a bound, how often it failed."""
    records = run_trials(config)
    out = _write(args, name, records_to_csv(records, config.master_seed))
    point = SweepPoint.of(records)
    print(f"wrote {out} ({len(records)} trials; mean error {point.mean_error:.6g}, "
          f"max {point.max_error:.6g})")
    if point.bound_error is not None:
        print(f"bound {point.bound_error:.6g} exceeded in "
              f"{point.exceed_rate:.4f} of trials (bound failure prob "
              f"{point.bound_fail_prob:.6g})")
    return 0


def _cmd_recover(args) -> int:
    return _recover(args, _load_config(args), "recover.csv")


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    sweep = run_sweep(config)
    out = _write(args, "sweep.csv", records_to_csv(sweep.records, config.master_seed))
    # the points come first, so a sweep with nothing to chart still names why
    print(f"wrote {out} ({len(sweep.records)} rows)")
    for p in sweep.points:
        if math.isnan(p.mean_error):
            print(f"  {sweep.axis_name}={p.axis_value:g}: unavailable ({p.reason})")
        else:
            extra = "" if p.exceed_rate is None else f", exceed {p.exceed_rate:.4f}"
            print(f"  {sweep.axis_name}={p.axis_value:g}: mean "
                  f"{p.mean_error:.6g}, max {p.max_error:.6g}{extra}")
    # remove an earlier run's chart first: with nothing to chart it would
    # stay beside a sweep.csv it does not describe
    (Path(args.out) / "sweep.svg").unlink(missing_ok=True)
    svg = render_svg(sweep, log_y=args.log_scale,
                     title=f"{config.regime} sweep over {sweep.axis_name}")
    print(f"wrote {_write(args, 'sweep.svg', svg)}")
    return 0


def _cmd_bounds(args) -> int:
    values = {name: getattr(args, name) for name in _BOUND_FLAGS
              if getattr(args, name) is not None}
    inputs = BoundInputs(**values)
    rows = ["theorem_id,inputs,error_bound,failure_probability"]
    for tid in args.theorem:
        ev = evaluate_bound(tid, inputs)
        desc = ";".join(f"{k}={v!r}" for k, v in sorted(values.items()))
        rows.append(f"{ev.theorem_id},{desc},{ev.error_bound!r},"
                    f"{ev.failure_probability!r}")
    print("\n".join(rows))
    return 0


def _cmd_pair(args) -> int:
    seed = args.seed or 0
    # checked like recover's master_seed, before numpy's message that names no flag
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, not {seed}")
    ensemble = sample_ensemble(args.d, args.n, derive_stream(seed, 0))
    pair = construct_indistinguishable_pair(ensemble.matrix, args.k)
    gap = float(np.linalg.norm(ensemble.matrix @ (pair.x1 - pair.x2)))
    lines = [
        f"beta,{pair.beta!r}",
        f"columns,{';'.join(map(str, pair.columns))}",
        f"measurement_gap,{gap!r}",
        "x1," + ";".join(repr(float(v)) for v in pair.x1),
        "x2," + ";".join(repr(float(v)) for v in pair.x2),
    ]
    out = _write(args, "pair.csv", provenance_text(seed, lines))
    print(f"wrote {out}; ||A(x1-x2)||_2 = {gap:.3e}, beta = {pair.beta:.6g}")
    return 0


def _cmd_analog_demo(args) -> int:
    config = ExperimentConfig(
        codec={"class": "ppoly", "N": 0, "Q": 0, "rho": args.amp,
               "delta": args.delta, "n": args.grid},
        regime="analog", d=args.d,
        trials=args.trials,
        master_seed=args.seed or 0,
        theorem_id="T3", bound_params={"tau1": 3.0, "tau2": 0.75},
    )
    return _recover(args, config, "analog.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csplab",
        description="compression-code compressed sensing laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rd-profile", help="rate-distortion profile CSV")
    p.add_argument("--codec-class", choices=("grid", "sparse", "ppoly"),
                   required=True, dest="codec_class")
    p.add_argument("--n", type=int, default=None,
                   help="ambient dimension (grid/sparse) or time grid (ppoly)")
    p.add_argument("--k", type=int, default=None, help="sparsity (sparse)")
    p.add_argument("--N", type=int, default=None, help="max degree (ppoly; default 0)")
    p.add_argument("--Q", type=int, default=None, help="breakpoint count (ppoly; default 0)")
    p.add_argument("--rho", type=float, required=True,
                   help="ball radius, or amplitude bound for ppoly")
    p.add_argument("--deltas", required=True, help="comma-separated distortions")
    p.add_argument("--cap", type=int, default=None, help="codebook cap (default: none)")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_rd_profile)

    p = sub.add_parser("recover", help="Monte Carlo recovery trials")
    _add_common(p, config=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("sweep", help="parameter sweep with CSV + SVG output")
    _add_common(p, config=True)
    p.add_argument("--log-scale", action="store_true",
                   help="log-scale the error axis of the chart")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bounds", help="evaluate closed-form guarantees")
    p.add_argument("--theorem", action="append", required=True,
                   help="guarantee id (repeatable), e.g. T3")
    for name in _BOUND_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float,
                       default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("pair", help="indistinguishable sparse pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("analog-demo", help="constants-codec analog recovery")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--amp", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--trials", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=_cmd_analog_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
