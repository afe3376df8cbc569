"""Command-line front end.

Subcommands:
  rd-profile   rate-distortion profile of a codec family (CSV)
  recover      Monte Carlo recovery trials from a JSON config (CSV)
  sweep        parameter sweep from a JSON config (CSV + SVG chart)
  bounds       evaluate closed-form guarantees (CSV table)
  pair         build a sparse pair the measurement matrix cannot separate
  analog-demo  end-to-end function recovery from Wiener-integral measurements

Every output file starts with a '# master_seed=...' provenance line; runs
with the same config and seed reproduce outputs byte for byte.
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
from .harness import ExperimentConfig, run_sweep, run_trials, write_csv
from .measurement import sample_ensemble
from .rng import derive_stream
from .svgplot import emit_svg

_BOUND_FLAGS = [f.name for f in fields(BoundInputs)]


def _add_common(p: argparse.ArgumentParser, config: bool = False):
    if config:
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--trials", type=int, default=None, help="trial count override")
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--out", default=".", help="output directory")


def _load_config(args) -> ExperimentConfig:
    raw = json.loads(Path(args.config).read_text())
    # overrides go in before construction, so they are validated like the file
    if args.seed is not None:
        raw["master_seed"] = args.seed
    if args.trials is not None:
        raw["trials"] = args.trials
    return ExperimentConfig.from_dict(raw)


def _cmd_rd_profile(args) -> int:
    descriptor = {"class": args.codec_class, "rho": args.rho}
    if args.codec_class in ("grid", "sparse"):
        descriptor["n"] = args.n
    if args.codec_class == "sparse":
        descriptor["k"] = args.k
    if args.codec_class == "ppoly":
        descriptor.update({"n": args.n or 4096, "N": args.N, "Q": args.Q})
    deltas = [float(v) for v in args.deltas.split(",")]
    points = rd_profile(descriptor, deltas, cap=args.cap)
    lines = [f"# master_seed={args.seed or 0}", "delta,rate_bits,alpha_hat"]
    for p in points:
        lines.append(f"{p.delta!r},{p.rate_bits!r},{p.alpha_hat!r}")
    out = Path(args.out) / "rd_profile.csv"
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(points)} points)")
    return 0


def _cmd_recover(args) -> int:
    config = _load_config(args)
    records = run_trials(config)
    out = Path(args.out) / "recover.csv"
    write_csv(records, config.master_seed, out)
    errs = np.array([r.error_l2 for r in records])
    print(f"wrote {out} ({len(records)} trials; mean error {errs.mean():.6g}, "
          f"max {errs.max():.6g})")
    if records[0].bound_error is not None:
        exceed = float(np.mean(errs > records[0].bound_error))
        print(f"bound {records[0].bound_error:.6g} exceeded in "
              f"{exceed:.4f} of trials (bound failure prob "
              f"{records[0].bound_fail_prob:.6g})")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    sweep = run_sweep(config)
    out_csv = Path(args.out) / "sweep.csv"
    write_csv(sweep.records, config.master_seed, out_csv)
    out_svg = Path(args.out) / "sweep.svg"
    emit_svg(sweep, out_svg, log_y=args.log_scale,
             title=f"{config.regime} sweep over {sweep.axis_name}")
    print(f"wrote {out_csv} ({len(sweep.records)} rows) and {out_svg}")
    for p in sweep.points:
        if math.isnan(p.mean_error):
            print(f"  {sweep.axis_name}={p.axis_value:g}: unavailable ({p.reason})")
        else:
            extra = "" if p.exceed_rate is None else f", exceed {p.exceed_rate:.4f}"
            print(f"  {sweep.axis_name}={p.axis_value:g}: mean "
                  f"{p.mean_error:.6g}, max {p.max_error:.6g}{extra}")
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
    stream = derive_stream(seed, 0)
    ensemble = sample_ensemble(args.d, args.n, stream)
    pair = construct_indistinguishable_pair(ensemble.matrix, args.k,
                                            stream=derive_stream(seed, 1))
    gap = float(np.linalg.norm(ensemble.matrix @ (pair.x1 - pair.x2)))
    lines = [
        f"# master_seed={seed}",
        f"beta,{pair.beta!r}",
        f"columns,{';'.join(map(str, pair.columns))}",
        f"measurement_gap,{gap!r}",
        "x1," + ";".join(repr(float(v)) for v in pair.x1),
        "x2," + ";".join(repr(float(v)) for v in pair.x2),
    ]
    out = Path(args.out) / "pair.csv"
    out.write_text("\n".join(lines) + "\n")
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
    records = run_trials(config)
    out = Path(args.out) / "analog.csv"
    write_csv(records, config.master_seed, out)
    errs = np.array([r.error_l2 for r in records])
    within = float(np.mean([r.within_bound for r in records]))
    print(f"wrote {out}: constants codec delta={args.delta}, d={args.d}, "
          f"{len(records)} trials")
    print(f"mean L2 error {errs.mean():.6g}, max {errs.max():.6g}, "
          f"within bound {within:.4f}")
    return 0


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
    p.add_argument("--N", type=int, default=0, help="max degree (ppoly)")
    p.add_argument("--Q", type=int, default=0, help="breakpoint budget (ppoly)")
    p.add_argument("--rho", type=float, required=True,
                   help="ball radius, or amplitude bound for ppoly")
    p.add_argument("--deltas", required=True, help="comma-separated distortions")
    p.add_argument("--cap", type=int, default=None, help="codebook cap")
    _add_common(p)
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
