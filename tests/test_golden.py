"""Golden outputs: CSV and SVG bytes pinned across versions.

Each fixture under tests/golden/ is the output of one small, fixed config.
The tests regenerate it and compare bytes, so any change to the emitted
numbers, formatting or stream layout fails here.  Re-baselining a fixture is
a deliberate decision; regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and record the reason for the change.
"""

from dataclasses import fields, replace
from pathlib import Path

import pytest

from csplab.bounds import (THEOREM_IDS, BoundInputs, evaluate_bound,
                           optimize_free_params)
from csplab.codecs import PiecewisePolyCodec
from csplab.harness import ExperimentConfig, records_to_csv, run_sweep, run_trials
from csplab.svgplot import render_svg

GOLDEN = Path(__file__).resolve().parent / "golden"

_SPARSE = {"class": "sparse", "n": 8, "k": 1, "rho": 1.0, "delta": 0.2}
_WORST = {"kind": "bounded", "zeta": 0.05, "shape": "worst_aligned"}
_GRID = {"class": "grid", "n": 3, "rho": 1.0, "delta": 0.4}  # n*log2(L) != log2(L^n)

CONFIGS = {
    "weak": dict(
        codec=_SPARSE, regime="weak", noise=_WORST, d=5, trials=4,
        master_seed=11, theorem_id="T5",
        bound_params={"tau1": 3.0, "tau2": 0.75},
    ),
    "strong_panel": dict(
        codec=dict(_SPARSE, delta=0.4), regime="strong", d=6, trials=3,
        master_seed=12, panel_size=25, theorem_id="T8",
        bound_params={"tau": 0.75, "t": 1.0},
    ),
    "strong_panel_worst": dict(
        codec=dict(_SPARSE, delta=0.4), regime="strong", noise=_WORST, d=6,
        trials=3, master_seed=13, panel_size=25,
    ),
    "grid_weak": dict(
        codec=_GRID, regime="weak", noise=_WORST, d=4, trials=4,
        master_seed=16, signal_source="codebook", theorem_id="T5",
        bound_params={"tau1": 3.0, "tau2": 0.75},
    ),
    "grid_strong": dict(
        codec=dict(_GRID, n=2, delta=0.5), regime="strong", noise=_WORST, d=3, trials=3,
        master_seed=17, panel_size=80, theorem_id="T9",
        bound_params={"tau": 0.75, "t": 1.0},
    ),
    "analog": dict(
        codec={"class": "ppoly", "n": 256, "N": 0, "Q": 0, "rho": 1.0,
               "delta": 0.05},
        regime="analog", d=6, trials=2, master_seed=14, theorem_id="T3",
        bound_params={"tau1": 3.0, "tau2": 0.75},
    ),
    # 128 breakpoint layouts of two pieces each
    "analog_breaks": dict(
        codec={"class": "ppoly", "n": 256, "N": 0, "Q": 1, "rho": 1.0,
               "delta": 0.2},
        regime="analog", noise=_WORST, d=8, trials=2, master_seed=18,
        theorem_id="T5", bound_params={"tau1": 3.0, "tau2": 0.75},
    ),
    # degree 2: basis rows k >= 1 enter every operator
    "analog_quadratic": dict(
        codec={"class": "ppoly", "n": 64, "N": 2, "Q": 1, "rho": 1.0,
               "delta": 0.9},
        regime="analog", noise={"kind": "gaussian", "sigma": 0.05}, d=8,
        trials=2, master_seed=19,
    ),
    # repeated breakpoints make empty pieces
    "analog_empty_pieces": dict(
        codec={"class": "ppoly", "n": 64, "N": 0, "Q": 2, "rho": 1.0,
               "delta": 0.5},
        regime="analog", d=8, trials=2, master_seed=20, theorem_id="T3",
        bound_params={"tau1": 3.0, "tau2": 0.75},
    ),
    # codeword signals have no quantization residual: worst-aligned noise
    # falls back to a random direction in every trial
    "analog_codeword_worst": dict(
        codec={"class": "ppoly", "n": 256, "N": 0, "Q": 1, "rho": 1.0,
               "delta": 0.2},
        regime="analog", noise=_WORST, d=8, trials=3, master_seed=21,
        signal_source="codebook", theorem_id="T5",
        bound_params={"tau1": 3.0, "tau2": 0.75},
    ),
    # 136 breakpoint layouts of 64 codewords: the analog scan's last tile of
    # 64 layouts holds only 8
    "analog_partial_tile": dict(
        codec={"class": "ppoly", "n": 64, "N": 0, "Q": 2, "rho": 1.0,
               "delta": 0.9},
        regime="analog", d=6, trials=3, master_seed=23, theorem_id="T3",
        bound_params={"tau1": 3.0, "tau2": 0.75},
    ),
    # gaussian noise drawn member by member from one stream
    "strong_gaussian": dict(
        codec=dict(_SPARSE, delta=0.4), regime="strong",
        noise={"kind": "gaussian", "sigma": 0.05}, d=6, trials=3,
        master_seed=22, panel_size=25, theorem_id="T10",
        bound_params={"tau": 0.75, "t": 1.0, "tau_prime": 1.0},
    ),
    # the weak-scan codec: 496 supports of 961 codewords, four supports to a
    # tile of the scan
    "weak_lazy": dict(
        codec={"class": "sparse", "n": 32, "k": 2, "rho": 1.0, "delta": 0.1},
        regime="weak", noise={"kind": "gaussian", "sigma": 0.05}, d=12,
        trials=2, master_seed=24,
    ),
    # 33^4 = 1,185,921 codewords in one support: 290 blocks of level rows,
    # each computed from its grid digits
    "grid_over_limit": dict(
        codec={"class": "grid", "n": 4, "rho": 1.0, "delta": 0.125},
        regime="weak", d=6, trials=2, master_seed=25, signal_source="codebook",
    ),
    # 19^3 = 6,859 codewords per support: every support group is larger than
    # one block of the scan, so each is cut into a full block and a partial one
    "sparse_large_groups": dict(
        codec={"class": "sparse", "n": 6, "k": 3, "rho": 1.0, "delta": 0.2},
        regime="weak", noise={"kind": "gaussian", "sigma": 0.05}, d=5,
        trials=2, master_seed=26,
    ),
    # one measurement: every tile's product is a BLAS gemv over one support
    "sparse_d1": dict(
        codec={"class": "sparse", "n": 8, "k": 2, "rho": 1.0, "delta": 0.5},
        regime="weak", noise={"kind": "gaussian", "sigma": 0.05}, d=1,
        trials=4, master_seed=27,
    ),
}

# the last delta needs a codebook above the cap: an unavailable point
SWEEP = dict(
    codec=dict(_SPARSE, cap=2**10), regime="weak", d=5, trials=2,
    master_seed=15, theorem_id="T3", bound_params={"tau1": 3.0, "tau2": 0.75},
    axis={"name": "delta", "values": [0.2, 0.3, 1e-5]},
)


# every guarantee at integer d, with the zero-tau branches of T6/T10 and
# the clamped union term (r=2000) in reach
_BOUND_BASE = BoundInputs(r=20.0, delta=0.05, n=64, sigma=0.01, zeta=0.05,
                          eta=2.0, eps=1.5, eps_prime=1.5, tau=0.75, tau1=3.0,
                          tau2=0.75, tau3=1.0, tau_prime=1.0, t=1.0, gamma=5.0)
BOUND_INPUTS = (
    [dict(d=d) for d in (1, 6, 40, 300)]
    + [dict(d=40, tau3=0.0, tau_prime=0.0), dict(d=6, r=2000.0)]
)


def render_bounds() -> str:
    """One row per (inputs, guarantee): repr of error_bound and failure_raw."""
    rows = ["inputs,theorem_id,error_bound,failure_raw"]
    for change in BOUND_INPUTS:
        inputs = replace(_BOUND_BASE, **change)
        label = ";".join(f"{k}={v!r}" for k, v in sorted(change.items()))
        for tid in THEOREM_IDS:
            ev = evaluate_bound(tid, inputs)
            rows.append(f"{label},{tid},{ev.error_bound!r},{ev.failure_raw!r}")
    return "\n".join(rows) + "\n"


# optimizer outcomes: every guarantee at the four targets, on inputs that
# feed the corollary tau seed (eps set), put the small targets out of reach
# (d=5), or leave no admissible grid point (no d, delta above 1/e)
_OPT_BASE = BoundInputs(r=10.0, d=40, n=64, delta=0.05, sigma=0.01, zeta=0.05,
                        eta=2.0)
OPT_INPUTS = (dict(r=10.0), dict(r=20.0, d=24, delta=0.01, zeta=0.01, sigma=0.1, eps=1.5),
              dict(r=30.0, d=5, n=16, eta=3.0), dict(d=None, delta=0.5, zeta=0.5))
OPT_TARGETS = (0.0, 1e-12, 0.01, 0.5)


def render_optimize() -> str:
    """One row per (inputs, guarantee, target): feasible, the chosen values
    that differ from the inputs, repr of error_bound and failure_raw; or the
    class and message of the error raised."""
    rows = ["inputs,theorem_id,target,outcome"]
    for change in OPT_INPUTS:
        inputs = replace(_OPT_BASE, **change)
        label = ";".join(f"{k}={v!r}" for k, v in sorted(change.items()))
        for tid in THEOREM_IDS:
            for target in OPT_TARGETS:
                try:
                    opt = optimize_free_params(tid, inputs, target)
                except ValueError as exc:
                    outcome = f"{type(exc).__name__}: {exc}"
                else:
                    chosen = ";".join(
                        f"{f.name}={getattr(opt.inputs, f.name)!r}"
                        for f in fields(BoundInputs)
                        if getattr(opt.inputs, f.name) != getattr(inputs, f.name))
                    ev = opt.evaluation
                    outcome = (f"{opt.feasible},{chosen},{ev.error_bound!r},"
                               f"{ev.failure_raw!r}")
                rows.append(f"{label},{tid},{target!r},{outcome}")
    return "\n".join(rows) + "\n"


# ppoly calibration outcomes, uncapped: every (N, Q, delta) at grid 4096
# (Q = 0, and degree >= 1 with breakpoints, among them), plus coarser grids,
# one of them too coarse for its breakpoint quantizer
CALIBRATION = (
    [(N, Q, delta, 4096) for N in (0, 1, 2) for Q in (0, 1, 2)
     for delta in (0.5, 0.2, 0.05)]
    + [(0, 1, 0.5, 64), (0, 1, 0.2, 64), (2, 2, 0.5, 64), (1, 1, 0.2, 256)]
)


def render_calibration() -> str:
    """One row per config: the audit's worst error, the bits and the size
    the calibration settled on, or the class of the error it raised."""
    rows = ["N,Q,delta,grid,audit_worst,coef_bits,break_bits,size"]
    for N, Q, delta, grid in CALIBRATION:
        try:
            c = PiecewisePolyCodec(N, Q, 1.0, delta, grid=grid, cap=None)
        except ValueError as exc:
            outcome = f"{type(exc).__name__},,,"
        else:
            outcome = f"{c.audit_worst!r},{c.coef_bits},{c.break_bits},{c.size}"
        rows.append(f"{N},{Q},{delta!r},{grid},{outcome}")
    return "\n".join(rows) + "\n"


def render_all() -> dict:
    """Fixture file name -> freshly generated text."""
    out = {}
    for name, raw in CONFIGS.items():
        cfg = ExperimentConfig(**raw)
        out[f"{name}.csv"] = records_to_csv(run_trials(cfg), cfg.master_seed)
    cfg = ExperimentConfig(**SWEEP)
    sweep = run_sweep(cfg)
    out["sweep.csv"] = records_to_csv(sweep.records, cfg.master_seed)
    out["sweep.svg"] = render_svg(sweep, title="golden sweep")
    out["bounds.csv"] = render_bounds()
    out["calibration.csv"] = render_calibration()
    out["optimize.csv"] = render_optimize()
    return out


@pytest.fixture(scope="module")
def rendered():
    return render_all()


@pytest.mark.parametrize("name", [f"{n}.csv" for n in CONFIGS]
                         + ["sweep.csv", "sweep.svg", "bounds.csv",
                            "calibration.csv", "optimize.csv"])
def test_golden_bytes(rendered, name):
    assert rendered[name].encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in render_all().items():
        (GOLDEN / name).write_bytes(text.encode())
        print(f"wrote {GOLDEN / name}")
