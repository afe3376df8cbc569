"""Golden outputs: CSV and SVG bytes pinned across versions.

Each fixture under tests/golden/ is the output of one small, fixed config.
The tests regenerate it and compare bytes, so any change to the emitted
numbers, formatting or stream layout fails here.  Re-baselining a fixture is
a deliberate decision; regenerate them with

    PYTHONPATH=src python tests/test_golden.py

and record the reason for the change.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from csplab.bounds import THEOREM_IDS, BoundInputs, evaluate_bound
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
    # gaussian noise drawn member by member from one stream
    "strong_gaussian": dict(
        codec=dict(_SPARSE, delta=0.4), regime="strong",
        noise={"kind": "gaussian", "sigma": 0.05}, d=6, trials=3,
        master_seed=22, panel_size=25, theorem_id="T10",
        bound_params={"tau": 0.75, "t": 1.0, "tau_prime": 1.0},
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
    return out


@pytest.fixture(scope="module")
def rendered():
    return render_all()


@pytest.mark.parametrize("name", [f"{n}.csv" for n in CONFIGS]
                         + ["sweep.csv", "sweep.svg", "bounds.csv"])
def test_golden_bytes(rendered, name):
    assert rendered[name].encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in render_all().items():
        (GOLDEN / name).write_bytes(text.encode())
        print(f"wrote {GOLDEN / name}")
