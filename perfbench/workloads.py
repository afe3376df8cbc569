"""The benchmark workloads: fixed experiments whose inputs come from a seed.

A workload runs in units.  Unit ``u`` under benchmark seed ``s`` is one
``ExperimentConfig`` with master seed ``unit_seed(s, u)``: a batch of trials
(or, for ``analog-sweep``, one whole sweep) whose CSV (and SVG) bytes are a
pure function of that config.  The program under test only ever receives
the generated config; the benchmark seed never reaches it.

This module imports nothing heavy, so the worker can start its set-up clock
before numpy and csplab are loaded.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 0
WARMUP_UNIT = 999_999  # master seed slot of the untimed warm-up trial

# T6 needs tau3 for the gaussian-noise term; T3 and T8 take their defaults
_WEAK = {
    "codec": {"class": "sparse", "n": 32, "k": 2, "rho": 1.0, "delta": 0.1},
    "regime": "weak",
    "noise": {"kind": "gaussian", "sigma": 0.05},
    "d": 12,
    "theorem_id": "T6",
    "bound_params": {"tau1": 3.0, "tau2": 0.75, "tau3": 1.0},
}
_STRONG = {
    "codec": {"class": "sparse", "n": 64, "k": 1, "rho": 1.0, "delta": 0.25},
    "regime": "strong",
    "d": 48,
    "panel_size": 200,
    "theorem_id": "T8",
    "bound_params": {"tau": 0.75, "t": 1.0},
}
_ANALOG_GROUPS = {
    "codec": {"class": "ppoly", "N": 0, "Q": 1, "rho": 1.0, "delta": 0.2, "n": 4096},
    "regime": "analog",
    "d": 8,
    "theorem_id": "T3",
    "bound_params": {"tau1": 3.0, "tau2": 0.75},
}
_ANALOG_SWEEP = {
    "codec": {"class": "ppoly", "N": 0, "Q": 0, "rho": 1.0, "delta": 0.05, "n": 4096},
    "regime": "analog",
    "d": 8,
    "theorem_id": "T3",
    "bound_params": {"tau1": 3.0, "tau2": 0.75},
    "axis": {"name": "d", "values": [4, 8, 16, 32]},
}
# smoke-only: the second point needs a codebook far above the 2^24 cap, so
# run_sweep reports it unavailable and the benchmark must count a failure
_INFEASIBLE_SWEEP = dict(_ANALOG_SWEEP, axis={"name": "delta", "values": [0.05, 1e-9]})

# name -> (experiment, trials per unit at full scale, at smoke scale); a
# sweep unit runs its trial count at every axis point
WORKLOADS = {
    "weak-scan": (_WEAK, 10, 2),
    "strong-panel": (_STRONG, 25, 2),
    "analog-groups": (_ANALOG_GROUPS, 10, 2),
    "analog-sweep": (_ANALOG_SWEEP, 100, 3),
}
SMOKE_ONLY = {"infeasible-sweep": (_INFEASIBLE_SWEEP, 3, 3)}
_ALL = {**WORKLOADS, **SMOKE_ONLY}

# sha256 of unit 0 at DEFAULT_SEED, full scale, record_timings off
PINNED = {
    "weak-scan": ["2066d5282834c51725f0bde8c907dd390f5430a15aaf284423ba9bd7f4188a4d", None],
    "strong-panel": ["cb474c66692ee17bc674e66f23d682e95fc81861d5198956b6d25a1dd7df1990", None],
    "analog-groups": ["f96ef3ac3514b4f8fe6e413116ffc0216aa9ac48d6dd75349ca63b11b58b9456", None],
    "analog-sweep": ["f1b97887aff067adb962b15217039e8bfc813d4b6e13e3293633bf584ddd151c",
                     "271a83a75f260aee53b8f4eb1520639df4132fde21312cd466fa855c8df6f6df"],
}


def names(smoke: bool) -> list[str]:
    return list(WORKLOADS) + (list(SMOKE_ONLY) if smoke else [])


def unit_seed(seed: int, unit: int) -> int:
    return seed * 1_000_000 + unit


def is_sweep(name: str) -> bool:
    return "axis" in _ALL[name][0]


def experiment(name: str, seed: int, unit: int, smoke: bool) -> dict:
    """The raw JSON config of one unit, for ExperimentConfig.from_dict."""
    base, full_trials, smoke_trials = _ALL[name]
    raw = copy.deepcopy(base)
    raw.update(trials=smoke_trials if smoke else full_trials,
               master_seed=unit_seed(seed, unit), threads=1,
               signal_source="class", record_timings=False)
    return raw


def warmup_experiment(name: str, seed: int) -> dict:
    """A one-trial, axis-free config (a sweep's first point) that exercises
    every lazy path of the workload before timing starts."""
    raw = experiment(name, seed, WARMUP_UNIT, smoke=True)
    axis = raw.pop("axis", None)
    if axis is not None:  # the workloads sweep only d or delta
        first = axis["values"][0]
        if axis["name"] == "d":
            raw["d"] = int(first)
        else:
            raw["codec"]["delta"] = float(first)
    raw["trials"] = 1
    return raw
