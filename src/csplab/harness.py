"""Monte Carlo experiment runner: trials, sweeps, CSV text.

A run is fully determined by its JSON config plus the master seed.  Per-trial
randomness comes from streams derived as (master_seed, packed id) where the
packed id encodes (sweep point, trial, channel); trials are therefore
independent, order-insensitive, and reproducible, and repeated runs emit
byte-identical CSV (timings are recorded as zero unless explicitly enabled,
since real wall times would break that guarantee).

Regimes:
  weak   -- fresh measurement matrix per trial, one random test signal;
  strong -- per trial, one fresh matrix shared by a fixed panel of signals
            (all codewords when the codebook is small enough, plus cell-corner
            stress points and class samples); the record keeps the panel max;
  analog -- fresh Wiener ensemble per trial, function-valued signals.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import rng as _rng
from .bounds import (FREE_PARAMS, READS_ETA, BoundInputs, ParameterError,
                     budget_for_rate, check_eta, compatible_theorems, evaluate_bound)
from .codecs import (CapacityError, Codec, GridResolutionError, PiecewisePolyCodec,
                     _count, _is_number, _refuse_unknown, codec_from_config)
from .measurement import (NoiseModel, apply_noise, measure, measure_analog,
                          sample_ensemble, sample_wiener_ensemble)
from .solver import csp_recover, csp_recover_analog, csp_recover_panel

# stream id packing: (point, trial, channel) -> one 64-bit id
_POINT_BITS, _TRIAL_BITS, _CHANNEL_BITS = 16, 28, 16
CH_ENSEMBLE, CH_SIGNAL, CH_NOISE, CH_PANEL = 0, 1, 2, 3
CH_WIENER_BASE = 16  # analog paths use channels [16, 16 + d)
# more paths would carry the channel field into the trial bits
MAX_WIENER_PATHS = 2**_CHANNEL_BITS - CH_WIENER_BASE


def stream_id(point: int, trial: int, channel: int) -> int:
    if not (0 <= point < 2**_POINT_BITS and 0 <= trial < 2**_TRIAL_BITS
            and 0 <= channel < 2**_CHANNEL_BITS):
        raise ValueError(f"stream id components out of range: {point},{trial},{channel}")
    return (point << (_TRIAL_BITS + _CHANNEL_BITS)) | (trial << _CHANNEL_BITS) | channel


_AXES = ("d", "delta", "sigma", "zeta")


@dataclass
class ExperimentConfig:
    """One experiment: codec descriptor, regime, noise, measurement count (or
    oversampling factor eta for the budget rule), trial count, master seed,
    and an optional guarantee to compare against.  The guarantee takes r,
    delta, d, n, sigma, zeta and eta from the experiment (eta is this
    config's eta, and a guarantee that reads it needs d >= eta's budget);
    bound_params sets only its free parameters (FREE_PARAMS)."""

    codec: dict
    regime: str = "weak"
    noise: dict = field(default_factory=lambda: {"kind": "none"})
    d: int | None = None
    eta: float | None = None
    trials: int = 1
    master_seed: int = 0
    theorem_id: str | None = None
    bound_params: dict = field(default_factory=dict)
    signal_source: str = "class"
    panel_size: int = 200
    axis: dict | None = None
    threads: int = 1  # the scan is serial; kept so configs saying 1 still load
    record_timings: bool = False

    def __post_init__(self):
        if self.regime not in ("weak", "strong", "analog"):
            raise ValueError(f"unknown regime {self.regime!r}")
        for name in ("codec", "noise", "bound_params", "axis"):
            value = getattr(self, name)
            if not (isinstance(value, dict) or name == "axis" and value is None):
                raise ValueError(f"{name}={value!r} must be a JSON object")
        # _resolve_d checks the value, after a d axis has set it
        if self.d is not None and not isinstance(self.d, numbers.Real):
            raise ValueError(f"d={self.d!r} must be a number")
        for name, least in (("trials", 1), ("panel_size", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name}={value!r} must be an integer")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        if type(self.threads) is not int or self.threads != 1:
            raise ValueError(f"threads={self.threads!r} must be 1: the scan is serial")
        # a truthy string would write real scan times and break reproducibility
        if not isinstance(self.record_timings, bool):
            raise ValueError(f"record_timings={self.record_timings!r} must be a bool")
        if self.eta is not None:
            check_eta(self.eta)
        if self.signal_source not in ("class", "codebook"):
            raise ValueError(f"unknown signal_source {self.signal_source!r}")
        if self.d is None and self.eta is None:
            raise ValueError("set either d or the budget factor eta")
        kind = self.noise_model().kind  # validates the noise block
        if self.axis is not None:
            _refuse_unknown(self.axis, ("name", "values"), "axis")
            if self.axis.get("name") not in _AXES:
                raise ValueError(f"axis name must be one of {_AXES}")
            if not (isinstance(self.axis.get("values"), (list, tuple)) and self.axis["values"]):
                raise ValueError("axis values must be a nonempty list")
            for value in self.axis["values"]:
                if not _is_number(value) or not math.isfinite(value):
                    raise ValueError(f"axis value {value!r} must be a finite number")
                _point_config(self, value)  # validates the point's noise block
        if self.theorem_id is not None:
            allowed = compatible_theorems(self.regime, kind)
            if self.theorem_id not in allowed:
                raise ValueError(
                    f"theorem {self.theorem_id} incompatible with regime="
                    f"{self.regime}, noise={kind}; "
                    f"allowed: {allowed}"
                )
        _refuse_unknown(self.bound_params, FREE_PARAMS, "bound_params")

    def noise_model(self) -> NoiseModel:
        return NoiseModel.from_dict(self.noise)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _refuse_unknown(raw, (f.name for f in fields(cls)), "config")
        return cls(**raw)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class TrialRecord:
    """One Monte Carlo trial, mirroring one CSV row."""

    trial: int
    axis_value: float | None
    ensemble_seed: int
    signal_seed: int
    n: int
    d: int
    rate_bits: float
    delta: float
    noise_kind: str
    noise_level: float
    error_l2: float
    residual: float
    bound_error: float | None
    bound_fail_prob: float | None
    within_bound: bool | None
    wall_ms: float
    signal_desc: str = ""


@dataclass
class SweepPoint:
    axis_value: float
    exceed_rate: float | None
    mean_error: float
    max_error: float
    bound_error: float | None
    bound_fail_prob: float | None
    reason: str | None = None  # why an unavailable (nan) point could not run

    @classmethod
    def of(cls, records: list) -> "SweepPoint":
        """The summary of one point's trials: mean and max error and, with a
        bound, the share of trials above it."""
        errs = np.asarray([r.error_l2 for r in records])
        first = records[0]
        bound = first.bound_error
        exceed = None if bound is None else float(np.mean(errs > bound))
        return cls(first.axis_value, exceed, float(errs.mean()), float(errs.max()),
                   bound, first.bound_fail_prob)


@dataclass
class SweepResult:
    axis_name: str
    points: list
    records: list


def _budget(config: ExperimentConfig, codec: Codec) -> int:
    """The budget rule's d at the config's eta; analog measurements take the
    weak (fixed-signal) multiplier."""
    return budget_for_rate(codec.rate_bits, codec.delta, config.eta,
                           "strong" if config.regime == "strong" else "weak")


def _resolve_d(config: ExperimentConfig, codec: Codec) -> int:
    if config.d is not None:
        # a d axis arrives as floats: 4.0 is d=4, 2.7 is no measurement count
        d = _count("d", config.d, 1, ParameterError)
    else:
        d = _budget(config, codec)
    if config.regime == "analog" and d > MAX_WIENER_PATHS:
        raise ParameterError(
            f"analog d={d} exceeds {MAX_WIENER_PATHS}: Wiener path i takes stream "
            f"channel {CH_WIENER_BASE} + i, which must fit in {_CHANNEL_BITS} bits"
        )
    return d


def _bound_for(config: ExperimentConfig, codec: Codec, d: int, n: int, model: NoiseModel):
    tid = config.theorem_id
    if tid is None:
        return None
    # a guarantee that reads eta is stated for at least eta's budget of
    # measurements, so a set d below it would bound another experiment
    if tid in READS_ETA and config.eta is not None:
        budget = _budget(config, codec)
        if d < budget:
            raise ParameterError(f"{tid}: d={d} is below the budget {budget} "
                                 f"at eta={config.eta!r}")
    return evaluate_bound(tid, BoundInputs(
        r=codec.rate_bits, delta=codec.delta, d=d, n=n, sigma=model.sigma,
        zeta=model.zeta, eta=config.eta, **config.bound_params))


def _draw_signal(config: ExperimentConfig, codec: Codec, stream):
    if config.signal_source == "codebook":
        idx = int(stream.integers(0, codec.size))
        return codec.decode(idx), f"codeword[{idx}]"
    return codec.sample_member(stream), "class-sample"


def _quantization_residual(codec: Codec, x) -> np.ndarray:
    return np.asarray(x) - codec.decode(codec.encode(x))


def build_panel(codec: Codec, size: int, stream) -> list:
    """Deterministic strong-regime test panel: every in-class codeword when
    they all fit, otherwise evenly spaced ones for a quarter of the panel;
    then Voronoi cell-corner stress points; class samples fill the rest.
    Codewords the construction leaves outside the class are skipped (the
    uniform guarantee only quantifies over class members).

    The panel depends only on (codec, stream), so run_trial builds it once
    per (codec, master_seed, point, panel_size) and reuses it across trials.
    """
    members: list = []
    descs: list[str] = []
    if codec.size <= size:
        cw_ids = range(codec.size)
    else:
        quarter = max(size // 4, 1)
        step = codec.size // quarter
        cw_ids = range(0, codec.size, step)
    for i in cw_ids:
        if len(members) >= size:
            break
        cw = codec.decode(i)
        if codec.is_member(cw):
            members.append(cw)
            descs.append(f"codeword[{i}]")
    for i in cw_ids:
        if len(members) >= size:
            break
        stress = codec.stress_member(i)
        if stress is not None:
            members.append(stress)
            descs.append(f"cell-corner[{i}]")
    while len(members) < size:
        members.append(codec.sample_member(stream))
        descs.append("class-sample")
    return list(zip(members[:size], descs[:size]))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Panel:
    """One strong-regime panel: its members, the rows of one read-only
    (p, n) array, their descriptions and, on first use by worst_aligned
    noise, their quantization residuals, the rows of another."""

    def __init__(self, codec: Codec, panel: list):
        self.codec = codec
        self.members = _frozen(np.array([x for x, _ in panel]))
        self.descs = tuple(desc for _, desc in panel)

    @functools.cached_property
    def residuals(self) -> np.ndarray:
        return _frozen(np.array([_quantization_residual(self.codec, x)
                                 for x in self.members]))


# One entry: consecutive trials of one sweep point share it.  The key holds
# the codec itself, so a dead codec can never alias a live one.
@functools.lru_cache(maxsize=1)
def _cached_panel(codec: Codec, master_seed: int, panel_sid: int,
                  size: int) -> _Panel:
    return _Panel(codec, build_panel(codec, size,
                                     _rng.derive_stream(master_seed, panel_sid)))


def run_trial(config: ExperimentConfig, trial_index: int, point: int = 0,
              codec: Codec | None = None, axis_value: float | None = None) -> TrialRecord:
    """Run one trial (one ensemble draw): sample the ensemble, take the
    signals, measure, add noise, recover, and record the worst result.  The
    weak and analog regimes draw one signal; the strong regime evaluates the
    whole signal panel against its one matrix and records the panel maximum
    error.  The panel is built once per (codec, master_seed, point,
    panel_size) and reused by the following trials with the same four, so a
    run_trials loop builds it once."""
    if codec is None:
        codec = codec_from_config(config.codec)
    analog = config.regime == "analog"
    strong = config.regime == "strong"
    if isinstance(codec, PiecewisePolyCodec) != analog:
        if analog:
            raise ValueError("analog regime needs a ppoly codec")
        raise ValueError(
            f"the {config.regime} regime needs a finite-dimensional codec"
        )
    d = _resolve_d(config, codec)
    n = codec.grid if analog else codec.n
    model = config.noise_model()
    bound = _bound_for(config, codec, d, n, model)
    seed = config.master_seed
    # apply_noise reads no stream at level 0; the channel stays reserved
    noise_stream = (_rng.derive_stream(seed, stream_id(point, trial_index, CH_NOISE))
                    if model.level > 0 else None)

    if analog:
        ensemble_seed = stream_id(point, trial_index, CH_WIENER_BASE)
        ensemble = sample_wiener_ensemble(d, codec.grid, seed, ensemble_seed)
    else:
        ensemble_seed = stream_id(point, trial_index, CH_ENSEMBLE)
        ensemble = sample_ensemble(d, codec.n, _rng.derive_stream(seed, ensemble_seed))
    if strong:
        signal_seed = stream_id(point, 0, CH_PANEL)  # panel fixed across trials
        panel = _cached_panel(codec, seed, signal_seed, config.panel_size)
        signals, descs = panel.members, panel.descs
    else:
        signal_seed = stream_id(point, trial_index, CH_SIGNAL)
        x, desc = _draw_signal(config, codec, _rng.derive_stream(seed, signal_seed))
        signals, descs = ((x,) if analog else x[None]), (desc,)

    # worst_aligned noise points along the measured quantization residual,
    # the stress stand-in for noise aligned against recovery; a finite
    # regime measures all its signals, and their residuals, in one call
    contexts = None
    if analog:
        ys = measure_analog(ensemble, x)[None]
        if model.worst_aligned:
            contexts = ys - measure_analog(ensemble, codec.decode(codec.encode(x)))
    else:
        ys = measure(ensemble, signals)
        if model.worst_aligned:
            contexts = measure(ensemble, panel.residuals if strong
                               else _quantization_residual(codec, x)[None])
    # noise signal by signal, so every kind draws from its stream in panel order
    ys = np.array([apply_noise(y, model, noise_stream,
                               context=None if contexts is None else contexts[i])
                   for i, y in enumerate(ys)])
    if strong:
        result = csp_recover_panel(ys, ensemble, codec, truths=signals)
    else:
        recover = csp_recover_analog if analog else csp_recover
        result = recover(ys[0], ensemble, codec, truth=signals[0])
    worst = int(np.argmax(result.error_l2))  # the first of equal maxima
    error, residual = float(result.error_l2[worst]), float(result.residual[worst])
    desc = f"panel-max[{descs[worst]}]" if strong else descs[0]

    return TrialRecord(
        trial=trial_index, axis_value=axis_value,
        ensemble_seed=ensemble_seed, signal_seed=signal_seed,
        n=n, d=d, rate_bits=codec.rate_bits, delta=codec.delta,
        noise_kind=model.kind, noise_level=model.level,
        error_l2=error, residual=residual,
        bound_error=None if bound is None else bound.error_bound,
        bound_fail_prob=None if bound is None else bound.failure_probability,
        within_bound=None if bound is None else bool(error <= bound.error_bound),
        wall_ms=(result.wall_time * 1e3) if config.record_timings else 0.0,
        signal_desc=desc,
    )


def run_trials(config: ExperimentConfig, point: int = 0,
               axis_value: float | None = None,
               codec: Codec | None = None) -> list:
    if codec is None:
        codec = codec_from_config(config.codec)
    return [
        run_trial(config, t, point=point, codec=codec, axis_value=axis_value)
        for t in range(config.trials)
    ]


def _point_config(config: ExperimentConfig, value: float) -> ExperimentConfig:
    name = config.axis["name"]
    if name == "d":
        return replace(config, d=value, axis=None)
    if name == "delta":
        codec = dict(config.codec)
        codec["delta"] = float(value)
        return replace(config, codec=codec, axis=None)
    if name == "sigma":
        noise = {"kind": "gaussian", "sigma": float(value)}
    else:
        noise = {"kind": "bounded", "zeta": float(value),
                 "shape": config.noise.get("shape", "random_direction")}
    return replace(config, noise=noise, axis=None)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run the trial grid over the configured axis.

    Expected per-point infeasibility (a codebook over its cap, a distortion
    the time grid cannot resolve, bound parameters out of range) is recorded
    as a point with nan aggregates, no records and the reason; the sweep
    continues.  Any other error propagates.  The codec is built once and
    rebuilt only at points whose codec descriptor differs (a delta axis).
    """
    if config.axis is None:
        raise ValueError("run_sweep needs an axis in the config")
    axis_name = config.axis["name"]
    values = [float(v) for v in config.axis["values"]]
    points: list[SweepPoint] = []
    records: list[TrialRecord] = []
    codec = codec_cfg = None
    for i, value in enumerate(values):
        try:
            pc = _point_config(config, value)
            if pc.codec != codec_cfg:
                codec = codec_from_config(pc.codec)
                codec_cfg = pc.codec
            recs = run_trials(pc, point=i, axis_value=value, codec=codec)
        except (CapacityError, GridResolutionError, ParameterError) as exc:
            points.append(SweepPoint(value, None, math.nan, math.nan, None, None,
                                     reason=f"{type(exc).__name__}: {exc}"))
            continue
        points.append(SweepPoint.of(recs))
        records.extend(recs)
    return SweepResult(axis_name=axis_name, points=points, records=records)


# every TrialRecord field but the free-text signal_desc, in field order
CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name != "signal_desc")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        # cast first: repr of numpy scalars carries a type wrapper
        return repr(float(value))
    return str(value)


def provenance_text(master_seed: int, lines) -> str:
    """The '# master_seed=...' provenance line, then the given lines, each
    ended by LF: the text of every CSV file the lab writes."""
    return "".join(f"{line}\n" for line in (f"# master_seed={master_seed}", *lines))


def records_to_csv(records, master_seed: int) -> str:
    """Render trial records as CSV text: the provenance line, the mandatory
    header row, then one row per record.  '.' decimals, LF line endings,
    shortest round-trip float format, hence byte-identical for identical
    records."""
    rows = (",".join(_csv_cell(getattr(r, c)) for c in CSV_COLUMNS) for r in records)
    return provenance_text(master_seed, (",".join(CSV_COLUMNS), *rows))
