"""Monte Carlo experiment runner: trials, sweeps, CSV emission.

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
import io
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import rng as _rng
from .bounds import (BoundInputs, ParameterError, budget_for_rate, check_eta,
                     compatible_theorems, evaluate_bound)
from .codecs import (CapacityError, Codec, GridResolutionError, PiecewisePolyCodec,
                     codec_from_config)
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
    and an optional guarantee to compare against."""

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
        for name, least in (("trials", 1), ("panel_size", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name}={value!r} must be an integer")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        if self.threads != 1:
            raise ValueError(f"threads={self.threads} must be 1: the scan is serial")
        if self.eta is not None:
            check_eta(self.eta)
        if self.signal_source not in ("class", "codebook"):
            raise ValueError(f"unknown signal_source {self.signal_source!r}")
        if self.d is None and self.eta is None:
            raise ValueError("set either d or the budget factor eta")
        self.noise_model()  # validates the noise block
        if self.axis is not None:
            extra = set(self.axis) - {"name", "values"}
            if extra:
                raise ValueError(f"unknown axis keys: {sorted(extra)}")
            if self.axis.get("name") not in _AXES:
                raise ValueError(f"axis name must be one of {_AXES}")
            if not self.axis.get("values"):
                raise ValueError("axis values must be nonempty")
        if self.theorem_id is not None:
            allowed = compatible_theorems(self.regime, self.noise["kind"])
            if self.theorem_id not in allowed:
                raise ValueError(
                    f"theorem {self.theorem_id} incompatible with regime="
                    f"{self.regime}, noise={self.noise['kind']}; "
                    f"allowed: {allowed}"
                )
        bad = set(self.bound_params) - {f.name for f in fields(BoundInputs)}
        if bad:
            raise ValueError(f"unknown bound_params keys: {sorted(bad)}")

    def noise_model(self) -> NoiseModel:
        block = dict(self.noise)
        kind = block.pop("kind", "none")
        if kind == "none":
            extra = set(block)
        elif kind == "bounded":
            extra = set(block) - {"zeta", "shape"}
        elif kind == "gaussian":
            extra = set(block) - {"sigma"}
        else:
            raise ValueError(f"unknown noise kind {kind!r}")
        if extra:
            raise ValueError(f"unknown noise keys: {sorted(extra)}")
        if kind == "bounded":
            return NoiseModel.bounded(block.get("zeta", 0.0),
                                      block.get("shape", "random_direction"))
        if kind == "gaussian":
            return NoiseModel.gaussian(block.get("sigma", 0.0))
        return NoiseModel.none()

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        extra = set(raw) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
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


@dataclass
class SweepResult:
    axis_name: str
    points: list
    records: list
    master_seed: int


def _resolve_d(config: ExperimentConfig, codec: Codec) -> int:
    if config.d is not None:
        # a d axis arrives as floats: 4.0 is d=4, 2.7 is no measurement count
        if not (config.d >= 1 and float(config.d).is_integer()):
            raise ParameterError(f"d={config.d} must be an integer >= 1")
        d = int(config.d)
    else:  # analog measurements take the weak (fixed-signal) multiplier
        d = budget_for_rate(codec.rate_bits, codec.delta, config.eta,
                            "strong" if config.regime == "strong" else "weak")
    if config.regime == "analog" and d > MAX_WIENER_PATHS:
        raise ParameterError(
            f"analog d={d} exceeds {MAX_WIENER_PATHS}: Wiener path i takes stream "
            f"channel {CH_WIENER_BASE} + i, which must fit in {_CHANNEL_BITS} bits"
        )
    return d


def _bound_for(config: ExperimentConfig, codec: Codec, d: int, n: int):
    if config.theorem_id is None:
        return None
    model = config.noise_model()
    # bound_params may override any derived field (e.g. a hand-set sigma)
    kwargs = dict(r=codec.rate_bits, delta=codec.delta, d=d, n=n,
                  sigma=model.sigma, zeta=model.zeta)
    kwargs.update(config.bound_params)
    return evaluate_bound(config.theorem_id, BoundInputs(**kwargs))


def _draw_signal(config: ExperimentConfig, codec: Codec, stream):
    if config.signal_source == "codebook":
        idx = int(stream.generator.integers(0, codec.size))
        return codec.decode(idx), f"codeword[{idx}]"
    return codec.sample_member(stream.generator), "class-sample"


def _quantization_residual(codec: Codec, x) -> np.ndarray:
    return np.asarray(x) - codec.decode(codec.encode(x))


def _noisy(y, model: NoiseModel, stream, direction) -> np.ndarray:
    """y plus the model's noise.  For worst_aligned noise, direction() gives
    the measured quantization residual, the stress stand-in for noise
    aligned against recovery; it is called for no other model."""
    if model.kind == "bounded" and model.shape == "worst_aligned":
        u = direction()
        if float(np.linalg.norm(u)) > 1e-15:
            return apply_noise(y, model, stream, context=u)
        # the signal sits on a codeword: any direction is an admissible
        # adversary, fall back to a random one
        model = NoiseModel.bounded(model.zeta)
    return apply_noise(y, model, stream)


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
        members.append(codec.sample_member(stream.generator))
        descs.append("class-sample")
    return list(zip(members[:size], descs[:size]))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Panel:
    """One strong-regime panel with its read-only members, their stacked
    truths and, on first use by worst_aligned noise, their quantization
    residuals."""

    def __init__(self, codec: Codec, panel: list):
        self.codec = codec
        self.members = tuple(_frozen(x) for x, _ in panel)
        self.descs = tuple(desc for _, desc in panel)
        self.truths = _frozen(np.asarray(self.members))

    @functools.cached_property
    def residuals(self) -> tuple:
        return tuple(_frozen(_quantization_residual(self.codec, x))
                     for x in self.members)


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
    bound = _bound_for(config, codec, d, n)
    model = config.noise_model()
    seed = config.master_seed
    noise_stream = _rng.derive_stream(seed, stream_id(point, trial_index, CH_NOISE))

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
        signals, descs = (x,), (desc,)

    def aligned(i: int, y) -> np.ndarray:  # measured quantization residual
        if analog:
            return y - measure_analog(ensemble, codec.decode(codec.encode(signals[i])))
        r = panel.residuals[i] if strong else _quantization_residual(codec, signals[i])
        return ensemble.matrix @ r

    ys = []
    for i, x in enumerate(signals):
        y = measure_analog(ensemble, x) if analog else measure(ensemble, x)
        ys.append(_noisy(y, model, noise_stream, functools.partial(aligned, i, y)))
    if strong:
        results = csp_recover_panel(np.asarray(ys), ensemble, codec,
                                    truths=panel.truths)
    elif analog:
        results = [csp_recover_analog(ys[0], ensemble, codec, truth=signals[0])]
    else:
        results = [csp_recover(ys[0], ensemble, codec, truth=signals[0])]
    worst = int(np.argmax([r.error_l2 for r in results]))
    error = float(results[worst].error_l2)

    return TrialRecord(
        trial=trial_index, axis_value=axis_value,
        ensemble_seed=ensemble_seed, signal_seed=signal_seed,
        n=n, d=d, rate_bits=codec.rate_bits, delta=codec.delta,
        noise_kind=model.kind, noise_level=model.level,
        error_l2=error, residual=results[worst].residual,
        bound_error=None if bound is None else bound.error_bound,
        bound_fail_prob=None if bound is None else bound.failure_probability,
        within_bound=None if bound is None else bool(error <= bound.error_bound),
        wall_ms=(results[0].wall_time * 1e3) if config.record_timings else 0.0,
        signal_desc=f"panel-max[{descs[worst]}]" if strong else descs[0],
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
    noise = dict(config.noise)
    if name == "sigma":
        noise.update(kind="gaussian", sigma=float(value))
        noise.pop("zeta", None)
        noise.pop("shape", None)
    else:
        noise.setdefault("shape", "random_direction")
        noise.update(kind="bounded", zeta=float(value))
        noise.pop("sigma", None)
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
        errs = np.asarray([r.error_l2 for r in recs])
        bound_error = recs[0].bound_error
        bound_fail = recs[0].bound_fail_prob
        exceed = None
        if bound_error is not None:
            exceed = float(np.mean(errs > bound_error))
        points.append(SweepPoint(
            axis_value=value, exceed_rate=exceed,
            mean_error=float(errs.mean()), max_error=float(errs.max()),
            bound_error=bound_error, bound_fail_prob=bound_fail,
        ))
        records.extend(recs)
    return SweepResult(axis_name=axis_name, points=points, records=records,
                       master_seed=config.master_seed)


CSV_COLUMNS = (
    "trial", "axis_value", "ensemble_seed", "signal_seed", "n", "d",
    "rate_bits", "delta", "noise_kind", "noise_level", "error_l2", "residual",
    "bound_error", "bound_fail_prob", "within_bound", "wall_ms",
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        # cast first: repr of numpy scalars carries a type wrapper
        return repr(float(value))
    return str(value)


def records_to_csv(records, master_seed: int) -> str:
    """Render trial records as CSV text: a '# master_seed=...' provenance
    line, the mandatory header row, then one row per record.  '.' decimals,
    LF line endings, shortest round-trip float format, hence byte-identical
    for identical records."""
    buf = io.StringIO()
    buf.write(f"# master_seed={master_seed}\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for r in records:
        row = [_csv_cell(getattr(r, c)) for c in CSV_COLUMNS]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def write_csv(records, master_seed: int, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(records_to_csv(records, master_seed))
