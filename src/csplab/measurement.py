"""Random linear measurement operators.

Finite-dimensional signals are measured with a d-by-n matrix of i.i.d.
standard normals; functions on [0,1] are measured by stochastic integrals
against d independent Wiener paths, realized as left-point sums on a uniform
grid of m steps.  Both operators are drawn from streams, numpy Generators
keyed by (master_seed, stream_id), so each regenerates exactly from its key;
a trial records the keys it used in its CSV row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codecs import _number, _refuse_unknown
from .piecewise import PiecewisePolynomial
from .rng import derive_stream, gaussian_matrix, gaussian_vector


@dataclass
class MeasurementEnsemble:
    """A d-by-n Gaussian measurement matrix; d and n are its shape."""

    matrix: np.ndarray

    def __post_init__(self):
        if np.ndim(self.matrix) != 2:
            raise ValueError(f"matrix shape {np.shape(self.matrix)}; need a 2-D (d, n) array")
        # a nan or inf entry would poison every product of the scan
        if not np.isfinite(self.matrix).all():
            raise ValueError("matrix entries must be finite")

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def sample_ensemble(d: int, n: int, stream: np.random.Generator) -> MeasurementEnsemble:
    """Draw a fresh d-by-n matrix of i.i.d. N(0,1) entries from the stream.

    Entries are generated in row-major order: A[i, j] is the (i*n + j)-th
    normal variate drawn, so the matrix regenerates exactly from the stream's key.
    """
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1; got d={d}, n={n}")
    return MeasurementEnsemble(gaussian_matrix(stream, d, n))


def measure(ensemble: MeasurementEnsemble, x) -> np.ndarray:
    """Measurements y = A x of one signal x (n,), as a (d,) array, or of
    every row of a stack x (p, n), as a (p, d) array, from one call
    np.matmul(A, x[..., None]).  Each row is one gemv with the bits of
    A @ x: the stacked matmul runs the same (d x n) @ (n x 1) product per
    row as A @ x runs for one signal."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != ensemble.n:
        raise ValueError(f"signal shape {x.shape}; ensemble expects ({ensemble.n},) "
                         f"or (p, {ensemble.n})")
    return np.matmul(ensemble.matrix, x[..., None])[..., 0]


# the keys a config's noise block may hold beside "kind", per kind
_NOISE_KEYS = {"none": set(), "bounded": {"zeta", "shape"}, "gaussian": {"sigma"}}


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise description.

    kind "none":     y unchanged.
    kind "gaussian": y + sigma * g with g i.i.d. standard normal.
    kind "bounded":  y + zeta * u with ||u||_2 = 1; shape "random_direction"
                     draws u uniformly on the sphere, shape "worst_aligned"
                     takes u from a caller-supplied direction (the stress
                     surrogate for noise that may depend on the measurements).
    The emitted perturbation of a bounded model always has norm exactly zeta.
    The levels zeta and sigma must be finite numbers >= 0 (a bool or a
    string is refused); they are kept as floats.
    """

    kind: str = "none"
    zeta: float = 0.0
    sigma: float = 0.0
    shape: str = "random_direction"

    def __post_init__(self):
        if self.kind not in _NOISE_KEYS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for name in ("zeta", "sigma"):
            object.__setattr__(self, name, _number(
                name, getattr(self, name), lambda v: 0 <= v < math.inf, "finite and >= 0"))
        if self.kind == "bounded" and self.shape not in (
            "random_direction", "worst_aligned",
        ):
            raise ValueError(f"unknown bounded-noise shape {self.shape!r}")

    @classmethod
    def from_dict(cls, block: dict) -> "NoiseModel":
        """The model a config's noise block describes: "kind" (default
        "none") plus that kind's keys; any other key is a ValueError."""
        block = dict(block)
        kind = block.pop("kind", "none")
        if kind not in _NOISE_KEYS:
            raise ValueError(f"unknown noise kind {kind!r}")
        _refuse_unknown(block, _NOISE_KEYS[kind], "noise")
        shape = block.pop("shape", "random_direction")
        return cls(kind, shape=shape, **block)

    @property
    def worst_aligned(self) -> bool:
        """Whether the noise direction comes from the caller's context: a
        worst_aligned shape with zeta > 0 (zero noise needs no direction)."""
        return self.kind == "bounded" and self.shape == "worst_aligned" and self.zeta > 0

    @property
    def level(self) -> float:
        """The scalar magnitude of the model (zeta, sigma, or 0)."""
        if self.kind == "bounded":
            return self.zeta
        if self.kind == "gaussian":
            return self.sigma
        return 0.0


def apply_noise(y: np.ndarray, model: NoiseModel,
                stream: np.random.Generator | None = None,
                context: np.ndarray | None = None) -> np.ndarray:
    """Return the noisy measurement vector for the given model.

    worst_aligned noise requires `context`, a direction in measurement space
    of y's shape (normalized here).  A context of norm <= 1e-15 (the signal
    sits on a codeword, so any direction is an admissible adversary) falls
    back to a random direction, as random_direction noise draws it: uniform
    on the sphere, from `stream`.  Gaussian noise draws from `stream` too.
    Zero noise levels return the input unchanged.
    """
    y = np.asarray(y, dtype=float)
    if model.level == 0.0:
        return y.copy()
    if model.worst_aligned:
        if context is None or np.shape(context) != y.shape:
            raise ValueError("worst_aligned bounded noise needs a context of y's shape")
        u = np.asarray(context, dtype=float)
        nrm = float(np.linalg.norm(u))
        if nrm > 1e-15:
            return y + (model.zeta / nrm) * u
    if stream is None:
        raise ValueError(f"{model.kind} noise needs a random stream")
    if model.kind == "gaussian":
        return y + model.sigma * gaussian_vector(stream, y.size)
    nrm = 0.0
    while nrm == 0.0:  # a zero draw is essentially impossible; keeps the contract hard
        u = gaussian_vector(stream, y.size)
        nrm = float(np.linalg.norm(u))
    return y + (model.zeta / nrm) * u


@dataclass
class WienerEnsemble:
    """d independent Wiener paths on a shared m-step grid.

    increments[i, k] = W_i((k+1)/m) - W_i(k/m), so d and m are its shape.
    sample_wiener_ensemble draws each path from its own stream, so the paths
    are independent by construction.
    """

    increments: np.ndarray

    def __post_init__(self):
        if np.ndim(self.increments) != 2:
            raise ValueError(
                f"increments shape {np.shape(self.increments)}; need a 2-D (d, m) array")
        if not np.isfinite(self.increments).all():
            raise ValueError("increments must be finite")

    @property
    def d(self) -> int:
        return self.increments.shape[0]

    @property
    def m(self) -> int:
        return self.increments.shape[1]

    @property
    def times(self) -> np.ndarray:
        """Left endpoints k/m of the integration cells, read-only
        (_grid_times)."""
        return _grid_times(self.m)


@functools.lru_cache(maxsize=16)
def _grid_times(m: int) -> np.ndarray:
    """The read-only grid np.arange(m) / m, computed once per grid size and
    shared by every ensemble and codec of that grid."""
    times = np.arange(m) / m
    times.flags.writeable = False
    return times


def sample_wiener_ensemble(d: int, m: int, master_seed: int,
                           base_stream_id: int = 0) -> WienerEnsemble:
    """Draw d independent Wiener paths, path i from stream base_stream_id+i.

    The caller reserves the contiguous id block [base, base+d).
    """
    if d < 1:
        raise ValueError(f"need d >= 1 measurement paths; got d={d}")
    if m < 1:
        raise ValueError(f"need m >= 1 grid steps; got m={m}")
    inc = np.empty((d, m))
    scale = np.sqrt(1.0 / m)
    for i in range(d):
        stream = derive_stream(master_seed, base_stream_id + i)
        np.multiply(gaussian_vector(stream, m), scale, out=inc[i])
    return WienerEnsemble(inc)


def measure_analog(ensemble: WienerEnsemble, f) -> np.ndarray:
    """Stochastic-integral measurements y_i = sum_k f(t_k) (W_i(t_{k+1}) - W_i(t_k)).

    The left-point sum over the ensemble's m-step grid; exact (no
    discretization error) when f is piecewise constant with breakpoints on
    the grid.  f may be a PiecewisePolynomial (sampled with right limits at
    breakpoints, which is what makes the aligned case exact) or any callable
    on [0,1).
    """
    times = ensemble.times
    if isinstance(f, PiecewisePolynomial):
        vals = f.values_for_ito(times)
    else:
        vals = np.asarray(f(times), dtype=float)
    if vals.shape != times.shape:
        raise ValueError("integrand must evaluate to one value per grid cell")
    return ensemble.increments @ vals
