"""Constructive fixed-rate compression codes with enumerable codebooks.

Three signal classes are covered:

* GridCodec      -- the Euclidean ball B2(rho) in R^n, covered by a uniform
                    per-coordinate grid of spacing delta/sqrt(n); the
                    SparseCodec with k = n.
* SparseCodec    -- k-sparse vectors inside B2(rho), covered by a grid of
                    spacing delta/sqrt(k) on every size-k support.
* PiecewisePolyCodec -- piecewise polynomials on [0,1] with bounded degree,
                    breakpoint count and amplitude, with quantized breakpoints
                    and quantized orthonormal-basis coefficients per piece.

Every codec declares a target distortion delta, exposes its exact codebook
size and rate_bits = log2(size), and enumerates codewords lazily by index.
Encoding maps a class member to a codeword index with reconstruction error
at most delta; decoding is the inverse enumeration.  The scan sees a codec
as a run of equal-size groups of codewords that share one operator, and
reads their coefficient rows through one method, coef_block(offset,
count): level values (sparse, grid), basis coefficients (ppoly) or the
codewords themselves (explicit).

Constructors check every parameter first, else ValueError: counts (n, k,
degree, n_breaks, grid, a cap other than None) are integers or integer-valued
floats, never bools; rho and amp are finite and > 0.  Codeword indices are
integers (a Python or numpy int, never a bool or a float), else IndexError.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .piecewise import (PiecewisePolynomial, constant_function,
                        orthonormal_basis_matrix, piecewise_constant)
from .rng import derive_stream

DEFAULT_CAP = 2**24
_AUDIT_SAMPLES = 64  # class samples per calibration audit, beside the probes

# fixed seed for build-time calibration audits; not related to user seeds
_CALIBRATION_SEED = 271828182845


class CapacityError(ValueError):
    """Codebook larger than the configured enumeration cap."""

    def __init__(self, size: int, cap: int, what: str):
        self.size = size
        self.cap = cap
        bits = math.ceil(math.log2(size)) if size > 1 else 0
        super().__init__(
            f"{what}: codebook has {size} codewords (needs cap >= 2^{bits}); "
            f"configured cap is {cap}"
        )


class DomainError(ValueError):
    """Signal handed to encode() violates the codec's class invariants."""


class GridResolutionError(ValueError):
    """Target distortion needs finer breakpoint quantization than the
    codec's time grid can align with."""


def _count(name: str, value, least: int, error=ValueError) -> int:
    """value as an int >= least.  An integer-valued float passes; a bool, a
    fraction, nan or inf raises error."""
    if (isinstance(value, bool)
            or not (isinstance(value, numbers.Integral)
                    or isinstance(value, float) and value.is_integer())
            or value < least):
        raise error(f"{name}={value!r} must be an integer >= {least}")
    return int(value)


def _is_number(value) -> bool:
    """A real number; a bool or a string is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _number(name: str, value, ok=None, text: str = "a number", error=ValueError) -> float:
    """value as a float, or error "name=value must be text" unless it is a
    number (_is_number) whose float satisfies ok, if given."""
    if not _is_number(value) or ok is not None and not ok(float(value)):
        raise error(f"{name}={value!r} must be {text}")
    return float(value)


def _refuse_unknown(keys, allowed, what: str) -> None:
    """ValueError naming, sorted, every key outside allowed."""
    extra = set(keys) - set(allowed)
    if extra:
        raise ValueError(f"unknown {what} keys: {sorted(extra)}")


def _positive(name: str, value) -> float:
    """value as a float, or ValueError unless it is finite and > 0."""
    return _number(name, value, lambda v: 0 < v < math.inf, "finite and > 0")


def _integer(name: str, value) -> int:
    """value as an int, or IndexError unless it is an integer: a Python or
    numpy int, not a bool or a float."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise IndexError(f"{name} {value!r} must be an integer")


def ceil_snap(x: float) -> int:
    """Ceiling that forgives float fuzz: values within 1e-9 (relative) of an
    integer snap to it instead of being pushed up."""
    r = round(x)
    if abs(x - r) <= 1e-9 * max(1.0, abs(x)):
        return int(r)
    return int(math.ceil(x))


def _comb_rank(support, n: int, k: int) -> int:
    """Lexicographic rank of a sorted k-subset of range(n)."""
    rank = 0
    prev = -1
    for i, s in enumerate(support):
        for j in range(prev + 1, s):
            rank += math.comb(n - 1 - j, k - 1 - i)
        prev = s
    return rank


@functools.lru_cache(maxsize=4096)
def _comb_unrank(rank: int, n: int, k: int) -> tuple:
    """Inverse of _comb_rank, for one index at a time: SparseCodec.decode
    and stress_member unrank a support, PiecewisePolyCodec.decode a
    breakpoint layout (the tables of every support and layout are built from
    itertools instead).  Memoized: they unrank the same few over and over."""
    out = []
    j = 0
    for i in range(k):
        while True:
            c = math.comb(n - 1 - j, k - 1 - i)
            if c <= rank:
                rank -= c
                j += 1
            else:
                break
        out.append(j)
        j += 1
    return tuple(out)


def _digit_rows(indices: np.ndarray, base: int, width: int) -> np.ndarray:
    """The width base-`base` digits of each index, most significant first:
    shape (len(indices), width), the row-major order of both codebook
    layouts."""
    return np.stack(np.unravel_index(indices, (base,) * width), axis=1)


@dataclass
class RateDistortionPoint:
    """(distortion, rate, rate/log2(1/distortion)); nan fields mark points
    that could not be built under the requested cap."""

    delta: float
    rate_bits: float
    alpha_hat: float
    reason: str | None = None  # why a nan point could not be built


class Codec:
    """Shared interface: lazy enumerable codebook + encode/decode."""

    size: int
    rate_bits: float
    delta: float
    cap: int | None
    kind: str  # the descriptor's "class"
    _descriptor: dict  # the descriptor's other keys -> the attribute each holds

    def decode(self, index: int):
        raise NotImplementedError

    def _index(self, index) -> int:
        """index as an int, or IndexError unless it is an integer with
        0 <= index < size."""
        index = _integer("index", index)
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside [0, {self.size})")
        return index

    def _indices(self, indices) -> np.ndarray:
        """indices as a 1-D integer array, or IndexError unless it is one
        whose every entry lies in [0, size)."""
        idx = np.asarray(indices)
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise IndexError(f"indices must be a 1-D integer array, not {idx.dtype} "
                             f"of shape {idx.shape}")
        if idx.size and not (0 <= idx.min() and idx.max() < self.size):
            raise IndexError(f"indices outside [0, {self.size})")
        return idx

    def encode(self, x) -> int:
        raise NotImplementedError

    def _signal(self, x) -> np.ndarray:
        """x as a float vector, or DomainError unless it is finite of shape (n,)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DomainError(f"signal shape {x.shape}; expected ({self.n},)")
        if not np.isfinite(x).all():
            raise DomainError("signal must be finite")
        return x

    def _check_cap(self, what: str):
        if self.cap is not None and self.size > self.cap:
            raise CapacityError(self.size, self.cap, what)

    def config(self) -> dict:
        """The JSON descriptor codec_from_config builds this codec from."""
        return {"class": self.kind,
                **{key: getattr(self, attr) for key, attr in self._descriptor.items()}}


class SparseCodec(Codec):
    """Grid codewords on every size-k support: covers k-sparse ball points.

    Per support coordinate the grid takes L = 2*ceil(rho*sqrt(k)/delta)+1
    values spaced delta/sqrt(k) apart (zero included).  Index layout:
    index = support_rank * L^k + grid_index, supports in lexicographic order,
    grid digits row-major over the support in ascending coordinate order
    (level 0 at the most negative value).  The all-zero and other
    lower-sparsity codewords repeat across supports; encode always returns
    the lowest-index (lexicographically first support) occurrence.

    Every codeword is a (support, level row) pair: its values on the
    support are the level values of its grid index, which depend only on
    the grid index.  The scan takes each support as one group of grid_size
    codewords, with the columns of the support as its operator and
    coef_block as its coefficient rows, and decodes no codeword.  Level
    rows are computed from their grid digits on request; the scan asks for
    each block of them once.  decode and decode_many return fresh arrays.
    """

    kind = "sparse"
    _descriptor = {"n": "n", "k": "k", "rho": "rho", "delta": "delta", "cap": "cap"}

    def __init__(self, n: int, k: int, rho: float, delta: float,
                 cap: int | None = DEFAULT_CAP):
        self.n = _count("n", n, 1)
        self.k = _count("k", k, 1)
        self.rho = _positive("rho", rho)
        self.delta = _number("delta", delta)
        self.cap = None if cap is None else _count("cap", cap, 1)
        if self.k > self.n:
            raise ValueError(f"k={self.k} outside [1, n={self.n}]")
        radius = self.rho * math.sqrt(self.k)
        if not 0 < self.delta <= radius:
            raise ValueError(f"delta={self.delta} outside (0, rho*sqrt(k)] = (0, {radius}]")
        self.steps = ceil_snap(radius / self.delta)
        self.spacing = self.delta / math.sqrt(self.k)
        self.levels_per_dim = 2 * self.steps + 1
        self.n_supports = math.comb(self.n, self.k)
        self.grid_size = self.levels_per_dim**self.k
        self.size = self.n_supports * self.grid_size
        self.rate_bits = math.log2(self.size)
        self._check_cap(f"{self.kind} codec")

    def worst_case_distortion(self) -> float:
        return 0.5 * self.spacing * math.sqrt(self.k)

    def _grid_digits(self, values: np.ndarray) -> np.ndarray:
        return np.clip(
            np.floor(values / self.spacing + 0.5), -self.steps, self.steps
        ).astype(np.int64) + self.steps

    def encode(self, x) -> int:
        """Round every coordinate to the grid, then canonicalize so the
        returned index is the first occurrence of the chosen codeword.

        Accepts k-sparse ball members, plus codewords as exact fixed points
        (codewords near the grid boundary can fall outside the ball).
        """
        x = self._signal(x)
        nnz = int(np.count_nonzero(x))
        if nnz > self.k:
            raise DomainError(f"||x||_0 = {nnz} exceeds sparsity {self.k}")
        nrm = float(np.linalg.norm(x))
        digits = self._grid_digits(x)
        # a zero coordinate rounds to level zero exactly, so only the (at
        # most k) nonzeros can keep x off the grid
        off_grid = float(np.linalg.norm(x - (digits - self.steps) * self.spacing))
        if nrm > self.rho * (1 + 1e-9) and off_grid > 1e-9 * max(1.0, nrm):
            raise DomainError(f"||x||_2 = {nrm} exceeds ball radius {self.rho}")
        # coordinates whose rounded value is nonzero must stay; the smallest
        # others pad the support, so it is lexicographically minimal among
        # all supports holding this codeword
        stay = np.flatnonzero(digits != self.steps)
        pad = np.flatnonzero(digits == self.steps)[:self.k - stay.size]
        canon = np.sort(np.concatenate((stay, pad))).tolist()
        grid_index = 0
        for d in digits[canon]:
            grid_index = grid_index * self.levels_per_dim + int(d)
        return _comb_rank(canon, self.n, self.k) * self.grid_size + grid_index

    def decode(self, index: int) -> np.ndarray:
        support_rank, rem = divmod(self._index(index), self.grid_size)
        out = np.zeros(self.n)
        # the last support coordinate holds the least significant grid digit;
        # (d - steps) * spacing in Python floats has coef_block's bits
        for i in reversed(_comb_unrank(support_rank, self.n, self.k)):
            rem, d = divmod(rem, self.levels_per_dim)
            out[i] = (d - self.steps) * self.spacing
        return out

    def _levels(self, grid_indices: np.ndarray) -> np.ndarray:
        """Level values (count, k) of an array of grid indices, computed from
        their grid digits."""
        digits = _digit_rows(grid_indices, self.levels_per_dim, self.k)
        return (digits - self.steps) * self.spacing

    def coef_block(self, offset: int, count: int) -> np.ndarray:
        """Level values of the grid indices [offset, offset + count), shape
        (count, k): the scan's coefficient rows.  Row i holds the values, on
        its support, of codeword offset + i of every support."""
        return self._levels(np.arange(offset, offset + count, dtype=np.int64))

    def decode_many(self, indices) -> np.ndarray:
        """Codewords (p, n) of p indices, with decode's bits: row i holds
        the level values of index i's grid index on the support of its
        rank, gathered from the support table."""
        rank, grid_index = np.divmod(self._indices(indices), self.grid_size)
        out = np.zeros((len(rank), self.n))
        np.put_along_axis(out, self.supports[rank], self._levels(grid_index), axis=1)
        return out

    @functools.cached_property
    def supports(self) -> np.ndarray:
        """Every support, read-only (n_supports, k): row r is the support of
        rank r (the order of itertools.combinations).  Built on first use."""
        table = np.fromiter(combinations(range(self.n), self.k), dtype=(np.intp, (self.k,)))
        table.flags.writeable = False
        return table

    def is_member(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return (x.shape == (self.n,)
                and int(np.count_nonzero(x)) <= self.k
                and float(np.linalg.norm(x)) <= self.rho * (1 + 1e-9))

    def sample_member(self, gen: np.random.Generator) -> np.ndarray:
        """Uniform support, then a uniform draw from the k-dimensional ball
        of radius rho on that support."""
        support = np.sort(gen.choice(self.n, size=self.k, replace=False))
        out = np.zeros(self.n)
        out[support] = self._ball_draw(gen, self.k)
        return out

    def _ball_draw(self, gen: np.random.Generator, dim: int) -> np.ndarray:
        """Uniform draw from the dim-dimensional ball of radius rho: direction
        from a normalized gaussian, radius rho * U^(1/dim)."""
        g = gen.standard_normal(dim)
        nrm = float(np.linalg.norm(g))
        while nrm == 0.0:
            g = gen.standard_normal(dim)
            nrm = float(np.linalg.norm(g))
        return self.rho * gen.uniform() ** (1.0 / dim) * g / nrm

    def stress_member(self, index: int) -> np.ndarray | None:
        """Cell corner of a codeword on its own support, or None if it
        leaves the ball."""
        x = self.decode(index)
        support_rank, _ = divmod(int(index), self.grid_size)
        support = list(_comb_unrank(support_rank, self.n, self.k))
        x[support] += 0.5 * self.spacing
        return x if np.linalg.norm(x) <= self.rho else None


class GridCodec(SparseCodec):
    """Uniform product grid covering the ball B2(rho) in R^n: the sparse
    codec with k = n, whose one support makes the index the grid index.

    Per coordinate the grid takes 2*ceil(rho*sqrt(n)/delta)+1 values spaced
    delta/sqrt(n) apart (zero included), so every ball point is within
    delta/2 of a codeword.  Only the rate (n*log2(L), not log2(L^n), which
    can differ in the last bit), the ball draw and the descriptor differ.
    """

    kind = "grid"
    _descriptor = {"n": "n", "rho": "rho", "delta": "delta", "cap": "cap"}

    def __init__(self, n: int, rho: float, delta: float,
                 cap: int | None = DEFAULT_CAP):
        super().__init__(n, n, rho, delta, cap=cap)
        self.rate_bits = self.n * math.log2(self.levels_per_dim)

    def sample_member(self, gen: np.random.Generator) -> np.ndarray:
        """Uniform draw from the ball, with no support draw first."""
        return self._ball_draw(gen, self.n)


class ExplicitCodec(Codec):
    """A codec wrapping a read-only copy of a list of codewords (test and
    diagnostic tool; encode is brute-force nearest codeword, first index on
    ties)."""

    def __init__(self, codewords):
        self._codewords = np.array(codewords, dtype=float, ndmin=2)
        if self._codewords.ndim != 2 or 0 in self._codewords.shape:
            raise ValueError(f"codewords have shape {self._codewords.shape}; "
                             "need (size, n) with size, n >= 1")
        # a nan codeword would win its tile's argmin and hide every other
        if not np.isfinite(self._codewords).all():
            raise ValueError("codewords must be finite")
        self._codewords.flags.writeable = False
        self.size = self._codewords.shape[0]
        self.n = self._codewords.shape[1]
        self.rate_bits = math.log2(self.size) if self.size > 1 else 0.0
        self.delta = math.nan
        self.cap = None

    def encode(self, x) -> int:
        d2 = ((self._codewords - self._signal(x)) ** 2).sum(axis=1)
        return int(np.argmin(d2))

    def decode(self, index: int) -> np.ndarray:
        return self._codewords[self._index(index)].copy()

    def decode_many(self, indices) -> np.ndarray:
        return self._codewords[self._indices(indices)]

    def coef_block(self, offset: int, count: int) -> np.ndarray:
        """Codewords [offset, offset + count), a read-only view (count, n):
        the scan's coefficient rows of its one group, the whole codebook."""
        return self._codewords[offset:offset + count]

    def config(self) -> dict:
        raise ValueError("an explicit codebook has no JSON descriptor")


class PiecewisePolyCodec(Codec):
    """Quantized piecewise polynomials: degree <= N on Q+1 pieces of [0,1],
    amplitude bounded by amp, target L2 distortion delta.

    Breakpoints are snapped to the midpoints (2i+1)/2^(bt+1) of a dyadic grid
    with 2^bt cells; per-piece coefficients in the orthonormal Legendre basis
    are quantized to 2^bc midpoint levels on [-amp, amp].  bt and bc start at
    values derived from the exact error budget (coefficient quantization and
    breakpoint mis-alignment each get half of delta^2) and are bumped until a
    build-time audit measures distortion <= delta on sampled and adversarial
    class members.  Rate grows as O((N+1)(Q+1) log2(1/delta) + 2 Q log2(1/delta)).

    grid is the uniform time grid (power of two) the codec's breakpoints
    align with; analog measurement of these codewords on the same grid makes
    the stochastic-integral sums exact for the piecewise-constant case.

    Index layout: index = breakpoint_rank * 2^(bc * n_coef) + coef_index with
    coefficient digits row-major (piece 0 coefficient 0 most significant).
    Repeated breakpoints make empty pieces whose coefficients do not affect
    the function, so distinct indices can decode to equal functions; encode
    returns the canonical occurrence (zero-projected empty pieces).
    """

    kind = "ppoly"
    # "n" is the time grid and "rho" the amplitude bound
    _descriptor = {"n": "grid", "N": "degree", "Q": "n_breaks", "rho": "amp",
                   "delta": "delta", "cap": "cap"}

    def __init__(self, degree: int, n_breaks: int, amp: float, delta: float,
                 grid: int = 4096, cap: int | None = DEFAULT_CAP):
        self.degree = _count("degree", degree, 0)
        self.n_breaks = _count("n_breaks", n_breaks, 0)
        self.amp = _positive("amp", amp)
        self.delta = _number("delta", delta)
        self.grid = _count("grid", grid, 2)
        self.cap = None if cap is None else _count("cap", cap, 1)
        if not 0 < self.delta < self.amp:
            raise ValueError(f"delta={self.delta} outside (0, amp={self.amp})")
        if self.grid & (self.grid - 1):
            raise ValueError(f"grid={self.grid}; need a power of two >= 2")
        self.n_coef = (self.n_breaks + 1) * (self.degree + 1)

        bc, bt = self._initial_bits()
        for attempt in range(9):
            self._configure(bc, bt)
            worst = self._audit_distortion()
            if worst <= self.delta * (1 + 1e-9):
                self.audit_worst = worst
                break
            bc += 1
            bt += 2 if self.n_breaks else 0
        else:
            raise RuntimeError(
                f"calibration failed to reach distortion {self.delta} "
                f"(last audit {worst})"
            )
        self._check_cap("piecewise-poly codec")

    def _initial_bits(self) -> tuple[int, int]:
        nq = math.sqrt(self.n_coef)
        if self.n_breaks == 0:
            bc = max(1, math.ceil(math.log2(self.amp * nq / self.delta) - 1e-12))
            return bc, 0
        bc = max(1, math.ceil(
            math.log2(self.amp * nq * math.sqrt(2.0) / self.delta) - 1e-12))
        bt = max(1, math.ceil(
            math.log2(4.0 * self.n_breaks * self.amp**2 / self.delta**2) - 1e-12))
        return bc, bt

    def _configure(self, bc: int, bt: int):
        # bt stays 0 without breakpoints: one break level, and 2 <= grid
        if 2 ** (bt + 1) > self.grid:
            raise GridResolutionError(
                f"breakpoint quantizer needs a time grid of at least "
                f"{2 ** (bt + 1)} points; got grid={self.grid}"
            )
        self.coef_bits = bc
        self.break_bits = bt
        self.coef_levels = 2**bc
        self.break_levels = 2**bt
        self.coef_step = 2.0 * self.amp / self.coef_levels
        self.n_break_combos = math.comb(
            self.break_levels + self.n_breaks - 1, self.n_breaks
        )
        self.coef_space = self.coef_levels**self.n_coef
        self.size = self.n_break_combos * self.coef_space
        self.rate_bits = math.log2(self.size)

    # breakpoint level i sits at the midpoint of dyadic cell i
    def _break_value(self, level) -> np.ndarray:
        return (2 * np.asarray(level, dtype=float) + 1) / (2.0 * self.break_levels)

    def _coef_value(self, level) -> np.ndarray:
        return -self.amp + (np.asarray(level, dtype=float) + 0.5) * self.coef_step

    def _quantize_coef(self, c) -> np.ndarray:
        lvl = np.floor((np.asarray(c, dtype=float) + self.amp) / self.coef_step)
        return np.clip(lvl, 0, self.coef_levels - 1).astype(np.int64)

    def _snap_break(self, value: float) -> int:
        lvl = math.floor(value * self.break_levels)
        return min(max(lvl, 0), self.break_levels - 1)

    # nondecreasing level tuples ranked through the strictly-increasing map
    # (v_1, ..., v_Q) -> (v_1, v_2+1, ..., v_Q+Q-1)
    def _break_rank(self, levels: tuple) -> int:
        strict = tuple(v + i for i, v in enumerate(levels))
        return _comb_rank(strict, self.break_levels + self.n_breaks - 1, self.n_breaks)

    def _break_unrank(self, rank: int) -> tuple:
        strict = _comb_unrank(rank, self.break_levels + self.n_breaks - 1, self.n_breaks)
        return tuple(v - i for i, v in enumerate(strict))

    def decode(self, index: int) -> PiecewisePolynomial:
        break_rank, coef_index = divmod(self._index(index), self.coef_space)
        levels = self._break_unrank(break_rank)
        digits = np.empty(self.n_coef, dtype=np.int64)
        rem = coef_index
        for i in range(self.n_coef - 1, -1, -1):
            rem, d = divmod(rem, self.coef_levels)
            digits[i] = d
        coeffs = self._coef_value(digits).reshape(self.n_breaks + 1, self.degree + 1)
        return PiecewisePolynomial(self._break_value(np.asarray(levels)), coeffs)

    def encode(self, f: PiecewisePolynomial) -> int:
        """Snap breakpoints, project per piece, quantize coefficients.

        Accepts class members; functions over the amplitude bound are still
        accepted when they are exact codewords (possible for degree >= 1,
        where quantized polynomials may overshoot the amplitude slightly).
        """
        if not isinstance(f, PiecewisePolynomial):
            raise DomainError("ppoly codec encodes PiecewisePolynomial signals")
        if f.degree > self.degree:
            raise DomainError(f"degree {f.degree} exceeds codec degree {self.degree}")
        if f.breakpoints.size > self.n_breaks:
            raise DomainError(
                f"{f.breakpoints.size} breakpoints exceed codec budget {self.n_breaks}"
            )
        sup = f.sup_norm()
        if sup > self.amp * (1 + 1e-9):
            index = self._encode_raw(f)
            if f.l2_distance(self.decode(index)) <= 1e-9:
                return index
            raise DomainError(f"sup|f| = {sup} exceeds amplitude bound {self.amp}")
        return self._encode_raw(f)

    def _encode_raw(self, f: PiecewisePolynomial) -> int:
        snapped = sorted(self._snap_break(v) for v in f.breakpoints)
        pad = snapped[-1] if snapped else self.break_levels - 1
        snapped = tuple(snapped + [pad] * (self.n_breaks - len(snapped)))
        edges = np.concatenate(
            ([0.0], self._break_value(np.asarray(snapped, dtype=float)), [1.0]))
        digits = np.empty(self.n_coef, dtype=np.int64)
        for j in range(self.n_breaks + 1):
            a, b = edges[j], edges[j + 1]
            if b > a:
                coefs = f.project_onto_interval(a, b, self.degree)
            else:
                coefs = np.zeros(self.degree + 1)
            digits[j * (self.degree + 1):(j + 1) * (self.degree + 1)] = (
                self._quantize_coef(coefs)
            )
        coef_index = 0
        for d in digits:
            coef_index = coef_index * self.coef_levels + int(d)
        return self._break_rank(snapped) * self.coef_space + coef_index

    @functools.cached_property
    def break_layouts(self) -> np.ndarray:
        """Read-only table of breakpoint values, shape (n_break_combos, n_breaks).

        Row r is the piece layout shared by the codewords in the contiguous
        index range [r * coef_space, (r + 1) * coef_space), which lets the
        analog scan vectorize over coefficients.  Built on first use and kept
        for the codec's lifetime, never in __init__: rate-only codecs built
        without a cap can have astronomically many layouts.  The rows are the
        nondecreasing level tuples in rank order, the order of
        itertools.combinations_with_replacement.
        """
        levels = np.array(list(combinations_with_replacement(range(self.break_levels),
                                                             self.n_breaks)), dtype=np.int64)
        table = self._break_value(levels)
        table.flags.writeable = False
        return table

    def coef_block(self, offset: int, count: int) -> np.ndarray:
        """Coefficients (count, n_coef) of the codewords [offset, offset +
        count) of every breakpoint layout: the scan's coefficient rows."""
        idx = np.arange(offset, offset + count, dtype=np.int64)
        return self._coef_value(_digit_rows(idx, self.coef_levels, self.n_coef))

    def _audit_distortion(self) -> float:
        """Measured worst encode/decode L2 error over ties-to-the-quantizer
        probes and sampled class members."""
        # constants at coefficient-cell edges (worst case for bc); all three
        # lie within +-amp, since coef_step <= amp
        probes = [constant_function(v)
                  for v in (self.amp, -self.amp, self.coef_step * 0.5)]
        if self.n_breaks:
            # amplitude flips exactly at snapping-cell edges (worst case for bt)
            edge = 1.0 / self.break_levels
            breaks = np.sort(
                np.clip(edge * np.arange(1, self.n_breaks + 1) * 2.0, edge, 1.0 - edge)
            )
            probes.append(piecewise_constant(
                breaks, [(-1.0) ** j * self.amp for j in range(self.n_breaks + 1)]))
        gen = derive_stream(_CALIBRATION_SEED, self.degree * 1000 + self.n_breaks)
        probes += [self.sample_member(gen) for _ in range(_AUDIT_SAMPLES)]
        return max(f.l2_distance(self.decode(self.encode(f))) for f in probes)

    def sample_member(self, gen: np.random.Generator) -> PiecewisePolynomial:
        """Random class member: uniform sorted breakpoints, and per piece a
        random polynomial rescaled so its sup-norm is a uniform fraction of
        the amplitude bound."""
        q = int(gen.integers(0, self.n_breaks + 1))
        if q:
            breaks = np.sort(gen.uniform(0.0, 1.0, size=q))
            breaks = breaks[(breaks > 0) & (breaks < 1)]
        else:
            breaks = np.empty(0)
        edges = np.concatenate(([0.0], breaks, [1.0]))
        coeffs = np.zeros((breaks.size + 1, self.degree + 1))
        for j in range(breaks.size + 1):
            a, b = edges[j], edges[j + 1]
            if b <= a:
                continue
            raw = gen.standard_normal(self.degree + 1)
            t = np.linspace(a, b, 129)
            phi = orthonormal_basis_matrix(a, b, self.degree, t)
            sup = float(np.max(np.abs(raw @ phi)))
            if sup == 0.0:
                continue
            coeffs[j] = raw * (self.amp * gen.uniform(0.0, 1.0) / sup)
        return PiecewisePolynomial(breaks, coeffs)


# class -> (codec, the descriptor keys it requires, defaults of the others
# that its constructor lacks)
_CODEC_CLASSES = {
    "grid": (GridCodec, {"n", "rho", "delta"}, {}),
    "sparse": (SparseCodec, {"n", "k", "rho", "delta"}, {}),
    "ppoly": (PiecewisePolyCodec, {"rho", "delta"}, {"N": 0, "Q": 0}),
}


def codec_from_config(cfg: dict) -> Codec:
    """Build a codec from its JSON descriptor; unknown or missing keys are
    rejected.  Each key is the constructor argument its class's _descriptor
    names.

    ppoly descriptors reuse "rho" for the amplitude bound and "n" for the
    time-grid resolution.
    """
    kind = cfg.get("class")
    if kind not in _CODEC_CLASSES:
        raise ValueError(f"unknown codec class {kind!r}")
    cls, required, defaults = _CODEC_CLASSES[kind]
    args = {**defaults, **cfg}
    del args["class"]
    _refuse_unknown(args, cls._descriptor, "codec config")
    missing = required - set(args)
    if missing:
        raise ValueError(f"{kind} codec config lacks keys: {sorted(missing)}")
    return cls(**{cls._descriptor[key]: value for key, value in args.items()})


def rd_profile(descriptor: dict, delta_list) -> list:
    """Rate-distortion profile of a codec family over a list of distortions.

    For each delta the codec of the descriptor at that delta is built and
    (delta, rate_bits, rate/log2(1/delta)) recorded.  Its cap is the
    descriptor's "cap", and no enumeration cap when that is absent, since
    only the rate is read.  A CapacityError (or GridResolutionError) for one
    point marks that point with nan fields and the error as its reason
    instead of failing the profile.
    """
    deltas = [_number("delta", d) for d in delta_list]
    if not deltas or any(d <= 0 for d in deltas):
        raise ValueError("delta_list must be nonempty and positive")
    points = []
    for d in deltas:
        try:
            codec = codec_from_config({"cap": None, **descriptor, "delta": d})
        except (CapacityError, GridResolutionError) as exc:
            points.append(RateDistortionPoint(d, math.nan, math.nan,
                                              f"{type(exc).__name__}: {exc}"))
            continue
        alpha = codec.rate_bits / math.log2(1.0 / d) if d < 1.0 else math.nan
        points.append(RateDistortionPoint(d, codec.rate_bits, alpha))
    return points


def entropy_lower_bound(n: int, delta: float) -> float:
    """Volume-packing lower bound n*log2(1/delta) on the rate of any code
    with distortion delta on the unit ball; 0 (vacuous) for delta >= 1."""
    if delta <= 0:
        raise ValueError(f"delta={delta}; need delta > 0")
    if delta >= 1.0:
        return 0.0
    return n * math.log2(1.0 / delta)
