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
at most delta; decoding is the inverse enumeration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .piecewise import (PiecewisePolynomial, constant_function,
                        orthonormal_basis_matrix, piecewise_constant)
from .rng import derive_stream

DEFAULT_CAP = 2**24
_CODEBOOK_FLOATS = 2**22  # 32 MiB: larger sparse codebooks are decoded per block
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


def ceil_snap(x: float, eps: float = 1e-9) -> int:
    """Ceiling that forgives float fuzz: values within eps (relative) of an
    integer snap to it instead of being pushed up."""
    r = round(x)
    if abs(x - r) <= eps * max(1.0, abs(x)):
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
    """Inverse of _comb_rank.  Memoized: decoders unrank the same few
    supports and breakpoint layouts over and over."""
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


@dataclass
class RateDistortionPoint:
    """(distortion, rate, rate/log2(1/distortion)); nan fields mark points
    that could not be built under the requested cap."""

    delta: float
    rate_bits: float
    alpha_hat: float


class Codec:
    """Shared interface: lazy enumerable codebook + encode/decode."""

    size: int
    rate_bits: float
    delta: float
    cap: int | None

    def decode(self, index: int):
        raise NotImplementedError

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
        raise NotImplementedError


class SparseCodec(Codec):
    """Grid codewords on every size-k support: covers k-sparse ball points.

    Per support coordinate the grid takes L = 2*ceil(rho*sqrt(k)/delta)+1
    values spaced delta/sqrt(k) apart (zero included).  Index layout:
    index = support_rank * L^k + grid_index, supports in lexicographic order,
    grid digits row-major over the support in ascending coordinate order
    (level 0 at the most negative value).  The all-zero and other
    lower-sparsity codewords repeat across supports; encode always returns
    the lowest-index (lexicographically first support) occurrence.
    """

    kind = "sparse"

    def __init__(self, n: int, k: int, rho: float, delta: float,
                 cap: int | None = DEFAULT_CAP):
        if not 1 <= k <= n:
            raise ValueError(f"k={k} outside [1, n={n}]")
        if rho <= 0:
            raise ValueError(f"rho={rho}; need rho > 0")
        if not 0 < delta <= rho * math.sqrt(k):
            raise ValueError(
                f"delta={delta} outside (0, rho*sqrt(k)] = (0, {rho * math.sqrt(k)}]"
            )
        self.n = int(n)
        self.k = int(k)
        self.rho = float(rho)
        self.delta = float(delta)
        self.cap = cap
        self.steps = ceil_snap(rho * math.sqrt(k) / delta)
        self.spacing = delta / math.sqrt(k)
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
        kept = np.sort(np.abs(x))[::-1][: self.k]
        rounded = np.clip(
            np.floor(kept / self.spacing + 0.5), -self.steps, self.steps
        ) * self.spacing
        fixed_point = float(np.linalg.norm(kept - rounded)) <= 1e-9 * max(1.0, nrm)
        if not fixed_point and nrm > self.rho * (1 + 1e-9):
            raise DomainError(f"||x||_2 = {nrm} exceeds ball radius {self.rho}")
        # x has at most k nonzeros, so every coordinate off the top-k support
        # rounds to level zero.  Coordinates whose rounded value is nonzero
        # must stay; the smallest others pad the support, so it is
        # lexicographically minimal among all supports holding this codeword
        digits = self._grid_digits(x)
        stay = np.flatnonzero(digits != self.steps)
        pad = np.flatnonzero(digits == self.steps)[:self.k - stay.size]
        canon = np.sort(np.concatenate((stay, pad))).tolist()
        grid_index = 0
        for d in digits[canon]:
            grid_index = grid_index * self.levels_per_dim + int(d)
        return _comb_rank(canon, self.n, self.k) * self.grid_size + grid_index

    def decode(self, index: int) -> np.ndarray:
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside [0, {self.size})")
        return self.decode_block(int(index), 1)[0].copy()  # callers may mutate it

    def _raw_block(self, start: int, count: int) -> np.ndarray:
        block = np.zeros((count, self.n))
        pos = 0
        while pos < count:
            index = start + pos
            support_rank, grid_index = divmod(index, self.grid_size)
            in_support = min(count - pos, self.grid_size - grid_index)
            support = _comb_unrank(support_rank, self.n, self.k)
            gidx = np.arange(grid_index, grid_index + in_support, dtype=np.int64)
            digits = np.stack(
                np.unravel_index(gidx, (self.levels_per_dim,) * self.k), axis=1
            )
            block[pos:pos + in_support, support] = (digits - self.steps) * self.spacing
            pos += in_support
        return block

    @functools.cached_property
    def _codebook(self) -> np.ndarray | None:
        """The whole codebook, read-only, when it holds at most
        _CODEBOOK_FLOATS floats; None for a larger one."""
        if self.size * self.n > _CODEBOOK_FLOATS:
            return None
        book = self._raw_block(0, self.size)
        book.flags.writeable = False
        return book

    def decode_block(self, start: int, count: int) -> np.ndarray:
        if self._codebook is None:
            return self._raw_block(start, count)
        return self._codebook[start:start + count]

    def materialize(self) -> np.ndarray:
        return self.decode_block(0, self.size)

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

    def config(self) -> dict:
        return {
            "class": "sparse", "n": self.n, "k": self.k, "rho": self.rho,
            "delta": self.delta, "cap": self.cap,
        }


class GridCodec(SparseCodec):
    """Uniform product grid covering the ball B2(rho) in R^n: the sparse
    codec with k = n, whose one support makes the index the grid index.

    Per coordinate the grid takes 2*ceil(rho*sqrt(n)/delta)+1 values spaced
    delta/sqrt(n) apart (zero included), so every ball point is within
    delta/2 of a codeword.  Only the rate (n*log2(L), not log2(L^n), which
    can differ in the last bit), the ball draw and the descriptor differ.
    """

    kind = "grid"

    def __init__(self, n: int, rho: float, delta: float,
                 cap: int | None = DEFAULT_CAP):
        if n < 1:
            raise ValueError(f"n={n}; need n >= 1")
        super().__init__(n, n, rho, delta, cap=cap)
        self.rate_bits = self.n * math.log2(self.levels_per_dim)

    def sample_member(self, gen: np.random.Generator) -> np.ndarray:
        """Uniform draw from the ball, with no support draw first."""
        return self._ball_draw(gen, self.n)

    def config(self) -> dict:
        return {
            "class": "grid", "n": self.n, "rho": self.rho,
            "delta": self.delta, "cap": self.cap,
        }


class ExplicitCodec(Codec):
    """A codec wrapping a read-only copy of a list of codewords (test and
    diagnostic tool; encode is brute-force nearest codeword, first index on
    ties)."""

    kind = "explicit"

    def __init__(self, codewords):
        self._codewords = np.array(codewords, dtype=float, ndmin=2)
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
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside [0, {self.size})")
        return self._codewords[index].copy()

    def decode_block(self, start: int, count: int) -> np.ndarray:
        return self._codewords[start:start + count]

    def materialize(self) -> np.ndarray:
        return self._codewords

    def config(self) -> dict:
        return {"class": "explicit", "n": self.n, "size": self.size}


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

    def __init__(self, degree: int, n_breaks: int, amp: float, delta: float,
                 grid: int = 4096, cap: int | None = DEFAULT_CAP):
        if degree < 0 or n_breaks < 0:
            raise ValueError("degree and n_breaks must be >= 0")
        if amp <= 0:
            raise ValueError(f"amp={amp}; need amp > 0")
        if not 0 < delta < amp:
            raise ValueError(f"delta={delta} outside (0, amp={amp})")
        if grid < 2 or grid & (grid - 1):
            raise ValueError(f"grid={grid}; need a power of two >= 2")
        self.degree = int(degree)
        self.n_breaks = int(n_breaks)
        self.amp = float(amp)
        self.delta = float(delta)
        self.grid = int(grid)
        self.cap = cap
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
        if self.n_breaks and 2 ** (bt + 1) > self.grid:
            raise GridResolutionError(
                f"breakpoint quantizer needs a time grid of at least "
                f"{2 ** (bt + 1)} points; got grid={self.grid}"
            )
        self.coef_bits = bc
        self.break_bits = bt if self.n_breaks else 0
        self.coef_levels = 2**bc
        self.break_levels = 2**self.break_bits if self.n_breaks else 1
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
        if self.n_breaks == 0:
            return 0
        strict = tuple(v + i for i, v in enumerate(levels))
        return _comb_rank(strict, self.break_levels + self.n_breaks - 1, self.n_breaks)

    def _break_unrank(self, rank: int) -> tuple:
        if self.n_breaks == 0:
            return ()
        strict = _comb_unrank(rank, self.break_levels + self.n_breaks - 1, self.n_breaks)
        return tuple(v - i for i, v in enumerate(strict))

    def decode(self, index: int) -> PiecewisePolynomial:
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside [0, {self.size})")
        break_rank, coef_index = divmod(int(index), self.coef_space)
        levels = self._break_unrank(break_rank)
        digits = np.empty(self.n_coef, dtype=np.int64)
        rem = coef_index
        for i in range(self.n_coef - 1, -1, -1):
            rem, d = divmod(rem, self.coef_levels)
            digits[i] = d
        coeffs = self._coef_value(digits).reshape(self.n_breaks + 1, self.degree + 1)
        return PiecewisePolynomial(
            self._break_value(np.asarray(levels)), coeffs, amp_bound=self.amp
        )

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
        if snapped:
            pad = snapped[-1]
        else:
            pad = self.break_levels - 1
        snapped = tuple(snapped + [pad] * (self.n_breaks - len(snapped)))
        edges = np.concatenate(
            ([0.0], self._break_value(np.asarray(snapped, dtype=float)), [1.0])
        ) if self.n_breaks else np.array([0.0, 1.0])
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
        without a cap can have astronomically many layouts.
        """
        levels = np.array([self._break_unrank(r) for r in range(self.n_break_combos)],
                          dtype=np.int64).reshape(self.n_break_combos, self.n_breaks)
        table = self._break_value(levels)
        table.flags.writeable = False
        return table

    def coef_block(self, group_offset: int, count: int) -> np.ndarray:
        """Coefficient matrices for `count` codewords starting at the given
        offset inside a breakpoint group; shape (count, n_coef)."""
        idx = np.arange(group_offset, group_offset + count, dtype=np.int64)
        digits = np.stack(
            np.unravel_index(idx, (self.coef_levels,) * self.n_coef), axis=1
        )
        return self._coef_value(digits)

    def _audit_distortion(self) -> float:
        """Measured worst encode/decode L2 error over sampled class members
        plus ties-to-the-quantizer adversarial probes."""
        worst = 0.0
        for f in self._audit_members():
            err = f.l2_distance(self.decode(self.encode(f)))
            worst = max(worst, err)
        return worst

    def _audit_members(self):
        stream = derive_stream(
            _CALIBRATION_SEED, self.degree * 1000 + self.n_breaks
        )
        gen = stream.generator
        yield from self._adversarial_members()
        for _ in range(_AUDIT_SAMPLES):
            yield self.sample_member(gen)

    def _adversarial_members(self):
        # constants at coefficient-cell edges (worst case for bc)
        for v in (self.amp, -self.amp, self.coef_step * 0.5):
            yield self._constant_member(v)
        if self.n_breaks:
            # amplitude flips exactly at snapping-cell edges (worst case for bt)
            edge = 1.0 / self.break_levels
            breaks = np.sort(
                np.clip(edge * np.arange(1, self.n_breaks + 1) * 2.0, edge, 1.0 - edge)
            )
            vals = np.array([(-1.0) ** j * self.amp for j in range(self.n_breaks + 1)])
            yield self._piecewise_constant_member(breaks, vals)

    def _constant_member(self, value: float) -> PiecewisePolynomial:
        return constant_function(float(np.clip(value, -self.amp, self.amp)),
                                 amp_bound=self.amp)

    def _piecewise_constant_member(self, breaks, vals) -> PiecewisePolynomial:
        f = piecewise_constant(breaks, vals, amp_bound=self.amp)
        coeffs = np.zeros((f.n_pieces, self.degree + 1))
        coeffs[:, 0] = f.coeffs[:, 0]
        return PiecewisePolynomial(f.breakpoints, coeffs, amp_bound=self.amp)

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
        return PiecewisePolynomial(breaks, coeffs, amp_bound=self.amp)

    def config(self) -> dict:
        return {
            "class": "ppoly", "n": self.grid, "N": self.degree,
            "Q": self.n_breaks, "rho": self.amp, "delta": self.delta,
            "cap": self.cap,
        }


_CODEC_KEYS = {
    "grid": {"class", "n", "rho", "delta", "cap"},
    "sparse": {"class", "n", "k", "rho", "delta", "cap"},
    "ppoly": {"class", "n", "N", "Q", "rho", "delta", "cap"},
}


def codec_from_config(cfg: dict) -> Codec:
    """Build a codec from its JSON descriptor; unknown keys are rejected.

    ppoly descriptors reuse "rho" for the amplitude bound and "n" for the
    time-grid resolution.
    """
    kind = cfg.get("class")
    if kind not in _CODEC_KEYS:
        raise ValueError(f"unknown codec class {kind!r}")
    extra = set(cfg) - _CODEC_KEYS[kind]
    if extra:
        raise ValueError(f"unknown codec config keys: {sorted(extra)}")
    cap = cfg.get("cap", DEFAULT_CAP)
    if kind == "grid":
        return GridCodec(cfg["n"], cfg["rho"], cfg["delta"], cap=cap)
    if kind == "sparse":
        return SparseCodec(cfg["n"], cfg["k"], cfg["rho"], cfg["delta"], cap=cap)
    return PiecewisePolyCodec(
        cfg.get("N", 0), cfg.get("Q", 0), cfg["rho"], cfg["delta"],
        grid=cfg.get("n", 4096), cap=cap,
    )


def rd_profile(descriptor: dict, delta_list, cap: int | None = None) -> list:
    """Rate-distortion profile of a codec family over a list of distortions.

    For each delta the codec is built (by default with no enumeration cap,
    since only its rate is read) and (delta, rate_bits, rate/log2(1/delta))
    recorded.  A CapacityError for one point marks that point with nan fields
    instead of failing the profile.
    """
    deltas = [float(d) for d in delta_list]
    if not deltas or any(d <= 0 for d in deltas):
        raise ValueError("delta_list must be nonempty and positive")
    points = []
    for d in deltas:
        cfg = dict(descriptor)
        cfg["delta"] = d
        cfg["cap"] = cap
        try:
            codec = codec_from_config(cfg)
        except (CapacityError, GridResolutionError):
            points.append(RateDistortionPoint(d, math.nan, math.nan))
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
