"""Compressible signal pursuit: exhaustive residual minimization.

The recovery rule is argmin over all codewords c of ||y - A c||_2^2, with
ties broken by the smallest codeword index.  One grouped scan implements it:
the codebook is a run of groups of codewords sharing one linear operator (the
whole codebook for finite-dimensional codecs, one breakpoint layout for
piecewise polynomials), cut into a canonical grid of fixed-size blocks whose
minima are folded serially, in block order, into a running incumbent.  The
three solvers are front ends that choose the groups and the residual kernel.
Codewords are decoded blockwise and never materialized beyond one block (plus
the codec's own small-codebook cache), keeping memory at O(block * n + d).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .codecs import Codec, PiecewisePolyCodec
from .measurement import MeasurementEnsemble, WienerEnsemble
from .piecewise import PiecewisePolynomial, orthonormal_basis_matrix

# rows per block of the scan grid; part of the output, see _scan
_BLOCK = 4096


@dataclass
class RecoveryResult:
    """Outcome of one exhaustive scan.

    residual is ||y - A c||_2 at the chosen codeword and is a global minimum
    over the codebook; error_l2 is the distance to the supplied ground truth
    (None when no truth is given); candidates_scanned equals the codebook
    size.
    """

    chosen_index: int
    reconstruction: object
    residual: float
    error_l2: float | None
    candidates_scanned: int
    wall_time: float


def _check(ys: np.ndarray, ensemble, codec, analog: bool = False) -> None:
    """Validate a scan of codec against ensemble for (p, d) measurements."""
    if ensemble.d < 1:
        raise ValueError("need at least one measurement")
    if ys.ndim != 2 or ys.shape[1] != ensemble.d:
        raise ValueError(f"measurements have shape {ys.shape[1:]}; ensemble d={ensemble.d}")
    # a non-finite residual could never win the fold; refuse it up front
    if not np.isfinite(ys).all():
        raise ValueError("measurements must be finite")
    if analog:
        if not isinstance(codec, PiecewisePolyCodec):
            raise ValueError("analog recovery needs a piecewise-polynomial codec")
        if codec.grid != ensemble.m:
            raise ValueError(
                f"grid mismatch: codec grid {codec.grid}, ensemble m={ensemble.m}")
    elif getattr(codec, "n", None) != ensemble.n:
        raise ValueError(
            f"codec dimension {getattr(codec, 'n', None)} != ensemble n={ensemble.n}")
    codec._check_cap("csp scan")


def _scan(groups, coefs, kernel, p: int):
    """The one grouped scan behind every solver.

    groups yields (start, size, B): codewords [start, start + size) whose
    measurements are coefs(offset, count) @ B for offsets inside the group.
    Each group is cut into the canonical block grid of _BLOCK rows, fixed by
    the groups alone, and kernel maps a block's measurements R (count, d) to
    squared residuals (count, p) against the p signals.  Blocks are folded in
    index order into a running minimum; the comparison is strict, so the
    earlier block keeps a tie.  Returns the minimum squared residual and its
    codeword index per signal, smallest index on ties.  The fixed grid is
    part of the output: BLAS can round a row of coefs @ B differently with
    its block's row count, so another grid could move residuals in the last
    bits, and the argmin at ties.
    """
    best = np.full(p, np.inf)
    at = np.zeros(p, dtype=np.int64)
    cols = np.arange(p)
    for start, size, B in groups:
        for offset in range(0, size, _BLOCK):
            sq = kernel(coefs(offset, min(_BLOCK, size - offset)) @ B)
            j = sq.argmin(axis=0)    # first occurrence per signal
            m = sq[j, cols]
            better = m < best
            best[better] = m[better]
            at[better] = start + offset + j[better]
    return best, at


def _results(codec, sq, idx, t0, truths, error) -> list[RecoveryResult]:
    wall = time.perf_counter() - t0
    out = []
    for s, (i, r) in enumerate(zip(idx.tolist(), np.sqrt(sq).tolist())):
        recon = codec.decode(i)
        out.append(RecoveryResult(
            chosen_index=i, reconstruction=recon, residual=r,
            error_l2=error(recon, truths[s]) if truths is not None else None,
            candidates_scanned=codec.size, wall_time=wall,
        ))
    return out


def _l2(recon, truth) -> float:
    return float(np.linalg.norm(recon - truth))


def _direct(y):
    """Kernel ||R - y||^2 for one signal, as a (count, 1) column."""
    def kernel(R):
        resid = R - y
        return np.einsum("ij,ij->i", resid, resid)[:, None]
    return kernel


def csp_recover(y, ensemble: MeasurementEnsemble, codec: Codec,
                truth=None) -> RecoveryResult:
    """Recover a finite-dimensional signal from y = A x (+ noise).

    Scans every codeword, computing ||y - A c||_2^2 fused with the blockwise
    decode, and returns the global minimizer (smallest index on ties).  The
    scan never inspects the signal itself: measurements of signals outside
    the codec's class still get the global residual minimizer, though the
    error guarantees only cover class members.
    """
    t0 = time.perf_counter()
    ys = np.asarray(y, dtype=float)[None]
    _check(ys, ensemble, codec)
    sq, idx = _scan([(0, codec.size, ensemble.matrix.T)], codec.decode_block,
                    _direct(ys[0]), 1)
    truths = None if truth is None else [np.asarray(truth, dtype=float)]
    return _results(codec, sq, idx, t0, truths, _l2)[0]


def csp_recover_panel(ys, ensemble: MeasurementEnsemble, codec: Codec,
                      truths=None) -> list[RecoveryResult]:
    """Recover a panel of signals against one shared ensemble in one pass.

    The codebook is decoded and measured once per block for the whole panel,
    which is what the uniform-guarantee (one matrix, all signals) experiments
    need.  ys has shape (p, d); truths, if given, (p, n).

    Residuals come from the expanded form ||R c||^2 + ||y||^2 - 2<R c, y>
    (clipped at 0), which rounds differently from csp_recover's direct
    ||y - R c||^2.  Each signal gets the same argmin as csp_recover except
    where residuals tie within that rounding: at exact ties, such as
    cell-corner stress points, the panel can choose another index than the
    smallest one.  The cancellation costs about half the digits: a reported
    residual can be off by about sqrt(eps) * ||y|| (a noiseless codeword
    with ||y|| about 4.2 reports 8.4e-8 where csp_recover gives about
    1e-16).  ROADMAP item 2 plans a certified re-check with the direct
    kernel.
    """
    t0 = time.perf_counter()
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    _check(ys, ensemble, codec)
    yn = np.einsum("ij,ij->i", ys, ys)

    def expanded(R):
        rn = np.einsum("ij,ij->i", R, R)
        return np.maximum(rn[:, None] + yn[None, :] - 2.0 * (R @ ys.T), 0.0)

    sq, idx = _scan([(0, codec.size, ensemble.matrix.T)], codec.decode_block,
                    expanded, len(ys))
    return _results(codec, sq, idx, t0, truths, _l2)


def _analog_operators(codec: PiecewisePolyCodec, layouts: np.ndarray,
                      times: np.ndarray, inc_t: np.ndarray) -> list[np.ndarray]:
    """One matrix B (n_coef, d) per row of layouts (n_layouts, n_breaks),
    with y_c = coeffs @ B for every codeword whose pieces are split at that
    row's breakpoints: B rows are the stochastic integrals of the basis
    functions of each (piece, degree) slot.

    times is the sorted grid of left endpoints and inc_t the (m, d)
    C-contiguous transpose of the ensemble's increments, so piece j of a
    layout covers the contiguous cells [cuts[j], cuts[j+1]) and its integrals
    are one product with a row slice of inc_t.  The cuts of every layout come
    from one searchsorted over the whole table."""
    m, d = inc_t.shape
    n = len(layouts)
    edges = np.hstack((np.zeros((n, 1)), layouts, np.ones((n, 1))))
    cuts = np.hstack((np.zeros((n, 1), dtype=np.int64),
                      np.searchsorted(times, layouts, side="left"),
                      np.full((n, 1), m)))
    deg = codec.degree
    ops = []
    for e, c in zip(edges.tolist(), cuts.tolist()):
        B = np.zeros((codec.n_coef, d))
        for j in range(codec.n_breaks + 1):
            lo, hi = c[j], c[j + 1]
            if hi <= lo:
                continue
            phi = orthonormal_basis_matrix(e[j], e[j + 1], deg, times[lo:hi])
            B[j * (deg + 1):(j + 1) * (deg + 1)] = phi @ inc_t[lo:hi]
        ops.append(B)
    return ops


def csp_recover_analog(y, ensemble: WienerEnsemble, codec: PiecewisePolyCodec,
                       truth: PiecewisePolynomial | None = None) -> RecoveryResult:
    """Recover a function from stochastic-integral measurements.

    Same optimality and tie-break contract as csp_recover, with residuals
    computed through the ensemble's left-point integral sums.  The codec's
    time grid must match the ensemble's so signal and codewords are measured
    identically.  Each row r of the codec's breakpoint layout table
    (codec.break_layouts, built once per codec) is one group of the scan,
    the codewords [r * coef_space, (r + 1) * coef_space), with the operator
    of _analog_operators.

    The increments are transposed once per scan into a C-contiguous (m, d)
    array.  The grid times are sorted, so each piece of a breakpoint layout
    covers a contiguous run of cells and its operator rows are one product
    of its basis values (row 0 a constant, see orthonormal_basis_matrix)
    with a row slice of that transpose.  Row slices reproduce the bits of a
    masked copy of increments[:, cells]; column slices of the increments
    (views or copies) take another BLAS path and can differ in the last bits,
    which would change reported residuals.  When a group fits in one block
    the coefficient grid, the same for every group, is built once per scan,
    so memory stays at O(block * n_coef).
    """
    t0 = time.perf_counter()
    ys = np.asarray(y, dtype=float)[None]
    _check(ys, ensemble, codec, analog=True)
    inc_t = np.ascontiguousarray(ensemble.increments.T)
    # operators are built before the scan starts: built between its blocks
    # they cost the analog-groups benchmark about 4% more time per trial
    ops = _analog_operators(codec, codec.break_layouts, ensemble.times, inc_t)
    groups = [(r * codec.coef_space, codec.coef_space, B) for r, B in enumerate(ops)]
    # every group scans the same coefficient grid: when a group is one block
    # the one-entry memo builds it once per scan, otherwise block by block
    coefs = functools.lru_cache(maxsize=1)(codec.coef_block)
    sq, idx = _scan(groups, coefs, _direct(ys[0]), 1)
    truths = None if truth is None else [truth]
    return _results(codec, sq, idx, t0, truths,
                    lambda recon, f: f.l2_distance(recon))[0]
