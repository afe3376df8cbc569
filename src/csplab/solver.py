"""Compressible signal pursuit: exhaustive residual minimization.

The recovery rule is argmin over all codewords c of ||y - A c||_2^2, with
ties broken by the smallest codeword index.  One tiled scan implements it:
the codebook is a run of equal-size groups of codewords, each sharing one
linear operator (one support for sparse and grid codecs, one breakpoint
layout for piecewise polynomials, the whole codebook for an explicit one).
Every group is cut into the same fixed grid of _BLOCK-row blocks (one block
when it fits), whose coefficient rows are built once per scan; groups that
fit in one block are scanned many to a tile of at most _BLOCK rows.  The
tile minima are reduced once by (residual, index), so the smallest index
wins a tie whatever order the tiles are visited in.  The three solvers are
front ends that differ only in their plan (the groups, their operators and
coefficient rows) and their residual kernel.  No codeword is decoded to scan
it: memory stays at one block of coefficient rows, one tile of operators and
one buffer of measurements, allocated once per scan and reused by every
tile, beside the analog operators and one minimum per tile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .codecs import Codec, PiecewisePolyCodec, SparseCodec
from .measurement import MeasurementEnsemble, WienerEnsemble
from .piecewise import PiecewisePolynomial, orthonormal_basis_matrix

# rows per block of the scan grid and most rows per tile; part of the output,
# see _scan
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


@dataclass
class PanelResult:
    """Outcome of one panel scan, one row per signal: chosen_index (p,),
    reconstruction (p, n), residual (p,) and error_l2 (p,), or None when no
    truths are given; candidates_scanned equals the codebook size."""

    chosen_index: np.ndarray
    reconstruction: np.ndarray
    residual: np.ndarray
    error_l2: np.ndarray | None
    candidates_scanned: int
    wall_time: float


def _check(ys: np.ndarray, ensemble, codec, analog: bool = False,
           truths=None) -> None:
    """Validate a scan of codec against ensemble for (p, d) measurements
    and, if given, (p, n) ground truths."""
    kind = WienerEnsemble if analog else MeasurementEnsemble
    if not isinstance(ensemble, kind):
        raise ValueError(f"needs a {kind.__name__}, got a {type(ensemble).__name__}")
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
    if truths is not None and truths.shape != (len(ys), ensemble.n):
        raise ValueError(f"ground truths have shape {truths.shape}; "
                         f"expected ({len(ys)}, {ensemble.n})")


def _scan(ops, n_groups: int, size: int, coefs, kernel, p: int):
    """The one tiled scan behind every solver.

    Group g is the codewords [g * size, (g + 1) * size), whose measurements
    are coefs(offset, count) @ B_g for offsets inside the group.
    ops(g, count) returns the operators B of the groups from g up to
    g + count (fewer at the end) as one (count, rows of B, d) stack, and
    kernel maps measurements R (count, d) to squared residuals (count, p)
    against the p signals.  Every tile's R is a prefix of one buffer
    allocated per scan, sized by the first tile, which is the largest; the
    scan reads R no more once the kernel returns, so the kernel may
    overwrite it.  A kernel may also return its squares in memory that its
    next call overwrites, so the scan reads and copies each tile's minima
    (sq[j, cols]) before it takes the next tile.

    Every group is cut into the same grid of _BLOCK-row blocks, one block
    when size <= _BLOCK.  The outer loop walks that grid and builds each
    block's coefficient rows once per scan; the inner loop walks the groups
    _BLOCK // size to a tile (one when size > _BLOCK): one stacked product of
    the block's rows with the tile's operators, one kernel call on its rows
    and one first-occurrence argmin, which is the tile's smallest index at
    its minimum.  The tile minima are reduced once, by (residual, index):
    the minimum per signal, and the smallest index among the tiles that
    reach it, so the order in which tiles are visited cannot pick the
    index.  Returns the minimum squared residual and its codeword index per
    signal; a minimum that is not finite is a ValueError.

    Tiling moves no bits: numpy's matmul runs one gemm per stacked slice,
    the same (rows x n) @ (n x d) call as the group's own product, into the
    reused buffer as into a fresh array, and the kernel works row by row.
    The fixed grid of a large group is part of the output: BLAS can round a
    row of coefs @ B differently with its block's row count, so another
    grid could move residuals in the last bits, and the argmin at ties.
    """
    step = max(1, _BLOCK // size)
    cols = np.arange(p)
    mins, at = [], []
    buf = None
    for offset in range(0, size, _BLOCK):
        rows = coefs(offset, min(_BLOCK, size - offset))
        for g in range(0, n_groups, step):
            B = ops(g, step)
            shape = (len(B), len(rows), B.shape[-1])
            if buf is None:    # the first tile is the largest
                buf = np.empty(np.prod(shape))
            R = np.matmul(rows, B, out=buf[:np.prod(shape)].reshape(shape))
            sq = kernel(R.reshape(-1, shape[-1]))
            j = sq.argmin(axis=0)    # first occurrence per signal
            mins.append(sq[j, cols])
            # row j of the tile is codeword g * size + offset + j, whether
            # the tile holds many groups (offset 0) or one block of one group
            at.append(j + (g * size + offset))
    mins, at = np.array(mins), np.array(at)
    best = mins.min(axis=0)
    # a nan minimum matches no tile, so no index could be returned for it
    if not np.isfinite(best).all():
        raise ValueError("minimum residual is not finite: the products or "
                         "residuals overflow, or the ensemble was changed to "
                         "hold nan or inf entries")
    return best, np.where(mins == best, at, np.iinfo(np.int64).max).min(axis=0)


def _result(codec, sq, idx, t0, truth, distance) -> RecoveryResult:
    """The RecoveryResult of a one-signal scan; distance(recon, truth) is
    its error_l2 when a truth is given."""
    i = int(idx[0])
    recon = codec.decode(i)
    return RecoveryResult(
        chosen_index=i, reconstruction=recon, residual=float(np.sqrt(sq[0])),
        error_l2=None if truth is None else distance(recon, truth),
        candidates_scanned=codec.size, wall_time=time.perf_counter() - t0,
    )


def _finite_plan(ensemble: MeasurementEnsemble, codec: Codec):
    """(ops, n_groups, size, coefs) of _scan for a finite-dimensional codec.

    A sparse or grid codec has one group per support S, in rank order: its
    grid_size codewords share the operator A[:, S]^T, gathered per tile from
    the codec's support table, and their coefficient rows are the codec's
    level rows, so the scan multiplies only the k support columns.  Any other
    codec is one group whose coefficient rows are its codewords, each block
    read with decode_many, times the transposed matrix, a view: a contiguous
    copy would round one-row (gemv) products differently."""
    At = ensemble.matrix.T
    if isinstance(codec, SparseCodec):
        return (lambda g, count: At[codec.supports[g:g + count]], codec.n_supports,
                codec.grid_size, codec.level_block)
    return (lambda g, count: At[None], 1, codec.size,
            lambda start, count: codec.decode_many(np.arange(start, start + count)))


def _l2(recon, truth) -> float:
    return float(np.linalg.norm(recon - truth))


def _row_norms(D: np.ndarray) -> np.ndarray:
    """||D[i]||_2 of every row of D (p, n), each with np.linalg.norm's bits:
    the stacked (1 x n) @ (n x 1) products are one BLAS dot per row, the
    call norm makes (einsum's sums round differently)."""
    return np.sqrt(np.matmul(D[:, None, :], D[:, :, None]).reshape(len(D)))


def _direct(y):
    """Kernel ||R - y||^2 for one signal, as a (count, 1) column, for one
    scan.  Its first call, on the scan's largest tile, tiles y to that
    tile's row count and allocates one output of as many rows; every call
    then subtracts a prefix of the tiled y in one contiguous pass, writing
    the residuals R - y over R, which _scan allows, and returns a prefix of
    that output, which the next call overwrites (_scan reads it first).
    Subtraction is elementwise and the einsum sums each row as it would
    into a fresh array, so the bits are those of R - y and its row sums."""
    Y = out = None

    def kernel(R):
        nonlocal Y, out
        if Y is None:
            Y, out = np.tile(y, (len(R), 1)), np.empty(len(R))
        np.subtract(R, Y[:len(R)], out=R)
        return np.einsum("ij,ij->i", R, R, out=out[:len(R)])[:, None]
    return kernel


def csp_recover(y, ensemble: MeasurementEnsemble, codec: Codec,
                truth=None) -> RecoveryResult:
    """Recover a finite-dimensional signal from y = A x (+ noise).

    Scans every codeword, computing ||y - A c||_2^2 group by group, and
    returns the global minimizer (smallest index on ties).  The scan never
    inspects the signal itself: measurements of signals outside the codec's
    class still get the global residual minimizer, though the error
    guarantees only cover class members.  truth, if given, has shape (n,).
    """
    t0 = time.perf_counter()
    ys = np.asarray(y, dtype=float)[None]
    truths = None if truth is None else np.asarray(truth, dtype=float)[None]
    _check(ys, ensemble, codec, truths=truths)
    sq, idx = _scan(*_finite_plan(ensemble, codec), _direct(ys[0]), 1)
    return _result(codec, sq, idx, t0, None if truths is None else truths[0], _l2)


def csp_recover_panel(ys, ensemble: MeasurementEnsemble, codec: Codec,
                      truths=None) -> PanelResult:
    """Recover a panel of signals against one shared ensemble in one pass.

    The codebook is measured once per tile for the whole panel, which is
    what the uniform-guarantee (one matrix, all signals) experiments need.
    ys has shape (p, d); truths, if given, (p, n).  The result holds one
    array row per signal: the chosen codewords are decoded in one call of
    the codec's decode_many and their errors are computed by _row_norms, so
    each row has the bits of decode and of np.linalg.norm.

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
    truths = None if truths is None else np.asarray(truths, dtype=float)
    _check(ys, ensemble, codec, truths=truths)
    yn = np.einsum("ij,ij->i", ys, ys)

    def expanded(R):
        rn = np.einsum("ij,ij->i", R, R)
        return np.maximum(rn[:, None] + yn[None, :] - 2.0 * (R @ ys.T), 0.0)

    sq, idx = _scan(*_finite_plan(ensemble, codec), expanded, len(ys))
    recon = codec.decode_many(idx)
    return PanelResult(
        chosen_index=idx, reconstruction=recon, residual=np.sqrt(sq),
        error_l2=None if truths is None else _row_norms(recon - truths),
        candidates_scanned=codec.size, wall_time=time.perf_counter() - t0,
    )


def _analog_operators(codec: PiecewisePolyCodec, layouts: np.ndarray,
                      times: np.ndarray, inc_t: np.ndarray) -> np.ndarray:
    """Operators (n_layouts, n_coef, d), one matrix B per row of layouts
    (n_layouts, n_breaks), with y_c = coeffs @ B for every codeword whose
    pieces are split at that row's breakpoints: B rows are the stochastic
    integrals of the basis functions of each (piece, degree) slot.

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
    ops = np.zeros((n, codec.n_coef, d))
    for B, e, c in zip(ops, edges.tolist(), cuts.tolist()):
        for j in range(codec.n_breaks + 1):
            lo, hi = c[j], c[j + 1]
            if hi <= lo:
                continue
            phi = orthonormal_basis_matrix(e[j], e[j + 1], deg, times[lo:hi])
            B[j * (deg + 1):(j + 1) * (deg + 1)] = phi @ inc_t[lo:hi]
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
    which would change reported residuals.  The coefficient grid is the
    same for every group, so each block of it is built once per scan, and
    the groups are scanned a tile of at most _BLOCK rows at a time, so
    memory stays at O(block * (n_coef + d)) beside the operators.
    """
    t0 = time.perf_counter()
    ys = np.asarray(y, dtype=float)[None]
    _check(ys, ensemble, codec, analog=True)
    inc_t = np.ascontiguousarray(ensemble.increments.T)
    # operators are built before the scan starts: built between its blocks
    # they cost the analog-groups benchmark about 4% more time per trial
    ops = _analog_operators(codec, codec.break_layouts, ensemble.times, inc_t)
    sq, idx = _scan(lambda g, count: ops[g:g + count], len(ops), codec.coef_space,
                    codec.coef_block, _direct(ys[0]), 1)
    return _result(codec, sq, idx, t0, truth, lambda recon, f: f.l2_distance(recon))
