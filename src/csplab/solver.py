"""Compressible signal pursuit: exhaustive residual minimization.

The recovery rule is argmin over all codewords c of ||y - A c||_2^2, with
ties broken by the smallest codeword index.  The codebook is scanned in a
canonical grid of fixed-size blocks; per-block minima are folded in block
order, so the result is bit-identical no matter how many worker threads
process the blocks.  Codewords are decoded blockwise and never materialized
beyond one block (plus the codec's own small-codebook cache), keeping memory
at O(block * n + d).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codecs import CapacityError, Codec, PiecewisePolyCodec
from .measurement import MeasurementEnsemble, WienerEnsemble
from .piecewise import PiecewisePolynomial, orthonormal_basis_matrix

DEFAULT_BLOCK = 4096
EXACT_RECOVERY_TOL = 1e-9  # "error 0" means l2 error at or below this


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


def _check_capacity(codec: Codec):
    if codec.cap is not None and codec.size > codec.cap:
        raise CapacityError(codec.size, codec.cap, "csp scan")


def _fold_blocks(block_results):
    """Ordered (residual^2, index) fold; strict < keeps the earliest index."""
    best_sq, best_idx = np.inf, -1
    for sq, idx in block_results:
        if sq < best_sq:
            best_sq, best_idx = sq, idx
    return best_sq, best_idx


def _run_blocks(fn, blocks, threads: int):
    if threads <= 1:
        return [fn(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, blocks))


def csp_recover(y, ensemble: MeasurementEnsemble, codec: Codec, truth=None,
                block_size: int = DEFAULT_BLOCK, threads: int = 1) -> RecoveryResult:
    """Recover a finite-dimensional signal from y = A x (+ noise).

    Scans every codeword, computing ||y - A c||_2^2 fused with the blockwise
    decode, and returns the global minimizer (smallest index on ties).  The
    scan never inspects the signal itself: measurements of signals outside
    the codec's class still get the global residual minimizer, though the
    error guarantees only cover class members.
    """
    t0 = time.perf_counter()
    y = np.asarray(y, dtype=float)
    if ensemble.d < 1:
        raise ValueError("need at least one measurement")
    if y.shape != (ensemble.d,):
        raise ValueError(f"y has shape {y.shape}; ensemble d={ensemble.d}")
    if getattr(codec, "n", None) != ensemble.n:
        raise ValueError(
            f"codec dimension {getattr(codec, 'n', None)} != ensemble n={ensemble.n}"
        )
    _check_capacity(codec)
    At = ensemble.matrix.T

    def block_min(block):
        start, count = block
        cw = codec.decode_block(start, count)
        resid = cw @ At - y
        sq = np.einsum("ij,ij->i", resid, resid)
        j = int(np.argmin(sq))
        return float(sq[j]), start + j

    results = _run_blocks(block_min, list(codec.scan_blocks(block_size)), threads)
    best_sq, best_idx = _fold_blocks(results)
    recon = codec.decode(best_idx)
    err = float(np.linalg.norm(recon - np.asarray(truth, dtype=float))) \
        if truth is not None else None
    return RecoveryResult(
        chosen_index=best_idx, reconstruction=recon,
        residual=float(np.sqrt(max(best_sq, 0.0))), error_l2=err,
        candidates_scanned=codec.size, wall_time=time.perf_counter() - t0,
    )


def csp_recover_panel(ys, ensemble: MeasurementEnsemble, codec: Codec,
                      truths=None, block_size: int = DEFAULT_BLOCK,
                      threads: int = 1) -> list[RecoveryResult]:
    """Recover a panel of signals against one shared ensemble in one pass.

    Semantically identical to calling csp_recover per row of ys, but the
    codebook is decoded and measured once per block for the whole panel,
    which is what the uniform-guarantee (one matrix, all signals) experiments
    need.  ys has shape (p, d); truths, if given, (p, n).
    """
    t0 = time.perf_counter()
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    p = ys.shape[0]
    if ys.shape[1] != ensemble.d:
        raise ValueError(f"panel measurements have {ys.shape[1]} columns; d={ensemble.d}")
    if getattr(codec, "n", None) != ensemble.n:
        raise ValueError(
            f"codec dimension {getattr(codec, 'n', None)} != ensemble n={ensemble.n}"
        )
    _check_capacity(codec)
    At = ensemble.matrix.T
    yn = np.einsum("ij,ij->i", ys, ys)

    def block_min(block):
        start, count = block
        cw = codec.decode_block(start, count)
        R = cw @ At                        # (count, d)
        rn = np.einsum("ij,ij->i", R, R)
        sq = np.maximum(rn[:, None] + yn[None, :] - 2.0 * (R @ ys.T), 0.0)
        j = np.argmin(sq, axis=0)          # first occurrence per signal
        return sq[j, np.arange(p)], start + j

    results = _run_blocks(block_min, list(codec.scan_blocks(block_size)), threads)
    best_sq = np.full(p, np.inf)
    best_idx = np.full(p, -1, dtype=np.int64)
    for sq, idx in results:
        better = sq < best_sq
        best_sq[better] = sq[better]
        best_idx[better] = idx[better]
    wall = time.perf_counter() - t0
    out = []
    for s in range(p):
        recon = codec.decode(int(best_idx[s]))
        err = float(np.linalg.norm(recon - truths[s])) if truths is not None else None
        out.append(RecoveryResult(
            chosen_index=int(best_idx[s]), reconstruction=recon,
            residual=float(np.sqrt(best_sq[s])), error_l2=err,
            candidates_scanned=codec.size, wall_time=wall,
        ))
    return out


def _analog_group_operator(codec: PiecewisePolyCodec, breakpoints: np.ndarray,
                           times: np.ndarray, inc_t: np.ndarray) -> np.ndarray:
    """Matrix B (n_coef, d) with y_c = coeffs @ B for every codeword whose
    piece layout is given by `breakpoints`: B rows are the stochastic
    integrals of the basis functions of each (piece, degree) slot.

    times is the sorted grid of left endpoints and inc_t the (m, d)
    C-contiguous transpose of the ensemble's increments, so piece j covers
    the contiguous cells [cuts[j], cuts[j+1]) and its integrals are one
    product with a row slice of inc_t."""
    m, d = inc_t.shape
    edges = np.concatenate(([0.0], breakpoints, [1.0]))
    cuts = np.concatenate(([0], np.searchsorted(times, breakpoints, side="left"), [m]))
    B = np.zeros((codec.n_coef, d))
    deg = codec.degree
    for j in range(codec.n_breaks + 1):
        lo, hi = cuts[j], cuts[j + 1]
        if hi <= lo:
            continue
        phi = orthonormal_basis_matrix(edges[j], edges[j + 1], deg, times[lo:hi])
        B[j * (deg + 1):(j + 1) * (deg + 1)] = phi @ inc_t[lo:hi]
    return B


def csp_recover_analog(y, ensemble: WienerEnsemble, codec: PiecewisePolyCodec,
                       truth: PiecewisePolynomial | None = None,
                       block_size: int = DEFAULT_BLOCK,
                       threads: int = 1) -> RecoveryResult:
    """Recover a function from stochastic-integral measurements.

    Same optimality and tie-break contract as csp_recover, with residuals
    computed through the ensemble's left-point integral sums.  The codec's
    time grid must match the ensemble's so signal and codewords are measured
    identically.

    The increments are transposed once per scan into a C-contiguous (m, d)
    array.  The grid times are sorted, so each piece of a breakpoint layout
    covers a contiguous run of cells and its operator rows are one product
    with a row slice of that transpose.  Row slices reproduce the bits of a
    masked copy of increments[:, cells]; column slices of the increments
    (views or copies) take another BLAS path and can differ in the last bits,
    which would change reported residuals.  When a group fits in one block
    the coefficient grid, the same for every group, is built once per scan,
    so memory stays at O(block * n_coef).
    """
    t0 = time.perf_counter()
    y = np.asarray(y, dtype=float)
    if ensemble.d < 1:
        raise ValueError("need at least one measurement path")
    if y.shape != (ensemble.d,):
        raise ValueError(f"y has shape {y.shape}; ensemble d={ensemble.d}")
    if not isinstance(codec, PiecewisePolyCodec):
        raise ValueError("analog recovery needs a piecewise-polynomial codec")
    if codec.grid != ensemble.m:
        raise ValueError(
            f"grid mismatch: codec grid {codec.grid}, ensemble m={ensemble.m}"
        )
    _check_capacity(codec)

    # canonical block grid: groups (fixed by the codec) split into sub-blocks
    blocks = []
    for group_start, breakpoints in codec.iter_break_groups():
        offset = 0
        while offset < codec.coef_space:
            count = min(block_size, codec.coef_space - offset)
            blocks.append((group_start, breakpoints, offset, count))
            offset += count

    times = ensemble.times
    inc_t = np.ascontiguousarray(ensemble.increments.T)
    # every group scans the same coefficient grid; when a group is one block
    # that grid is built once for the whole scan
    shared_coefs = codec.coef_block(0, codec.coef_space) \
        if codec.coef_space <= block_size else None
    operators = {}

    def block_min(block):
        group_start, breakpoints, offset, count = block
        B = operators.get(group_start)
        if B is None:
            B = _analog_group_operator(codec, breakpoints, times, inc_t)
            operators[group_start] = B
        coefs = shared_coefs if shared_coefs is not None \
            else codec.coef_block(offset, count)
        resid = coefs @ B - y
        sq = np.einsum("ij,ij->i", resid, resid)
        j = int(np.argmin(sq))
        return float(sq[j]), group_start + offset + j

    # group operators are cached per scan; precompute them serially so the
    # threaded path stays race-free and deterministic
    if threads > 1:
        for group_start, breakpoints in codec.iter_break_groups():
            operators[group_start] = _analog_group_operator(
                codec, breakpoints, times, inc_t)
    results = _run_blocks(block_min, blocks, threads)
    best_sq, best_idx = _fold_blocks(results)
    recon = codec.decode(best_idx)
    err = truth.l2_distance(recon) if truth is not None else None
    return RecoveryResult(
        chosen_index=best_idx, reconstruction=recon,
        residual=float(np.sqrt(max(best_sq, 0.0))), error_l2=err,
        candidates_scanned=codec.size, wall_time=time.perf_counter() - t0,
    )
