"""Compressible signal pursuit: exhaustive residual minimization.

The recovery rule is the smallest codeword index at the minimum, over all
codewords c, of the computed squared residual ||y - A c||_2^2.  Computed:
where two codewords' real residuals are closer than the rounding, the
computation decides, and each front end names its own.  csp_recover takes
the direct kernel ||R - y||^2 (_direct) on the block grid's products
R = coefs @ B; csp_recover_panel the expanded kernel ||R||^2 + ||y||^2 -
2<R, y>, clipped at 0 (_expanded), on the same products; csp_recover_analog
the direct kernel on the products with the exact operators of
_analog_operators, rescanning only the layouts that its certified screen
cannot rule out.  One tiled scan implements the rule:
the codebook is a run of equal-size groups of codewords, each sharing one
linear operator (one support for sparse and grid codecs, one breakpoint
layout for piecewise polynomials, the whole codebook for an explicit one).
Every group is cut into the same fixed grid of _BLOCK-row blocks (one block
when it fits), whose coefficient rows are built once per scan; groups that
fit in one block are scanned many to a tile of at most _BLOCK rows.  The
tile minima are reduced once by (residual, index), so the smallest index
wins a tie whatever order the tiles are visited in.  The three solvers are
front ends that differ only in their plan (the groups and their operators;
every codec's coefficient rows come from its coef_block) and their residual
kernel, and each returns one RecoveryResult with a row per signal:
csp_recover is csp_recover_panel's body run on one signal with the direct
kernel.  No codeword is decoded to scan it, and every buffer of the scan is
a _workspace.

A piecewise-polynomial codec of several breakpoint layouts is screened
first: every layout's operator is built cheaply from prefix sums of the
increments, and every codeword is scored from its layout's n_coef x n_coef
Gram matrix, keeping each layout's minimum.  The scan then runs with exact
operators for only the layouts that a certified rounding margin cannot rule
out (csp_recover_analog).  The result is the exhaustive exact scan's, bit
for bit.
"""

from __future__ import annotations

import functools
import math
import mmap
import threading
import time
import weakref
from dataclasses import dataclass

import numpy as np

from .codecs import Codec, PiecewisePolyCodec, SparseCodec
from .measurement import MeasurementEnsemble, WienerEnsemble, _grid_times
from .piecewise import (PiecewisePolynomial, orthonormal_basis_matrix,
                        _sorted_distinct)

# rows per block of the scan grid and most rows per tile; part of the output,
# see _scan
_BLOCK = 4096


@dataclass
class RecoveryResult:
    """Outcome of one exhaustive scan of p signals, one row per signal.

    chosen_index (p,) holds the chosen codewords' indices, each the
    smallest index at the minimum of the front end's computed residuals
    (see the module docstring); reconstruction their codewords, a (p, n)
    array, or a list of p PiecewisePolynomials for analog recovery;
    residual (p,) is the square root of that minimum, ||y - A c||_2 as
    computed at each chosen codeword; error_l2 (p,) is the
    distance to each supplied ground truth (None when no truth is given);
    candidates_scanned equals the codebook size.
    """

    chosen_index: np.ndarray
    reconstruction: object
    residual: np.ndarray
    error_l2: np.ndarray | None
    candidates_scanned: int
    wall_time: float


def _check(ys: np.ndarray, ensemble, codec, analog: bool = False,
           truths=None) -> None:
    """Validate a scan of codec against ensemble for (p, d) measurements
    and, if given, their ground truths: a finite (p, n) array, or for analog
    recovery a sequence of p PiecewisePolynomials (finite when built)."""
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
        if truths is not None and not all(isinstance(f, PiecewisePolynomial) for f in truths):
            raise ValueError("an analog ground truth must be a PiecewisePolynomial")
    elif getattr(codec, "n", None) != ensemble.n:
        raise ValueError(
            f"codec dimension {getattr(codec, 'n', None)} != ensemble n={ensemble.n}")
    elif truths is not None and truths.shape != (len(ys), ensemble.n):
        raise ValueError(f"ground truths have shape {truths.shape}; "
                         f"expected ({len(ys)}, {ensemble.n})")
    elif truths is not None and not np.isfinite(truths).all():
        # its error_l2 could only be nan or inf, and only after the whole scan
        raise ValueError("ground truths must be finite")


_LOCAL = threading.local()
# bytes of the largest workspace a thread keeps once its scan returns; every
# benchmark workload's buffers are at most about 1 MiB
_KEEP_BYTES = 4 << 20


def _workspace(role: str, *shape) -> np.ndarray:
    """The thread's float array for role (the scan's "tile", tiled "y" and
    kernel "out", the analog transpose "inc"), handed out again, as it was
    left, while the role's shape repeats.

    It is the only allocator of the scan's buffers.  Each is a private
    anonymous mapping of its own (page-aligned, so every tile starts on a
    cache line, and copied on fork), made when the role's shape changes,
    after the old one is released.  One larger than _KEEP_BYTES is not
    kept: it is released when its scan returns, so a large panel's output
    does not outlive the call.  So between calls a thread holds at most one
    mapping per role, of the last scan's shape, and a warm scan of a
    repeated shape page-faults nothing in.  Fresh arrays of these sizes sit
    at glibc's mmap and trim thresholds, so whether they were faulted in
    afresh every scan, or held the malloc heap at a larger size, flipped
    with unrelated allocations; and where a buffer starts within a cache
    line moves the scan's speed by several percent, though not its bits.
    No result holds a view of a workspace."""
    work = getattr(_LOCAL, role, None)
    if work is None or work.shape != shape:
        vars(_LOCAL).pop(role, None)
        size = math.prod(shape)
        # mmap refuses length 0, which an empty panel's (rows, 0) output asks for
        pages = mmap.mmap(-1, 8 * max(size, 1), access=mmap.ACCESS_COPY)
        work = np.frombuffer(pages, count=size).reshape(shape)
        if work.nbytes <= _KEEP_BYTES:
            setattr(_LOCAL, role, work)
    return work


def _scan(ops, n_groups: int, size: int, coefs, ys: np.ndarray, kernel):
    """The one tiled scan behind every solver, of the p signals ys (p, d).

    Group g is the codewords [g * size, (g + 1) * size), whose measurements
    are coefs(offset, count) @ B_g for offsets inside the group.
    ops(g, count) returns the operators B of the groups from g up to
    g + count (fewer at the end) as one (count, rows of B, d) stack, and
    kernel(ys, rows) makes the kernel of a scan whose tiles have at most
    rows rows: it maps measurements R (count, d) to the tile's minimum
    squared residual against each signal and the first row that reaches
    it, two fresh (p,) arrays (a nan minimum may come with any row).  Every
    tile's R is a prefix of the (rows, d) "tile" _workspace; the scan reads
    R no more once the kernel returns, so the kernel may overwrite it.

    Every group is cut into the same grid of _BLOCK-row blocks, one block
    when size <= _BLOCK.  The outer loop walks that grid and builds each
    block's coefficient rows once per scan; the inner loop walks the groups
    _BLOCK // size to a tile (one when size > _BLOCK): one stacked product of
    the block's rows with the tile's operators and one kernel call on its
    rows, whose first row at the minimum is the tile's smallest index there.
    The tile minima are reduced once, by (residual, index):
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
    rows = min(step, n_groups) * min(_BLOCK, size)    # the first tile's, the largest
    buf, kernel = _workspace("tile", rows, ys.shape[1]), kernel(ys, rows)
    mins, at = [], []
    for offset in range(0, size, _BLOCK):
        block = coefs(offset, min(_BLOCK, size - offset))
        for g in range(0, n_groups, step):
            B = ops(g, step)
            R = buf[:len(B) * len(block)]
            np.matmul(block, B, out=R.reshape(len(B), len(block), -1))
            low, j = kernel(R)
            mins.append(low)
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


def _finite_plan(ensemble: MeasurementEnsemble, codec: Codec):
    """(ops, n_groups, size, coefs) of _scan for a finite-dimensional codec;
    coefs is the codec's coef_block.

    A sparse or grid codec has one group per support S, in rank order: its
    grid_size codewords share the operator A[:, S]^T, gathered per tile from
    the codec's support table, and their coefficient rows are the codec's
    level rows, so the scan multiplies only the k support columns.  An
    explicit codec is one group whose coefficient rows are its codewords,
    row slices of its table, times the transposed matrix, a view: a
    contiguous copy would round one-row (gemv) products differently."""
    At = ensemble.matrix.T
    if isinstance(codec, SparseCodec):
        return (lambda g, count: At[codec.supports[g:g + count]], codec.n_supports,
                codec.grid_size, codec.coef_block)
    return lambda g, count: At[None], 1, codec.size, codec.coef_block


def _row_norms(D: np.ndarray) -> np.ndarray:
    """||D[i]||_2 of every row of D (p, n), each with np.linalg.norm's bits:
    the stacked (1 x n) @ (n x 1) products are one BLAS dot per row, the
    call norm makes (einsum's sums round differently)."""
    return np.sqrt(np.matmul(D[:, None, :], D[:, :, None]).reshape(len(D)))


def _direct(ys, rows: int):
    """Kernel ||R - y||^2 for one signal ys (1, d), reduced to the tile's
    minimum and its first row, for a scan of tiles of at most rows rows.
    It tiles y to that row count once per scan; every call subtracts a
    prefix of the tiled y in one contiguous pass, writing the residuals
    R - y over R, which _scan allows, sums their squares into a prefix of
    its output and takes its argmin.  Subtraction is elementwise and the
    einsum sums each row as it would into a fresh array, so the bits are
    those of R - y and its row sums."""
    Y, out = _workspace("y", rows, ys.shape[1]), _workspace("out", rows)
    Y[:] = ys

    def kernel(R):
        np.subtract(R, Y[:len(R)], out=R)
        sq = np.einsum("ij,ij->i", R, R, out=out[:len(R)])
        j = sq.argmin(keepdims=True)
        return sq[j], j
    return kernel


# rows of the panel kernel's tile per elementwise pass: one band of rows of
# its buffer, with the band's ||R||^2 + ||y||^2, stays in cache
_BAND = 64


def _expanded(ys, rows: int):
    """Kernel ||R||^2 + ||y||^2 - 2<R, y>, clipped at 0, for the p signals
    ys (p, d), reduced to the tile's minimum and its first row per signal,
    for a scan of tiles of at most rows rows.  One product R @ ys.T
    measures the tile against the whole panel, into a prefix of its
    (rows, p) output.  The rest is done in place, one band of _BAND rows at
    a time: the products doubled, subtracted from the band's ||R||^2 +
    ||y||^2 and clipped at 0, the bits of the expression above, since every
    step is elementwise and in its order.  The minimum over the rows comes
    next, then the first row equal to it, which is argmin's first
    occurrence without its transposed copy of the tile; a nan minimum
    equals no row and goes to _scan's check."""
    yn = np.einsum("ij,ij->i", ys, ys)
    out = _workspace("out", rows, len(ys))

    def kernel(R):
        sq = np.matmul(R, ys.T, out=out[:len(R)])
        rn = np.einsum("ij,ij->i", R, R)
        for r in range(0, len(sq), _BAND):
            band = sq[r:r + _BAND]
            np.multiply(band, 2.0, out=band)
            np.subtract(rn[r:r + _BAND, None] + yn, band, out=band)
            np.maximum(band, 0.0, out=band)
        low = sq.min(axis=0)
        return low, (sq == low).argmax(axis=0)
    return kernel


def _recover(ys, ensemble: MeasurementEnsemble, codec: Codec, truths, kernel,
             t0: float) -> RecoveryResult:
    """The scan of csp_recover and csp_recover_panel: the p signals ys
    (p, d) against every codeword with the residuals of kernel.  The
    chosen codewords are decoded in one decode_many call and their errors
    against truths (p, n) are _row_norms, so each row has the bits of
    decode and of np.linalg.norm."""
    _check(ys, ensemble, codec, truths=truths)
    sq, idx = _scan(*_finite_plan(ensemble, codec), ys, kernel)
    recon = codec.decode_many(idx)
    return RecoveryResult(
        chosen_index=idx, reconstruction=recon, residual=np.sqrt(sq),
        error_l2=None if truths is None else _row_norms(recon - truths),
        candidates_scanned=codec.size, wall_time=time.perf_counter() - t0)


def csp_recover(y, ensemble: MeasurementEnsemble, codec: Codec,
                truth=None) -> RecoveryResult:
    """Recover a finite-dimensional signal from y = A x (+ noise).

    Scans every codeword, computing ||y - A c||_2^2 as the direct kernel
    ||R - y||^2 on the block grid's products R (_direct), and returns the
    smallest index at the minimum of those computed residuals: where two
    real residuals are closer than the rounding, the computation decides.
    The scan never inspects the signal itself: measurements of signals
    outside the codec's class still get the residual minimizer, though the
    error guarantees only cover class members.  truth, if given, has shape
    (n,).  The result is csp_recover_panel's for a panel of one signal, one
    row per field, but with the direct kernel.
    """
    t0 = time.perf_counter()
    ys = np.asarray(y, dtype=float)[None]
    truths = None if truth is None else np.asarray(truth, dtype=float)[None]
    return _recover(ys, ensemble, codec, truths, _direct, t0)


def csp_recover_panel(ys, ensemble: MeasurementEnsemble, codec: Codec,
                      truths=None) -> RecoveryResult:
    """Recover a panel of signals against one shared ensemble in one pass.

    The codebook is measured once per tile for the whole panel, which is
    what the uniform-guarantee (one matrix, all signals) experiments need.
    ys has shape (p, d); truths, if given, (p, n).  The result holds one
    row per signal.

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
    return _recover(ys, ensemble, codec, truths, _expanded, t0)


def _analog_operators(codec: PiecewisePolyCodec, edges: np.ndarray, cuts: np.ndarray,
                      times: np.ndarray, inc_t: np.ndarray) -> np.ndarray:
    """Operators (n_layouts, n_coef, d), one matrix B per layout, with
    y_c = coeffs @ B for every codeword whose pieces are split at that
    layout's breakpoints: B rows are the stochastic integrals of the basis
    functions of each (piece, degree) slot.

    edges and cuts are rows of a _geometry's, so piece j of a layout spans
    [edges[j], edges[j+1]] and covers the contiguous cells [cuts[j],
    cuts[j+1]) of the sorted grid times; inc_t is the (m, d) C-contiguous
    transpose of the ensemble's increments, and a piece's integrals are one
    product with a row slice of it."""
    deg = codec.degree
    ops = np.zeros((len(edges), codec.n_coef, inc_t.shape[1]))
    for B, e, c in zip(ops, edges.tolist(), cuts.tolist()):
        for j in range(codec.n_breaks + 1):
            lo, hi = c[j], c[j + 1]
            if hi <= lo:
                continue
            phi = orthonormal_basis_matrix(e[j], e[j + 1], deg, times[lo:hi])
            B[j * (deg + 1):(j + 1) * (deg + 1)] = phi @ inc_t[lo:hi]
    return ops


_U = np.finfo(float).eps / 2    # unit roundoff
# a margin's factor for the rounding of its own arithmetic, whose terms are
# all nonnegative
_SLACK = 1 + 2.0 ** -20


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): an n-term dot product, summed in
    any order, with or without FMA, is within gamma_n |x| . |y| of its exact
    value, and n roundings (1 + delta_i) multiply to within gamma_n of 1."""
    return n * _U / (1 - n * _U)


@functools.lru_cache(maxsize=None)
def _basis_terms(degree: int):
    """(M, kappa) for the orthonormal basis of one degree, P = degree + 1.

    M (P, P, P) holds the integers with, on a piece [a, a + h],
        phi_k(t) = s_k sum_{l,j} M[k, l, j] (-a)^(l-j) h^-l t^j,
    s_k = sqrt((2k + 1) / h): the shifted Legendre polynomial
    P_k(2x - 1) = sum_l (-1)^(k+l) C(k, l) C(k+l, l) x^l at x = (t - a) / h,
    with (t - a)^l expanded binomially.  kappa[k] bounds |phi^_k - phi_k| / s_k
    for the values phi^_k that orthonormal_basis_matrix computes at a grid
    time in the piece.  Row 0 is fl(sqrt(fl(1 / h))), within gamma_2 of s_0.
    A row k >= 1 is fl(s^_k * legval(u^, e_k)): u^ = fl(fl(2 fl(t - a)) / h
    - 1) lies in [-1, 1] (rounding is monotone, a <= t < b, h = fl(b - a)) and within
    2 gamma_2 + u <= gamma_5 of u; |P_k'| <= k(k+1)/2 on [-1, 1]; and the
    rounding of numpy's recurrence for legval (run below on bounds of the
    magnitude and the error of each intermediate, with x in [-1, 1]) is at
    most c_k.  So |legval - P_k(u)| <= e_k = c_k + k(k+1)/2 gamma_5, and
    |phi^_k - phi_k| <= s_k (gamma_2 (1 + u)(1 + e_k) + (1 + u) e_k + u)."""
    P = degree + 1
    M = np.zeros((P, P, P))
    for k in range(P):
        for l in range(k + 1):
            beta = (-1) ** (k + l) * math.comb(k, l) * math.comb(k + l, l)
            for j in range(l + 1):
                M[k, l, j] = beta * math.comb(l, j)

    # (magnitude, error) bounds through one rounded product or sum
    def mul(x, z):
        return x[0] * z[0] * (1 + _U), x[1] * z[0] + (x[0] + x[1]) * z[1] + _U * x[0] * z[0]

    def add(x, z):
        return (x[0] + z[0]) * (1 + _U), x[1] + z[1] + _U * (x[0] + z[0])

    kappa = [_gamma(2)]
    for k in range(1, P):
        c0, c1, x, nd = (0.0, 0.0), (1.0, 0.0), (1.0, 0.0), k + 1
        for _ in range(k - 1):    # legval's loop for c = e_k; 0 - z is exact
            nd -= 1
            r1, r2 = (nd - 1) / nd, (2 * nd - 1) / nd
            c0, c1 = (mul(c1, (r1, _gamma(1) * r1)),
                      add(c0, mul(mul(c1, x), (r2, _gamma(1) * r2))))
        e = add(c0, mul(c1, x))[1] + k * (k + 1) / 2 * _gamma(5)
        kappa.append(_gamma(2) * (1 + _U) * (1 + e) + (1 + _U) * e + _U)
    kappa = np.array(kappa)
    M.flags.writeable = kappa.flags.writeable = False    # shared by every call
    return M, kappa


def _geometry(codec: PiecewisePolyCodec, layouts: np.ndarray, times: np.ndarray):
    """What the scan of a codec needs of its breakpoint layouts (n_layouts,
    n_breaks) on the sorted grid times, built once per codec
    (_codec_geometry): the read-only arrays (edges, cuts, at, k, powers, C,
    absC, w).  The exact operators read the first two, the screen the rest.

    Piece j of a layout spans [edges[j], edges[j+1]] and covers the grid
    cells [cuts[j], cuts[j+1]), found by one searchsorted over the table;
    both are (n_layouts, n_breaks + 2).  at holds the distinct cuts, sorted,
    and k each cut's position in at; powers (degree, m) the powers
    t^j of the times for 1 <= j <= degree, each the running product of the
    one before and the times.  A piece with cells [lo, hi) starts at a and
    is h long, and its coefficients are C[k, j] = s_k sum_l M[k, l, j]
    (-a)^(l-j) h^-l (_basis_terms), zero for a piece without cells; C is
    (n_layouts, pieces, P, P), absC their absolute values, and w
    (n_layouts, pieces, P) the weight of A = sum |inc| in the operator
    term's bound E."""
    m, N, n = len(times), codec.degree, len(layouts)
    P = N + 1
    edges = np.hstack((np.zeros((n, 1)), layouts, np.ones((n, 1))))
    cuts = np.hstack((np.zeros((n, 1), dtype=np.int64),
                      np.searchsorted(times, layouts, side="left"), np.full((n, 1), m)))
    live = cuts[:, 1:] > cuts[:, :-1]
    a = edges[:, :-1]
    h = np.where(live, np.diff(edges, axis=1), 1.0)    # finite for dead pieces too
    at = _sorted_distinct(cuts)

    M, kappa = _basis_terms(N)
    X = np.zeros(h.shape + (P, P))                     # (-a)^(l-j) h^-l
    na, gh = [np.ones_like(h)], [np.ones_like(h)]
    for _ in range(1, P):
        na.append(na[-1] * -a)
        gh.append(gh[-1] * (1.0 / h))
    for l in range(P):
        for j in range(l + 1):
            X[..., l, j] = na[l - j] * gh[l]
    s = np.sqrt((2 * np.arange(P) + 1) / h[..., None])
    C = s[..., None] * np.einsum("klj,...lj->...kj", M, X) * live[..., None, None]
    terms = s * np.einsum("klj,...lj->...k", np.abs(M), np.abs(X))  # |C|_k summed over j
    g_m, absC = _gamma(m), np.abs(C)
    w = (2 * g_m * absC.sum(axis=-1) + _gamma(7 * N + 9) * terms
         + s * ((1 + _gamma(2)) * (g_m * (1 + kappa) + kappa))) * live[..., None]
    geometry = (edges, cuts, at, np.searchsorted(at, cuts),
                np.cumprod(np.broadcast_to(times, (N, m)), axis=0), C, absC, w)
    for v in geometry:
        v.flags.writeable = False
    return geometry


# each scanned codec's _geometry, kept for the codec's lifetime
_GEOMETRIES = weakref.WeakKeyDictionary()


def _codec_geometry(codec: PiecewisePolyCodec):
    """The _geometry of the codec's breakpoint layouts on its own grid times,
    built on first use.  Those times are the ensemble's whenever _check
    passes (codec.grid == ensemble.m), so every value is the one a per-scan
    build would compute."""
    if codec not in _GEOMETRIES:
        _GEOMETRIES[codec] = _geometry(codec, codec.break_layouts, _grid_times(codec.grid))
    return _GEOMETRIES[codec]


def _screened_operators(geometry, inc: np.ndarray, work: np.ndarray):
    """Screened operators B~ (n_layouts, n_coef, d) of every layout of a
    _geometry, from prefix sums, and E of the same shape, which bounds
    |B~ - B^| element by element, B^ the exact operators that
    _analog_operators computes (csp_recover_analog derives E).

    inc is the ensemble's (d, m) increments and work a C-contiguous (d, m)
    scratch array, which takes t^j inc and |inc| in turn, so the screen
    allocates nothing of the increments' size.  S[j] holds, for each
    j <= degree, the prefix sums of t^j inc at every cut of the table, zero
    first: the cells between consecutive cuts are summed, then those sums
    accumulated.  A piece of a layout with cells [lo, hi) gets the
    differences S[j, hi] - S[j, lo], and its operator rows are C @ those
    differences.  A piece without cells gets zero rows, as in
    _analog_operators."""
    d, m = inc.shape
    _, _, at, k, powers, C, absC, w = geometry
    n, pieces, P = C.shape[:3]
    S = np.zeros((P, d, len(at)))
    for j in range(P):
        tj_inc = np.multiply(inc, powers[j - 1], out=work) if j else inc
        np.cumsum(np.add.reduceat(tj_inc, at[:-1], axis=1), axis=1, out=S[j, :, 1:])
    diff = (S[..., k[:, 1:]] - S[..., k[:, :-1]]).transpose(2, 3, 0, 1)  # (n, pieces, P, d)
    A = np.abs(inc, out=work).sum(axis=1) * (1 + _gamma(m))
    E = _gamma(P + 1) * (absC @ np.abs(diff)) + w[..., None] * A
    return (C @ diff).reshape(n, pieces * P, d), E.reshape(n, pieces * P, d)


def _screen(geometry, amp: float, inc: np.ndarray, y: np.ndarray, work: np.ndarray):
    """The screened operators B~ of _screened_operators, their Gram-form
    weights (n_layouts, F) and two margins (operator, gram), each
    (n_layouts,), of each layout (csp_recover_analog derives them; amp
    bounds every coefficient).

    With G~ = B~ B~^T and b~ = B~ y, a layout's weights are 2 G~_ij for
    i < j, G~_ii and -2 b~, in _features' order, so weights @ _features(c)
    scores a codeword c as c G~ c^T - 2 c . b~.  With G~ and b~ exact, that
    is ||y - c B~||^2 - ||y||^2: the real squared residual r on the screened
    operator less a shift that every layout shares.  Both margins are
    measured against r, one chain q -> r -> s^: for every codeword of the
    layout, gram bounds |score + ||y||^2 - r| and operator bounds |s^ - r|,
    where s^ is the squared residual that the scan computes, the direct
    kernel on c @ B^ with B^ the exact operator of _analog_operators."""
    ops, E = _screened_operators(geometry, inc, work)
    n, K, d = ops.shape
    aB, aE = amp * np.abs(ops).sum(axis=1), amp * E.sum(axis=1)
    Y = np.abs(y) + aB
    e = (1 + _U) * (_gamma(K) * (aB + aE) + aE) + _U * Y
    operator = (_gamma(d) * (Y + e) ** 2 + e * (2 * Y + e)).sum(axis=1)

    i, j = _pairs(K)
    G = np.einsum("nfd,nfd->nf", ops[:, i], ops[:, j])
    b = (ops.reshape(-1, d) @ y).reshape(n, K)
    weights = np.hstack((np.where(i < j, 2.0, 1.0) * G, -2.0 * b))
    gram = _gamma(weights.shape[1] + d + 1) * (aB * (aB + 2 * np.abs(y))).sum(axis=1)
    return ops, weights, (operator * _SLACK, gram * _SLACK)


def _pairs(K: int):
    """Row and column indices (i, j) of the pairs i <= j of K coefficients,
    in np.triu_indices order (row-major)."""
    return np.nonzero(np.arange(K)[:, None] <= np.arange(K))


def _features(rows: np.ndarray) -> np.ndarray:
    """Feature columns (F, count) of coefficient rows (count, n_coef): the
    products c_i c_j of the pairs i <= j (_pairs), then c itself."""
    i, j = _pairs(rows.shape[1])
    return np.vstack((rows.T[i] * rows.T[j], rows.T))


def _gram_minima(weights: np.ndarray, size: int, coefs) -> np.ndarray:
    """Each layout's minimum score over its size codewords, from the
    (n_layouts, F) weights of _screen.

    The scan walks _scan's block grid and builds each block's features
    once.  A tile is one product of the weights of _BLOCK // rows layouts
    (one when a block is larger) with them, so it holds at most _BLOCK
    scores, and its row minima lower the layouts' entries."""
    low = np.full(len(weights), np.inf)
    for offset in range(0, size, _BLOCK):
        X = _features(coefs(offset, min(_BLOCK, size - offset)))
        step = max(1, _BLOCK // X.shape[1])
        for g in range(0, len(low), step):
            tile = low[g:g + step]
            np.minimum(tile, (weights[g:g + step] @ X).min(axis=1), out=tile)
    return low


def csp_recover_analog(y, ensemble: WienerEnsemble, codec: PiecewisePolyCodec,
                       truth: PiecewisePolynomial | None = None) -> RecoveryResult:
    """Recover a function from stochastic-integral measurements.

    Same optimality and tie-break contract as csp_recover, with residuals
    computed through the ensemble's left-point integral sums.  The codec's
    time grid must match the ensemble's so signal and codewords are measured
    identically.  Each row r of the codec's breakpoint layout table
    (codec.break_layouts) is one group of the scan, the codewords
    [r * coef_space, (r + 1) * coef_space), with the operator of
    _analog_operators and the coefficient rows of codec.coef_block.  Each
    layout's pieces and cells (edges and cuts) are computed once per codec,
    in its _geometry (_codec_geometry), which the screen and the exact
    operators read alike; a codec of one layout reads it too.

    The increments are transposed once per scan into the C-contiguous (m, d)
    "inc" _workspace (np.copyto, the bytes of
    np.ascontiguousarray(increments.T)); before that, the screen uses the
    same memory as its (d, m) scratch.  The grid times are sorted, so each
    piece of a breakpoint layout covers a contiguous run of cells and its
    exact operator rows are one product of its basis values (row 0 a
    constant, see orthonormal_basis_matrix) with a row slice of that
    transpose.  Row slices reproduce the bits of a masked
    copy of increments[:, cells]; column slices of the increments (views or
    copies) take another BLAS path and can differ in the last bits, which
    would change reported residuals.

    Building every layout's exact operator is a Python loop over pieces, so
    a codec of several layouts is scanned as a floating-point filter
    (Shewchuk, Discrete Comput. Geom. 18, 1997): a cheap evaluation with an
    error bound, and exact work only where the bound cannot decide.
    1. Screen: _screen builds every layout's operator B~ from prefix sums
       and its Gram-form weights, and _gram_minima scores every codeword of
       every layout with them, keeping each layout's minimum score q_min.
       What depends only on the layouts and the grid (cuts, basis
       coefficients, the weight of sum |inc| in the margin) comes from the
       codec's _geometry.
       A score q is the codeword's squared residual on B~ less ||y||^2, a
       shift that every layout shares, so it is left out.
    2. Margin: _screen also gives each layout a margin mu, with
       |q + ||y||^2 - s^| <= mu for every codeword of the layout, where s^
       is the squared residual that the exact scan computes.
    3. Rebuild: the candidates are the layouts with
       q_min - mu <= min over all layouts of (q_min + mu), and a layout
       whose minimum or margin is not finite.  Only they get exact operators.
    4. Rescan: _scan scans the candidates' exact operators as a run of
       groups, on the same block grid with the same direct kernel and the
       same (residual, index) fold, and its index is mapped back to the
       layout.
    The global minimum is at most the exact minimum of the layout that
    attains min (q_min + mu), so at most that bound plus ||y||^2, and its
    own layout has q_min + ||y||^2 - mu below it: every layout holding a
    minimizer, ties included, is rescanned.  Rounding is monotone, so a
    layout that the float comparison rules out is ruled out in real
    arithmetic too.  A codeword's exact squared residual does not depend on
    which layouts share its tile (numpy's matmul runs one gemm per stacked
    slice, and the kernel works row by row), so the result is the
    exhaustive scan's, bit for bit.  A codec of one layout has nothing to
    screen and is scanned exactly.  The screen and the rescan share,
    through a one-entry cache, the block of coefficient rows: a grid of one
    block (coef_space <= _BLOCK) is built once per recovery, and a larger
    one once per block per scan.

    The margin (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, sections 3.1 and 4.2; u is the unit roundoff and gamma_n =
    n u / (1 - n u)).  Per piece of m' cells, operator row k and column:
    - the exact row is a dot product of the computed basis values phi^_k
      with the piece's increments: within gamma_m' sum |phi^_k| |inc| of
      T = sum phi^_k inc, and |phi^_k| <= s_k (1 + kappa_k) (_basis_terms);
    - the screen's prefix sums of t^j inc, in any order, are within
      gamma_m A of exact, A = sum |inc| over the whole grid, so a
      difference S[hi] - S[lo], rounded, is within gamma_1 |diff| + 2 gamma_m
      A of the piece's sum, and the row C @ diff adds gamma_(N+1) |C| @
      |diff| more;
    - the polynomial with the computed coefficients C^ and powers t^j
      differs from phi^_k by at most Delta_k = gamma_(7N+9) sum_j |C|_kj +
      s_k (1 + gamma_2) kappa_k at every cell, where |C|_kj sums the
      absolute values of the terms of C_kj: C^ is within gamma_(6N+8) of C
      term by term, t^j within gamma_N, phi^_k within s_k kappa_k of phi_k.
    So |B~ - B^| <= E = gamma_(N+2) |C| @ |diff| + (2 gamma_m sum_j |C_kj| +
    gamma_m s_k (1 + gamma_2)(1 + kappa_k) + Delta_k) A per row, zero for a
    piece without cells.

    Both terms of mu are measured against r = ||y - c B~||^2, the real
    squared residual on the screened operator: one chain q -> r -> s^.
    With |c| <= amp for every coefficient, let a = amp sum_k |B~_k| per
    column, so |c @ B~| <= a and the real R - y = c @ B~ - y is within
    Y = |y| + a.
    - Gram term, |q + ||y||^2 - r|: G~ = B~ B~^T and b~ = B~ y are d-term
      dot products, within gamma_d |B~| |B~|^T and gamma_d |B~| |y| of
      exact; doubling and negating them is exact, and a feature c_i c_j is
      one rounding.  A score is a dot product of F = n_coef (n_coef + 3) / 2
      terms, so |q + ||y||^2 - r| <= gamma_(F+d+1) sum over columns of
      a (a + 2 |y|) (Higham's lemma 3.3 merges the gammas).
    - Operator term, |s^ - r|: the rescan's R^ = c @ B^ (n_coef terms) is
      within gamma_n_coef amp sum_k (|B~_k| + E_k) of the real c @ B^,
      which is within amp sum_k E_k of c @ B~.  So the rounded R^ - y is
      within e = (1 + u) amp (gamma_n_coef sum_k (|B~_k| + E_k) +
      sum_k E_k) + u Y of R - y, and at most Y + e in size.  The kernel's
      sum of its d squares is within gamma_d of its exact value, and each
      square is within e (2 Y + e) of the real one, so |s^ - r| <= sum over
      columns of gamma_d (Y + e)^2 + e (2 Y + e).
    Since |q + ||y||^2 - s^| <= |q + ||y||^2 - r| + |r - s^|, mu is the sum
    of the two terms, each times 1 + 2^-20 for the rounding of the margin's
    own arithmetic, whose terms are all nonnegative.  The bounds hold for any
    summation order and with FMA, so under every BLAS kernel.
    """
    t0 = time.perf_counter()
    ys = np.asarray(y, dtype=float)[None]
    _check(ys, ensemble, codec, analog=True, truths=None if truth is None else (truth,))
    inc = ensemble.increments
    inc_t = _workspace("inc", ensemble.m, ensemble.d)
    geometry, size = _codec_geometry(codec), codec.coef_space
    edges, cuts = geometry[:2]
    coefs = functools.lru_cache(maxsize=1)(codec.coef_block)
    cand = np.arange(len(edges))
    if len(cand) > 1:    # one layout: nothing to screen
        # every value of the screen reaches the rule below through a layout's
        # minimum or margin, and a layout whose minimum or margin is not
        # finite is kept, so the exact rescan decides; its overflow is no error
        with np.errstate(over="ignore", invalid="ignore"):
            _, weights, margins = _screen(geometry, codec.amp, inc, ys[0],
                                          inc_t.reshape(inc.shape))
            low = _gram_minima(weights, size, coefs)
            margin = sum(margins)
            cand = cand[~(low - margin > np.min(low + margin)) | ~np.isfinite(low + margin)]
    np.copyto(inc_t, inc.T)
    # operators are built before the scan starts: built between its blocks
    # they cost the analog-groups benchmark about 4% more time per trial
    ops = _analog_operators(codec, edges[cand], cuts[cand], ensemble.times, inc_t)
    sq, idx = _scan(lambda g, count: ops[g:g + count], len(ops), size, coefs, ys,
                    _direct)
    # codeword i of the rescan is codeword i % size of layout cand[i // size]
    idx = cand[idx // size] * size + idx % size
    recon = [codec.decode(int(i)) for i in idx]
    return RecoveryResult(
        chosen_index=idx, reconstruction=recon, residual=np.sqrt(sq),
        error_l2=None if truth is None else np.array([truth.l2_distance(recon[0])]),
        candidates_scanned=codec.size, wall_time=time.perf_counter() - t0)
