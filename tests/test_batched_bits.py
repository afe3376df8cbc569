"""Every solver front end's one-row-per-signal result, bit for bit.

csp_recover and csp_recover_panel share one body: the chosen codewords are
decoded with one decode_many call and their errors are one stacked product
(solver._row_norms), for the weak regime's panel of one as for the strong
regime's panel.  Both must have the bits of the per-signal path they
replaced: decode per index, and np.linalg.norm per row.  The analog front
end decodes its one row with decode and measures its error with
PiecewisePolynomial.l2_distance.  The measurements of a finite regime are
one stacked measure call, each row with the bits of the gemv A @ x.  Every
comparison is on int64 views, so a last-bit difference (or a -0.0 for a
0.0) fails.  The norms are BLAS dots and the measurements BLAS gemvs, so
these tests are worth running under every OpenBLAS kernel, e.g. with
OPENBLAS_CORETYPE=Nehalem.
"""

import numpy as np
import pytest

from csplab import harness
from csplab.codecs import ExplicitCodec, GridCodec, PiecewisePolyCodec, SparseCodec
from csplab.measurement import (measure, measure_analog, sample_ensemble,
                                sample_wiener_ensemble)
from csplab.rng import derive_stream
from csplab.solver import (_row_norms, csp_recover, csp_recover_analog,
                           csp_recover_panel)


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


CODEWORDS = derive_stream(70, 0).standard_normal((40, 5))


@pytest.mark.parametrize("codec", [
    SparseCodec(9, 1, 1.0, 0.3),
    SparseCodec(7, 2, 1.0, 0.35),
    GridCodec(3, 1.0, 0.4),
    ExplicitCodec(CODEWORDS),
], ids=["sparse-k1", "sparse-k2", "grid", "explicit"])
@pytest.mark.parametrize("p", [1, 2, 57, "run"])
def test_decode_many_has_decode_bits(codec, p):
    if p == "run":
        # a contiguous run, as the explicit scan plan reads its blocks: it
        # crosses a support boundary of a sparse codec, and it ends at the
        # last codeword of the grid and explicit codecs
        start = min(getattr(codec, "grid_size", codec.size) - 3, codec.size - 7)
        idx = np.arange(start, start + 7)
    else:
        idx = derive_stream(71, p).integers(0, codec.size, size=p)
        if p > 2:
            idx[:2] = 0, codec.size - 1
    got = codec.decode_many(idx)
    assert got.shape == (len(idx), codec.n)
    assert np.array_equal(bits(got), bits(np.stack([codec.decode(int(i)) for i in idx])))
    if p == "run" and isinstance(codec, ExplicitCodec):
        assert np.array_equal(bits(got), bits(CODEWORDS[idx[0]:idx[-1] + 1]))


def test_decode_many_returns_fresh_rows():
    codec = ExplicitCodec([[1.0, 2.0], [3.0, 4.0]])
    rows = codec.decode_many(np.array([1, 1]))
    rows[0, 0] = 9.0
    assert codec.decode(1).tolist() == [3.0, 4.0]


@pytest.mark.parametrize("codec", [SparseCodec(5, 2, 1.0, 0.5),
                                   ExplicitCodec([[1.0], [2.0]])])
@pytest.mark.parametrize("bad", [[0.0], [-1], [10**6], [[0]], [True]])
def test_decode_many_checks_indices(codec, bad):
    with pytest.raises(IndexError):
        codec.decode_many(np.array(bad))


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (5, 2), (33, 16),
                                   (200, 3), (4, 37), (3, 128)])
def test_row_norms_have_norm_bits(shape):
    gen = derive_stream(72, shape[0] * 1000 + shape[1])
    for scale in (1e-150, 1e-3, 1.0, 1e150):
        D = scale * gen.standard_normal(shape)
        want = [np.linalg.norm(row) for row in D]
        assert np.array_equal(bits(_row_norms(D)), bits(want))


@pytest.mark.parametrize("d, n, k", [(1, 6, 2), (3, 1, 1), (1, 1, 1), (5, 8, 2)])
def test_panel_errors_have_norm_bits(d, n, k):
    # class samples lie off the codebook, so every error is nonzero
    codec = SparseCodec(n, k, 1.0, 0.3)
    ens = sample_ensemble(d, n, derive_stream(73, d * 10 + n))
    gen = derive_stream(74, n)
    truths = np.array([codec.sample_member(gen) for _ in range(23)])
    ys = measure(ens, truths)
    assert np.array_equal(bits(ys), bits(np.stack([ens.matrix @ x for x in truths])))
    panel = csp_recover_panel(ys, ens, codec, truths=truths)
    assert panel.chosen_index.shape == panel.residual.shape == panel.error_l2.shape == (23,)
    assert panel.reconstruction.shape == (23, n)
    assert csp_recover_panel(ys, ens, codec).error_l2 is None
    want = [np.linalg.norm(codec.decode(int(i)) - x)
            for i, x in zip(panel.chosen_index, truths)]
    assert np.array_equal(bits(panel.error_l2), bits(want))
    assert np.array_equal(bits(panel.reconstruction),
                          bits(np.stack([codec.decode(int(i)) for i in panel.chosen_index])))


@pytest.mark.parametrize("p, d, n", [(1, 1, 1), (1, 7, 9), (6, 1, 9), (6, 7, 1),
                                     (23, 5, 8), (3, 80, 79), (200, 48, 64)])
def test_stacked_measure_has_gemv_bits(p, d, n):
    # one np.matmul(A, X[..., None]) for the stack runs the gemv of A @ x
    # per row; a one-row product (d = 1) is a dot, and n = 1 takes no BLAS
    ens = sample_ensemble(d, n, derive_stream(81, p))
    gen = derive_stream(82, d * 100 + n)
    for scale in (1e-150, 1e-3, 1.0, 1e150):
        X = scale * gen.standard_normal((p, n))
        want = np.stack([ens.matrix @ x for x in X])
        got = measure(ens, X)
        assert got.shape == (p, d)
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(measure(ens, X[-1])), bits(want[-1]))


@pytest.mark.parametrize("codec", [SparseCodec(64, 1, 1.0, 0.25), GridCodec(2, 1.0, 0.5)],
                         ids=["sparse", "grid"])
def test_frozen_panel_rows_measure_with_gemv_bits(codec):
    # the strong regime measures its cached panel's read-only (p, n) members,
    # and for worst_aligned noise their residuals, in one call each
    panel = harness._Panel(codec, harness.build_panel(codec, 200, derive_stream(83, 0)))
    ens = sample_ensemble(48, codec.n, derive_stream(84, codec.n))
    for rows in (panel.members, panel.residuals):
        assert rows.shape == (200, codec.n) and not rows.flags.writeable
        want = np.stack([ens.matrix @ x for x in rows])
        assert np.array_equal(bits(measure(ens, rows)), bits(want))


FINITE_CODECS = {
    "sparse-k2": SparseCodec(7, 2, 1.0, 0.35),
    "grid": GridCodec(3, 1.0, 0.4),
    "explicit": ExplicitCodec(CODEWORDS),
}


@pytest.mark.parametrize("name", sorted(FINITE_CODECS))
@pytest.mark.parametrize("d", [1, 4])
def test_single_result_is_one_row(name, d):
    # the weak regime's CSV reads row 0: its codeword from decode_many and
    # its error from _row_norms must keep decode's and norm's bits
    codec = FINITE_CODECS[name]
    ens = sample_ensemble(d, codec.n, derive_stream(75, d))
    gen = derive_stream(76, d)
    for _ in range(8):
        x = (gen.standard_normal(codec.n) if isinstance(codec, ExplicitCodec)
             else codec.sample_member(gen))
        res = csp_recover(measure(ens, x), ens, codec, truth=x)
        assert res.chosen_index.shape == res.residual.shape == res.error_l2.shape == (1,)
        assert res.reconstruction.shape == (1, codec.n)
        assert res.candidates_scanned == codec.size
        i = int(res.chosen_index[0])
        assert np.array_equal(bits(res.reconstruction[0]), bits(codec.decode(i)))
        assert np.array_equal(bits(res.error_l2), bits([np.linalg.norm(codec.decode(i) - x)]))
    assert csp_recover(measure(ens, x), ens, codec).error_l2 is None


@pytest.mark.parametrize("n_breaks", [0, 1])
def test_analog_result_is_one_row(n_breaks):
    codec = PiecewisePolyCodec(1, n_breaks, 1.0, 0.5, grid=64, cap=None)
    ens = sample_wiener_ensemble(4, codec.grid, 79, n_breaks)
    gen = derive_stream(80, n_breaks)
    for _ in range(4):
        f = codec.sample_member(gen)
        res = csp_recover_analog(measure_analog(ens, f), ens, codec, truth=f)
        assert res.chosen_index.shape == res.residual.shape == res.error_l2.shape == (1,)
        assert len(res.reconstruction) == 1
        assert res.candidates_scanned == codec.size
        want = codec.decode(int(res.chosen_index[0]))
        got = res.reconstruction[0]
        assert np.array_equal(bits(got.breakpoints), bits(want.breakpoints))
        assert np.array_equal(bits(got.coeffs), bits(want.coeffs))
        assert np.array_equal(bits(res.error_l2), bits([f.l2_distance(want)]))
