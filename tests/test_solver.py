"""Exhaustive codeword pursuit: optimality, ties, block-size invariance."""

import contextlib
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csplab.codecs import (ExplicitCodec, GridCodec, PiecewisePolyCodec,
                           SparseCodec, ceil_snap)
from csplab.measurement import (measure, measure_analog, sample_ensemble,
                                sample_wiener_ensemble)
from csplab.piecewise import orthonormal_basis_matrix
from csplab import solver
from csplab.rng import derive_stream
from csplab.solver import (_analog_operators, csp_recover, csp_recover_analog,
                           csp_recover_panel)


@contextlib.contextmanager
def scan_block(rows):
    """Scan with a block grid of the given row count instead of the fixed
    one, to reach multi-block folds on small codebooks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_BLOCK", rows)
        yield


def naive_scan(y, A, codec):
    """Independent oracle: decode every codeword, track the strict minimum."""
    best_sq, best_idx = np.inf, -1
    for i in range(codec.size):
        c = codec.decode(i)
        sq = float(np.linalg.norm(y - A @ c) ** 2)
        if sq < best_sq:
            best_sq, best_idx = sq, i
    return best_idx, math.sqrt(best_sq)


class TestExactCases:
    def test_codeword_measurement_recovers_exactly(self):
        codec = SparseCodec(8, 2, 1.0, 0.4)
        ens = sample_ensemble(5, 8, derive_stream(40, 0))
        gen = derive_stream(40, 1).generator
        for _ in range(10):
            idx = int(gen.integers(0, codec.size))
            x = codec.decode(idx)
            res = csp_recover(measure(ens, x), ens, codec, truth=x)
            assert res.error_l2 <= 1e-9
            assert res.residual <= 1e-9
            assert np.array_equal(res.reconstruction,
                                  codec.decode(res.chosen_index))

    def test_zero_measurement_returns_zero_codeword(self):
        codec = GridCodec(3, 1.0, 0.5)
        ens = sample_ensemble(2, 3, derive_stream(41, 0))
        res = csp_recover(np.zeros(2), ens, codec)
        assert np.array_equal(res.reconstruction, np.zeros(3))
        assert res.residual == 0.0
        assert res.candidates_scanned == codec.size

    def test_tie_broken_by_smallest_index(self):
        # duplicate codewords give exactly equal residuals
        cw = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [0.0, 1.0]])
        codec = ExplicitCodec(cw)
        ens = sample_ensemble(3, 2, derive_stream(42, 0))
        y = measure(ens, np.array([0.5, 0.5]))
        res = csp_recover(y, ens, codec)
        assert res.chosen_index == 1


class TestOracleEquivalence:
    @pytest.mark.parametrize("make_codec", [
        lambda: GridCodec(2, 1.0, 0.5),
        lambda: SparseCodec(6, 2, 1.0, 0.5),
        lambda: ExplicitCodec(derive_stream(43, 9).generator.standard_normal((301, 5))),
    ])
    def test_matches_naive_full_scan(self, make_codec):
        codec = make_codec()
        assert codec.size <= 4096
        n = codec.n
        gen = derive_stream(43, 1).generator
        for i in range(5):
            ens = sample_ensemble(4, n, derive_stream(43, 100 + i))
            y = gen.standard_normal(4)
            res = csp_recover(y, ens, codec)
            idx, resid = naive_scan(y, ens.matrix, codec)
            assert res.chosen_index == idx
            assert res.residual == pytest.approx(resid, abs=1e-9)

    def test_block_size_does_not_change_result(self):
        codec = SparseCodec(6, 2, 1.0, 0.5)
        ens = sample_ensemble(4, 6, derive_stream(44, 0))
        y = derive_stream(44, 1).generator.standard_normal(4)
        base = csp_recover(y, ens, codec)
        for bs in (1, 7, 64, 733):
            with scan_block(bs):
                got = csp_recover(y, ens, codec)
            assert got.chosen_index == base.chosen_index
            assert got.residual == pytest.approx(base.residual, abs=1e-12)


class TestEncoderDominance:
    def test_residual_never_worse_than_encoding_the_truth(self):
        # the pivotal inequality: the scan minimum is at most the residual of
        # the truth's own encoding
        codec = GridCodec(4, 1.0, 0.6)
        gen = derive_stream(47, 0).generator
        for i in range(25):
            ens = sample_ensemble(3, 4, derive_stream(47, 10 + i))
            x = codec.sample_member(gen)
            y = measure(ens, x)
            res = csp_recover(y, ens, codec, truth=x)
            xt = codec.decode(codec.encode(x))
            assert res.residual <= np.linalg.norm(y - measure(ens, xt)) + 1e-12


class TestWeakRegimeStatistics:
    def test_sparse_instance_stays_within_noiseless_bound(self):
        # n=12, k=1, delta=0.05 instance at the eta=2 measurement budget;
        # the tau1=3, tau2=0.75 error bound is 4*delta = 0.2
        codec = SparseCodec(12, 1, 4.0, 0.05)
        d = ceil_snap(2 * codec.rate_bits / math.log2(1 / (math.e * codec.delta)))
        assert d == 8
        bound = 4 * codec.delta
        trials, hits = 500, 0
        gen_signals = derive_stream(48, 0).generator
        for i in range(trials):
            ens = sample_ensemble(d, 12, derive_stream(48, 100 + i))
            x = codec.sample_member(gen_signals)
            res = csp_recover(measure(ens, x), ens, codec, truth=x)
            hits += res.error_l2 <= bound
        assert hits / trials >= 0.99


class TestPanel:
    def test_panel_matches_individual_recovery(self):
        codec = SparseCodec(8, 1, 1.0, 0.3)
        ens = sample_ensemble(5, 8, derive_stream(49, 0))
        gen = derive_stream(49, 1).generator
        xs = np.array([codec.sample_member(gen) for _ in range(7)])
        ys = np.array([measure(ens, x) for x in xs])
        panel = csp_recover_panel(ys, ens, codec, truths=xs)
        for s in range(7):
            single = csp_recover(ys[s], ens, codec, truth=xs[s])
            assert panel[s].chosen_index == single.chosen_index
            assert panel[s].residual == pytest.approx(single.residual, abs=1e-9)
            assert panel[s].error_l2 == pytest.approx(single.error_l2, abs=1e-12)


class TestAnalog:
    def test_codeword_function_recovers_exactly(self):
        codec = PiecewisePolyCodec(0, 0, 1.0, 0.05, grid=512)
        ens = sample_wiener_ensemble(6, 512, 50, 0)
        f = codec.decode(codec.size - 3)
        y = measure_analog(ens, f)
        res = csp_recover_analog(y, ens, codec, truth=f)
        assert res.chosen_index == codec.size - 3
        assert res.residual <= 1e-9
        assert res.error_l2 <= 1e-12

    def test_constant_recovery_within_quantizer_error(self):
        codec = PiecewisePolyCodec(0, 0, 1.0, 0.05, grid=512)
        ens = sample_wiener_ensemble(8, 512, 51, 0)
        from csplab.piecewise import constant_function
        f = constant_function(0.5, amp_bound=1.0)
        res = csp_recover_analog(measure_analog(ens, f), ens, codec, truth=f)
        # noiseless, d-dominated: the recovered constant is the quantized one
        assert res.error_l2 <= codec.amp / codec.coef_levels + 1e-12

    @pytest.mark.parametrize("block_size", [1, 5, 4096])
    def test_matches_naive_scan_across_groups(self, block_size):
        # 16 breakpoint groups: the chosen index must be global, not group-local;
        # codewords equal as functions tie, so compare residuals, not indices
        codec = ppoly_codec(0, 1, 0.5, 64)
        gen = derive_stream(56, 1).generator
        for seed in range(4):
            ens = sample_wiener_ensemble(3, codec.grid, seed, 0)
            y = measure_analog(ens, codec.decode(int(gen.integers(0, codec.size))))
            y = y + 0.1 * gen.standard_normal(3)
            with scan_block(block_size):
                res = csp_recover_analog(y, ens, codec)
            naive = [np.linalg.norm(y - measure_analog(ens, codec.decode(i)))
                     for i in range(codec.size)]
            assert res.residual == pytest.approx(min(naive), abs=1e-12)
            assert naive[res.chosen_index] == pytest.approx(res.residual, abs=1e-12)

    def test_grid_mismatch_rejected(self):
        codec = PiecewisePolyCodec(0, 0, 1.0, 0.05, grid=512)
        ens = sample_wiener_ensemble(4, 256, 52, 0)
        with pytest.raises(ValueError, match="grid mismatch"):
            csp_recover_analog(np.zeros(4), ens, codec)

    def test_empty_measurement_rejected(self):
        codec = PiecewisePolyCodec(0, 0, 1.0, 0.05, grid=512)
        with pytest.raises(ValueError):
            sample_wiener_ensemble(0, 512, 53, 0)
        ens = sample_wiener_ensemble(2, 512, 53, 0)
        with pytest.raises(ValueError):
            csp_recover_analog(np.zeros(3), ens, codec)  # wrong length


def legacy_basis(a, b, degree, t):
    """Reference basis values: every row from legval, stacked with vstack."""
    t = np.asarray(t, dtype=float)
    u = 2.0 * (t - a) / (b - a) - 1.0
    rows = []
    for k in range(degree + 1):
        ck = np.zeros(k + 1)
        ck[k] = 1.0
        rows.append(np.sqrt((2 * k + 1) / (b - a)) * np.polynomial.legendre.legval(u, ck))
    return np.vstack(rows)


def legacy_layouts(codec):
    """Reference layouts: the breakpoint values of each rank, unranked one by
    one as the former per-trial group generator did."""
    return [codec._break_value(np.asarray(codec._break_unrank(rank)))
            for rank in range(codec.n_break_combos)]


def mask_group_operator(codec, breakpoints, ensemble):
    """Reference operator: select each piece's cells with a boolean mask over
    all grid times and integrate against a copy of those increment columns."""
    times = ensemble.times
    edges = np.concatenate(([0.0], breakpoints, [1.0]))
    piece_of = np.searchsorted(breakpoints, times, side="right")
    B = np.zeros((codec.n_coef, ensemble.d))
    deg = codec.degree
    for j in range(codec.n_breaks + 1):
        cells = piece_of == j
        if not np.any(cells):
            continue
        phi = legacy_basis(edges[j], edges[j + 1], deg, times[cells])
        B[j * (deg + 1):(j + 1) * (deg + 1)] = phi @ ensemble.increments[:, cells].T
    return B


@st.composite
def basis_cases(draw):
    """An interval [a, b] of [0, 1], down to tiny widths, and points inside it
    and at its ends."""
    a = draw(st.floats(0.0, 0.999))
    width = draw(st.one_of(st.floats(1e-12, 1e-6), st.floats(1e-6, 1.0 - a)))
    b = a + width
    assume(b > a)
    fracs = draw(st.lists(st.floats(0.0, 1.0), max_size=20))
    t = np.clip(a + np.asarray(fracs, dtype=float) * (b - a), a, b)
    return a, b, draw(st.integers(0, 3)), np.concatenate(([a], t, [b]))


class TestBasisValues:
    @settings(max_examples=200, deadline=None)
    @given(case=basis_cases())
    @example(case=(0.25, 0.25 + 2.0**-40, 3, np.array([0.25, 0.25 + 2.0**-41, 0.25 + 2.0**-40])))
    def test_matches_legacy_bitwise(self, case):
        a, b, degree, t = case
        got = orthonormal_basis_matrix(a, b, degree, t)
        assert got.shape == (degree + 1, t.size)
        assert np.array_equal(got, legacy_basis(a, b, degree, t))


# (degree, n_breaks, delta, grid); built once each, the audit is not free
OPERATOR_CODECS = [(0, 1, 0.5, 64), (1, 1, 0.6, 64), (1, 2, 0.9, 64),
                   (2, 2, 0.9, 128), (0, 3, 0.9, 64), (2, 1, 0.9, 32)]


@functools.lru_cache(maxsize=None)
def ppoly_codec(degree, n_breaks, delta, grid):
    return PiecewisePolyCodec(degree, n_breaks, 1.0, delta, grid=grid, cap=None)


@st.composite
def operator_cases(draw):
    """A codec, a Wiener ensemble on its grid, and a sorted breakpoint layout
    on the half-grid: on grid times, between them, and repeated."""
    params = draw(st.sampled_from(OPERATOR_CODECS))
    grid = params[3]
    halves = draw(st.lists(st.integers(1, 2 * grid - 1),
                           min_size=params[1], max_size=params[1]))
    d = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    return params, tuple(sorted(halves)), d, seed


class TestAnalogGroupOperator:
    @settings(max_examples=80, deadline=None)
    @given(case=operator_cases())
    @example(case=((1, 2, 0.9, 64), (40, 40), 3, 5))     # empty middle piece
    @example(case=((0, 3, 0.9, 64), (1, 1, 127), 8, 6))  # one-cell and empty pieces
    def test_slices_match_mask_reference_bitwise(self, case):
        params, halves, d, seed = case
        codec = ppoly_codec(*params)
        ens = sample_wiener_ensemble(d, codec.grid, seed, 0)
        breakpoints = np.asarray(halves, dtype=float) / (2 * codec.grid)
        inc_t = np.ascontiguousarray(ens.increments.T)
        got = _analog_operators(codec, breakpoints[None], ens.times, inc_t)[0]
        assert np.array_equal(got, mask_group_operator(codec, breakpoints, ens))

    @pytest.mark.parametrize("params", OPERATOR_CODECS)
    def test_every_codec_group_matches_mask_reference_bitwise(self, params):
        codec = ppoly_codec(*params)
        ens = sample_wiener_ensemble(5, codec.grid, 60, 0)
        inc_t = np.ascontiguousarray(ens.increments.T)
        ops = _analog_operators(codec, codec.break_layouts, ens.times, inc_t)
        assert len(ops) == codec.n_break_combos
        for got, breakpoints in zip(ops, codec.break_layouts):
            assert np.array_equal(got, mask_group_operator(codec, breakpoints, ens))

    @pytest.mark.parametrize("params", OPERATOR_CODECS)
    def test_layout_table_matches_legacy_groups(self, params):
        codec = ppoly_codec(*params)
        table = codec.break_layouts
        assert table.shape == (codec.n_break_combos, codec.n_breaks)
        assert table.dtype == np.float64
        for row, values in zip(table, legacy_layouts(codec), strict=True):
            assert np.array_equal(row, values)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.5

    def test_layout_table_built_once_per_codec(self, monkeypatch):
        codec = PiecewisePolyCodec(0, 1, 1.0, 0.5, grid=64)
        ens = sample_wiener_ensemble(4, 64, 63, 0)
        y = measure_analog(ens, codec.decode(codec.size // 2 + 3))
        calls = []
        unrank = codec._break_unrank

        def counting(rank):
            calls.append(rank)
            return unrank(rank)

        monkeypatch.setattr(codec, "_break_unrank", counting)
        first = csp_recover_analog(y, ens, codec)
        # the table unranks every layout once; decoding the result adds one
        assert len(calls) == codec.n_break_combos + 1
        calls.clear()
        second = csp_recover_analog(y, ens, codec)
        assert len(calls) == 1
        assert second.chosen_index == first.chosen_index == codec.size // 2 + 3

    def test_block_sizes_agree_bitwise(self, monkeypatch):
        codec = PiecewisePolyCodec(0, 1, 1.0, 0.2, grid=256)
        assert codec.coef_space == 256
        counts = []
        coef_block = codec.coef_block

        def counting(offset, count):
            counts.append(count)
            return coef_block(offset, count)

        monkeypatch.setattr(codec, "coef_block", counting)
        ens = sample_wiener_ensemble(6, 256, 61, 0)
        f = codec.decode(codec.size // 3 + 17)
        y = measure_analog(ens, f) + 0.05 * derive_stream(61, 1).generator.standard_normal(6)
        base = csp_recover_analog(y, ens, codec)
        assert base.residual > 0
        assert counts == [256]  # one coefficient grid for all 128 groups
        for bs in (7, 64, 255, 256):
            counts.clear()
            with scan_block(bs):
                got = csp_recover_analog(y, ens, codec)
            assert got.chosen_index == base.chosen_index
            assert got.residual == base.residual
            assert max(counts) == bs  # memory stays O(block * n_coef)


class TestValidation:
    def test_dimension_mismatches(self):
        codec = GridCodec(3, 1.0, 0.5)
        ens = sample_ensemble(4, 3, derive_stream(54, 0))
        with pytest.raises(ValueError):
            csp_recover(np.zeros(5), ens, codec)
        wrong = sample_ensemble(4, 5, derive_stream(54, 1))
        with pytest.raises(ValueError):
            csp_recover(np.zeros(4), wrong, codec)
        with pytest.raises(ValueError):
            csp_recover(np.zeros((1, 4)), ens, codec)  # a panel is not one signal
        with pytest.raises(ValueError):
            csp_recover_panel(np.zeros((2, 5)), ens, codec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurements_rejected(self, bad):
        # no residual could win the fold; fail loudly instead
        codec = GridCodec(3, 1.0, 0.5)
        ens = sample_ensemble(4, 3, derive_stream(55, 0))
        y = np.array([0.0, 0.1, bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            csp_recover(y, ens, codec)
        with pytest.raises(ValueError, match="finite"):
            csp_recover_panel(np.stack([np.zeros(4), y]), ens, codec)
        ppoly = PiecewisePolyCodec(0, 0, 1.0, 0.05, grid=512)
        with pytest.raises(ValueError, match="finite"):
            csp_recover_analog(y, sample_wiener_ensemble(4, 512, 55, 0), ppoly)


# codecs per solver front end, built once each; the explicit codebook holds
# every codeword twice, so noiseless measurements tie across the two copies
SCAN_CODECS = {
    "single": ("grid", "sparse", "explicit"),
    "panel": ("grid", "sparse", "explicit"),
    "analog": ("ppoly16", "ppoly256"),
}


@functools.lru_cache(maxsize=None)
def scan_codec(name):
    if name == "grid":
        return GridCodec(2, 1.0, 0.5)
    if name == "sparse":
        return SparseCodec(6, 2, 1.0, 0.5)
    if name == "explicit":
        return ExplicitCodec(np.tile(derive_stream(62, 0).generator.standard_normal((25, 3)),
                                     (2, 1)))
    if name == "ppoly16":
        return ppoly_codec(0, 1, 0.5, 64)   # 16 groups of 16 coefficient rows
    return ppoly_codec(1, 1, 0.9, 32)       # 8 groups of 256


def recover_all(front, codec, seed, noise):
    """Recover three codewords (plus noise) with one solver front end."""
    gen = derive_stream(seed, 1).generator
    picks = [int(i) for i in gen.integers(0, codec.size, size=3)]
    if front == "analog":
        ens = sample_wiener_ensemble(3, codec.grid, seed, 0)
        out = []
        for i in picks:
            f = codec.decode(i)
            y = measure_analog(ens, f) + noise * gen.standard_normal(3)
            out.append(csp_recover_analog(y, ens, codec, truth=f))
        return out, picks
    ens = sample_ensemble(3, codec.n, derive_stream(seed, 0))
    xs = np.array([codec.decode(i) for i in picks])
    ys = np.array([measure(ens, x) for x in xs]) + noise * gen.standard_normal((3, 3))
    if front == "panel":
        return csp_recover_panel(ys, ens, codec, truths=xs), picks
    return [csp_recover(y, ens, codec, truth=x) for y, x in zip(ys, xs)], picks


@st.composite
def scan_cases(draw):
    front = draw(st.sampled_from(sorted(SCAN_CODECS)))
    name = draw(st.sampled_from(SCAN_CODECS[front]))
    size = scan_codec(name).size
    return front, name, draw(st.integers(1, size + 1)), draw(st.integers(0, 2**32 - 1))


class TestScanInvariance:
    """Every solver front end runs the one grouped scan, folding its blocks in
    order into a running minimum.  The block size sets the block grid, and
    numpy's coefs @ B can round a row differently with the row count of its
    block (one-row blocks take BLAS gemv, small blocks another gemm path), so
    across block sizes the argmin holds and the residuals agree to rounding;
    the program fixes the block size and the goldens pin it."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=scan_cases())
    @example(case=("analog", "ppoly256", 1, 0))   # 2,048 one-row blocks
    @example(case=("analog", "ppoly16", 5, 7))    # groups split across blocks
    @example(case=("single", "explicit", 26, 8))  # tied copies in two blocks
    @example(case=("panel", "sparse", 1, 9))      # one codeword per block
    def test_block_size_keeps_the_argmin(self, case):
        front, name, block_size, seed = case
        codec = scan_codec(name)
        base, _ = recover_all(front, codec, seed, 0.1)
        with scan_block(block_size):
            got, _ = recover_all(front, codec, seed, 0.1)
        assert [r.chosen_index for r in got] == [r.chosen_index for r in base]
        for r, b in zip(got, base):
            assert r.residual == pytest.approx(b.residual, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("front", ["single", "panel"])
    @pytest.mark.parametrize("block_size", [4096, 25, 5])
    def test_exact_ties_go_to_the_first_copy(self, front, block_size):
        # block sizes dividing 25 put both copies at the same row of blocks of
        # one shape, so their residuals are equal bit for bit
        codec = scan_codec("explicit")
        for seed in range(5):
            with scan_block(block_size):
                results, picks = recover_all(front, codec, seed, 0.0)
            assert [r.chosen_index for r in results] == [i % 25 for i in picks]

    @pytest.mark.parametrize("front", ["single", "panel"])
    @pytest.mark.parametrize("block_size", [4096, 5])
    def test_cached_and_lazy_codebooks_agree_bitwise(self, front, block_size):
        # a slice of the cached codebook and a freshly decoded block hold the
        # same values, so the scan's products and residuals are the same bits
        cached = SparseCodec(6, 2, 1.0, 0.5)
        lazy = SparseCodec(6, 2, 1.0, 0.5)
        lazy.__dict__["_codebook"] = None   # as if over the size limit
        assert cached._codebook is not None
        for seed in range(5):
            with scan_block(block_size):
                want, _ = recover_all(front, cached, seed, 0.1)
                got, _ = recover_all(front, lazy, seed, 0.1)
            assert [(r.chosen_index, r.residual) for r in got] == \
                [(r.chosen_index, r.residual) for r in want]
