"""Exhaustive codeword pursuit: optimality, ties, block-size invariance."""

import contextlib
import copy
import decimal
import functools
import gc
import math
import mmap
import threading
import tracemalloc
import weakref
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csplab.codecs import (ExplicitCodec, GridCodec, PiecewisePolyCodec,
                           SparseCodec, ceil_snap)
from csplab.measurement import (MeasurementEnsemble, WienerEnsemble, measure,
                                measure_analog, sample_ensemble,
                                sample_wiener_ensemble)
from csplab.piecewise import orthonormal_basis_matrix
from csplab import codecs, solver
from csplab.rng import derive_stream
from csplab.solver import csp_recover, csp_recover_analog, csp_recover_panel


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
        gen = derive_stream(40, 1)
        for _ in range(10):
            idx = int(gen.integers(0, codec.size))
            x = codec.decode(idx)
            res = csp_recover(measure(ens, x), ens, codec, truth=x)
            assert res.error_l2[0] <= 1e-9
            assert res.residual[0] <= 1e-9
            assert np.array_equal(res.reconstruction[0],
                                  codec.decode(res.chosen_index[0]))

    def test_zero_measurement_returns_zero_codeword(self):
        codec = GridCodec(3, 1.0, 0.5)
        ens = sample_ensemble(2, 3, derive_stream(41, 0))
        res = csp_recover(np.zeros(2), ens, codec)
        assert np.array_equal(res.reconstruction[0], np.zeros(3))
        assert res.residual[0] == 0.0
        assert res.candidates_scanned == codec.size

    def test_tie_broken_by_smallest_index(self):
        # duplicate codewords give exactly equal residuals
        cw = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [0.0, 1.0]])
        codec = ExplicitCodec(cw)
        ens = sample_ensemble(3, 2, derive_stream(42, 0))
        y = measure(ens, np.array([0.5, 0.5]))
        res = csp_recover(y, ens, codec)
        assert res.chosen_index[0] == 1

    def test_visit_order_cannot_pick_the_index(self):
        # 19^3 = 6,859 codewords per support, so each support is two blocks.
        # x is level +3 on coordinate 0, codeword 4512 in block 1 of support
        # (0, 1, 2); with column 5 equal to column 0, codeword 24009 (level +3
        # on coordinate 5, in block 0 of support (0, 1, 5)) measures to the
        # same bits, and so do mixes of the two coordinates further on.  A
        # fold that kept the first minimum it visited would pick a block-0 twin.
        codec = SparseCodec(6, 3, 1.0, 0.2)
        ens = sample_ensemble(4, 6, derive_stream(43, 0))
        ens.matrix[:, 5] = ens.matrix[:, 0]
        x = codec.decode(4512)
        assert codec.encode(x) == 4512
        assert np.array_equal(ens.matrix @ codec.decode(24009), ens.matrix @ x)
        y = measure(ens, x)
        assert csp_recover(y, ens, codec).chosen_index[0] == 4512
        panel = csp_recover_panel(np.stack([y, y]), ens, codec)
        assert panel.chosen_index.tolist() == [4512, 4512]


class TestOracleEquivalence:
    @pytest.mark.parametrize("make_codec", [
        lambda: GridCodec(2, 1.0, 0.5),
        lambda: SparseCodec(6, 2, 1.0, 0.5),
        lambda: ExplicitCodec(derive_stream(43, 9).standard_normal((301, 5))),
    ])
    def test_matches_naive_full_scan(self, make_codec):
        codec = make_codec()
        assert codec.size <= 4096
        n = codec.n
        gen = derive_stream(43, 1)
        for i in range(5):
            ens = sample_ensemble(4, n, derive_stream(43, 100 + i))
            y = gen.standard_normal(4)
            res = csp_recover(y, ens, codec)
            idx, resid = naive_scan(y, ens.matrix, codec)
            assert res.chosen_index[0] == idx
            assert res.residual[0] == pytest.approx(resid, abs=1e-9)

    def test_block_size_does_not_change_result(self):
        codec = SparseCodec(6, 2, 1.0, 0.5)
        ens = sample_ensemble(4, 6, derive_stream(44, 0))
        y = derive_stream(44, 1).standard_normal(4)
        base = csp_recover(y, ens, codec)
        for bs in (1, 7, 64, 733):
            with scan_block(bs):
                got = csp_recover(y, ens, codec)
            assert got.chosen_index[0] == base.chosen_index[0]
            assert got.residual[0] == pytest.approx(base.residual[0], abs=1e-12)


class TestEncoderDominance:
    def test_residual_never_worse_than_encoding_the_truth(self):
        # the pivotal inequality: the scan minimum is at most the residual of
        # the truth's own encoding
        codec = GridCodec(4, 1.0, 0.6)
        gen = derive_stream(47, 0)
        for i in range(25):
            ens = sample_ensemble(3, 4, derive_stream(47, 10 + i))
            x = codec.sample_member(gen)
            y = measure(ens, x)
            res = csp_recover(y, ens, codec, truth=x)
            xt = codec.decode(codec.encode(x))
            assert res.residual[0] <= np.linalg.norm(y - measure(ens, xt)) + 1e-12


class TestWeakRegimeStatistics:
    def test_sparse_instance_stays_within_noiseless_bound(self):
        # n=12, k=1, delta=0.05 instance at the eta=2 measurement budget;
        # the tau1=3, tau2=0.75 error bound is 4*delta = 0.2
        codec = SparseCodec(12, 1, 4.0, 0.05)
        d = ceil_snap(2 * codec.rate_bits / math.log2(1 / (math.e * codec.delta)))
        assert d == 8
        bound = 4 * codec.delta
        trials, hits = 500, 0
        gen_signals = derive_stream(48, 0)
        for i in range(trials):
            ens = sample_ensemble(d, 12, derive_stream(48, 100 + i))
            x = codec.sample_member(gen_signals)
            res = csp_recover(measure(ens, x), ens, codec, truth=x)
            hits += res.error_l2[0] <= bound
        assert hits / trials >= 0.99


class TestPanel:
    def test_panel_matches_individual_recovery(self):
        codec = SparseCodec(8, 1, 1.0, 0.3)
        ens = sample_ensemble(5, 8, derive_stream(49, 0))
        gen = derive_stream(49, 1)
        xs = np.array([codec.sample_member(gen) for _ in range(7)])
        ys = np.array([measure(ens, x) for x in xs])
        panel = csp_recover_panel(ys, ens, codec, truths=xs)
        for s in range(7):
            single = csp_recover(ys[s], ens, codec, truth=xs[s])
            assert panel.chosen_index[s] == single.chosen_index[0]
            assert panel.residual[s] == pytest.approx(single.residual[0], abs=1e-9)
            assert panel.error_l2[s] == pytest.approx(single.error_l2[0], abs=1e-12)


class TestAnalog:
    def test_codeword_function_recovers_exactly(self):
        codec = PiecewisePolyCodec(0, 0, 1.0, 0.05, grid=512)
        ens = sample_wiener_ensemble(6, 512, 50, 0)
        f = codec.decode(codec.size - 3)
        y = measure_analog(ens, f)
        res = csp_recover_analog(y, ens, codec, truth=f)
        assert res.chosen_index[0] == codec.size - 3
        assert res.residual[0] <= 1e-9
        assert res.error_l2[0] <= 1e-12

    def test_constant_recovery_within_quantizer_error(self):
        codec = PiecewisePolyCodec(0, 0, 1.0, 0.05, grid=512)
        ens = sample_wiener_ensemble(8, 512, 51, 0)
        from csplab.piecewise import constant_function
        f = constant_function(0.5)
        res = csp_recover_analog(measure_analog(ens, f), ens, codec, truth=f)
        # noiseless, d-dominated: the recovered constant is the quantized one
        assert res.error_l2[0] <= codec.amp / codec.coef_levels + 1e-12

    @pytest.mark.parametrize("block_size", [1, 5, 4096])
    def test_matches_naive_scan_across_groups(self, block_size):
        # 16 breakpoint groups: the chosen index must be global, not group-local;
        # codewords equal as functions tie, so compare residuals, not indices
        codec = ppoly_codec(0, 1, 0.5, 64)
        gen = derive_stream(56, 1)
        for seed in range(4):
            ens = sample_wiener_ensemble(3, codec.grid, seed, 0)
            y = measure_analog(ens, codec.decode(int(gen.integers(0, codec.size))))
            y = y + 0.1 * gen.standard_normal(3)
            with scan_block(block_size):
                res = csp_recover_analog(y, ens, codec)
            naive = [np.linalg.norm(y - measure_analog(ens, codec.decode(i)))
                     for i in range(codec.size)]
            assert res.residual[0] == pytest.approx(min(naive), abs=1e-12)
            assert naive[res.chosen_index[0]] == pytest.approx(res.residual[0], abs=1e-12)

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


def exact_operators(codec, layouts, ens):
    """solver._analog_operators of any layouts (n_layouts, n_breaks) of the
    codec on the ensemble's increments, from the cells of their _geometry."""
    edges, cuts = solver._geometry(codec, layouts, ens.times)[:2]
    return solver._analog_operators(codec, edges, cuts, ens.times,
                                    np.ascontiguousarray(ens.increments.T))


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
        got = exact_operators(codec, breakpoints[None], ens)[0]
        assert np.array_equal(got, mask_group_operator(codec, breakpoints, ens))

    @pytest.mark.parametrize("params", OPERATOR_CODECS)
    def test_every_codec_group_matches_mask_reference_bitwise(self, params):
        codec = ppoly_codec(*params)
        ens = sample_wiener_ensemble(5, codec.grid, 60, 0)
        ops = exact_operators(codec, codec.break_layouts, ens)
        assert len(ops) == codec.n_break_combos
        for got, breakpoints in zip(ops, codec.break_layouts):
            assert np.array_equal(got, mask_group_operator(codec, breakpoints, ens))

    @pytest.mark.parametrize("params", OPERATOR_CODECS + [(1, 0, 0.7, 16)])
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
        # the layout table and the geometry of its cells are built once per
        # codec, by the first recovery; decoding the result unranks one layout
        codec = PiecewisePolyCodec(0, 1, 1.0, 0.5, grid=64)
        ens = sample_wiener_ensemble(4, 64, 63, 0)
        y = measure_analog(ens, codec.decode(codec.size // 2 + 3))
        calls = {"table": 0, "geometry": 0, "unrank": 0}

        def counting(owner, name, key):
            original = getattr(owner, name)

            def counted(*args):
                calls[key] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, counted)

        counting(codecs, "combinations_with_replacement", "table")
        counting(solver, "_geometry", "geometry")
        counting(codec, "_break_unrank", "unrank")
        first = csp_recover_analog(y, ens, codec)
        assert calls == {"table": 1, "geometry": 1, "unrank": 1}
        second = csp_recover_analog(y, ens, codec)
        assert calls == {"table": 1, "geometry": 1, "unrank": 2}
        assert second.chosen_index[0] == first.chosen_index[0] == codec.size // 2 + 3

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
        y = measure_analog(ens, f) + 0.05 * derive_stream(61, 1).standard_normal(6)
        base = csp_recover_analog(y, ens, codec)
        assert base.residual[0] > 0
        assert counts == [256]  # one coefficient grid for all 128 groups
        for bs in (7, 64, 255, 256):
            counts.clear()
            with scan_block(bs):
                got = csp_recover_analog(y, ens, codec)
            assert got.chosen_index[0] == base.chosen_index[0]
            assert got.residual[0] == base.residual[0]
            assert max(counts) == bs  # memory stays O(block * n_coef)


def direct_kernel(y):
    """The direct kernel ||R - y||^2 as a (count, 1) column, written out
    independently of solver._direct: y broadcast over the rows of R, then
    the row sums of squares by einsum into a fresh array, so the references
    below catch a change to the program's kernel."""
    def kernel(R):
        D = R - y
        return np.einsum("ij,ij->i", D, D)[:, None]
    return kernel


def reference_analog_scan(y, ens, codec):
    """Reference scan, one group at a time: each block of a layout's
    coefficient grid times its operator, the direct kernel, and a strict
    fold that keeps the earlier index on ties."""
    ops = exact_operators(codec, codec.break_layouts, ens)
    kernel = direct_kernel(np.asarray(y, dtype=float))
    size = codec.coef_space
    best, at = np.inf, 0
    for r, B in enumerate(ops):
        for offset in range(0, size, solver._BLOCK):
            count = min(solver._BLOCK, size - offset)
            sq = kernel(codec.coef_block(offset, count) @ B)[:, 0]
            j = int(sq.argmin())
            if sq[j] < best:
                best, at = sq[j], r * size + offset + j
    return at, float(np.sqrt(best))


class TestAnalogScanReference:
    """The analog scan against the group-by-group reference, bit for bit:
    the groups that fit a block are scanned many to a block-sized tile."""

    @pytest.mark.parametrize("params,block_size", [
        ((0, 1, 0.2, 256), None),  # 128 groups of 256: eight full tiles of 16
        ((0, 2, 0.9, 64), None),   # 136 groups of 64: tiles of 64, the last of 8
        ((1, 1, 0.6, 64), None),   # 16 groups of exactly one block
        ((2, 0, 0.1, 64), None),   # one group of 32,768: eight blocks
        ((0, 1, 0.2, 256), 1000),  # tiles of 3 groups, the last of 2
        ((0, 2, 0.9, 64), 200),    # tiles of 3 groups, the last of 1
        ((0, 1, 0.2, 256), 100),   # every group split across blocks
    ])
    def test_matches_reference_bitwise(self, params, block_size):
        codec = ppoly_codec(*params)
        gen = derive_stream(64, 1)
        for seed, noise in ((0, 0.0), (1, 0.05), (2, 0.3)):
            ens = sample_wiener_ensemble(5, codec.grid, seed, 64)
            f = codec.decode(int(gen.integers(0, codec.size)))
            y = measure_analog(ens, f) + noise * gen.standard_normal(5)
            with scan_block(block_size or solver._BLOCK):
                res = csp_recover_analog(y, ens, codec)
                want = reference_analog_scan(y, ens, codec)
            assert (res.chosen_index[0], res.residual[0]) == want


# (degree, n_breaks, delta, grid) of small codecs for the analog screen:
# N in {0, 1, 2} and Q in {0, 1, 2, 3}, as far as the coefficient grid stays
# small (N = 1 with Q = 3, and N = 2 with Q >= 2, hold 16.7M+ codewords per
# layout); layouts of Q >= 2 repeat breakpoints, which makes empty pieces
SCREEN_CODECS = [(0, 0, 0.9, 16), (0, 1, 0.9, 16), (0, 2, 0.9, 32), (0, 3, 0.9, 32),
                 (1, 0, 0.7, 16), (1, 1, 0.9, 16), (1, 2, 0.9, 32),
                 (2, 0, 0.7, 16), (2, 1, 0.9, 16)]


def analog_signal(codec, d, seed, noise):
    """A Wiener ensemble of d paths on the codec's grid and the measurements
    of a random codeword plus noise."""
    ens = sample_wiener_ensemble(d, codec.grid, seed, 0)
    gen = derive_stream(seed, 1)
    f = codec.decode(int(gen.integers(0, codec.size)))
    return ens, measure_analog(ens, f) + noise * gen.standard_normal(d)


def off_grid_layouts(codec, gen, count):
    """count sorted breakpoint layouts of the codec's n_breaks on the
    half-grid, between the grid's times as well as on them."""
    halves = np.sort(gen.integers(1, 2 * codec.grid, size=(count, codec.n_breaks)), axis=1)
    return halves / (2 * codec.grid)


def screen(codec, layouts, ens, y):
    """solver._screen of any layouts of the codec on the ensemble's grid,
    with their geometry built for this call."""
    return solver._screen(solver._geometry(codec, layouts, ens.times), codec.amp,
                          ens.increments, y, np.empty_like(ens.increments))


def rebuilt_layouts(monkeypatch):
    """The layout count of every _analog_operators call the solver makes."""
    counts = []
    build = solver._analog_operators

    def counting(codec, edges, cuts, times, inc_t):
        counts.append(len(edges))
        return build(codec, edges, cuts, times, inc_t)

    monkeypatch.setattr(solver, "_analog_operators", counting)
    return counts


@st.composite
def screen_cases(draw):
    return (draw(st.sampled_from(SCREEN_CODECS)), draw(st.integers(1, 8)),
            draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.0, 0.05, 0.3])),
            draw(st.sampled_from([None, 7, 64])))


class TestAnalogScreen:
    """A codec of several breakpoint layouts is screened with operators from
    prefix sums and rescanned exactly where the margin cannot decide; the
    result must be the exhaustive exact scan's, index for index and
    residual bit for bit."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=screen_cases())
    @example(case=((0, 0, 0.9, 16), 3, 1, 0.05, None))   # one layout: no screen
    @example(case=((0, 1, 0.9, 16), 2, 2, 0.3, None))
    @example(case=((0, 2, 0.9, 32), 5, 3, 0.0, None))    # empty pieces tie
    @example(case=((0, 3, 0.9, 32), 4, 4, 0.05, None))
    @example(case=((1, 0, 0.7, 16), 1, 5, 0.3, None))
    @example(case=((1, 1, 0.9, 16), 6, 6, 0.0, 7))       # 37 blocks per layout
    @example(case=((1, 2, 0.9, 32), 8, 7, 0.05, None))
    @example(case=((2, 0, 0.7, 16), 2, 8, 0.0, 7))
    @example(case=((2, 1, 0.9, 16), 3, 9, 0.3, None))    # one block per layout
    @example(case=((2, 1, 0.9, 16), 1, 10, 0.05, 64))    # 64 blocks per layout
    @example(case=((0, 1, 0.9, 16), 8, 11, 0.0, None))   # noiseless codeword: scores cancel ||y||^2
    @example(case=((0, 2, 0.9, 32), 1, 12, 0.0, None))   # d = 1: near-ties across layouts
    @example(case=((1, 1, 0.9, 16), 3, 13, 0.05, 7))     # 37 blocks of 7 rows, a layout per tile
    def test_matches_exhaustive_scan(self, case):
        params, d, seed, noise, block_size = case
        codec = ppoly_codec(*params)
        ens, y = analog_signal(codec, d, seed, noise)
        with scan_block(block_size or solver._BLOCK):
            res = csp_recover_analog(y, ens, codec)
            want = reference_analog_scan(y, ens, codec)
        assert (res.chosen_index[0], res.residual[0]) == want

    @pytest.mark.parametrize("rows", [[5] * 8, [0, 1, 6, 3, 4, 5, 6, 7], [7, 6, 5, 4, 3, 2, 1, 0]])
    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_ties_across_layouts_go_to_the_smallest_index(self, monkeypatch, rows, noise):
        # a layout table whose rows repeat gives equal operators, so equal
        # residuals, in every copy: the first copy's index must win
        base = ppoly_codec(0, 1, 0.9, 16)
        codec = copy.copy(base)
        codec.__dict__["break_layouts"] = base.break_layouts[rows]
        counts = rebuilt_layouts(monkeypatch)
        for seed in range(3):
            ens, y = analog_signal(base, 4, 40 + seed, noise)
            counts.clear()
            res = csp_recover_analog(y, ens, codec)
            assert (res.chosen_index[0], res.residual[0]) == reference_analog_scan(y, ens, codec)
            layout = res.chosen_index[0] // codec.coef_space
            assert layout == rows.index(rows[layout])
            # every copy of the winning layout was rescanned
            assert counts[0] >= rows.count(rows[layout])

    @pytest.mark.parametrize("params", SCREEN_CODECS[1:] + [(0, 1, 0.2, 256)])
    def test_margin_bounds_every_codeword(self, params):
        # for every codeword of every layout, the codec's own and layouts off
        # the grid's times: |Gram score + ||y||^2 - exact| <= the sum of both
        # margins (TestGramOracle checks each against exact arithmetic)
        codec = ppoly_codec(*params)
        gen = derive_stream(65, sum(params[:2]))
        layouts = np.vstack((codec.break_layouts, off_grid_layouts(codec, gen, 6)))
        rows = codec.coef_block(0, codec.coef_space)
        for seed, noise in ((0, 0.0), (1, 0.05), (2, 3.0)):
            ens, y = analog_signal(codec, 3 + seed, 70 + seed, noise)
            _, weights, terms = screen(codec, layouts, ens, y)
            exact = exact_operators(codec, layouts, ens)
            assert len(terms) == 2
            for t in terms:
                assert np.all(t > 0) and np.all(np.isfinite(t))
            margin = sum(terms)
            scores = weights @ solver._features(rows)
            kernel = direct_kernel(y)
            for B, score, total in zip(exact, scores, margin):
                assert np.abs(score + y @ y - kernel(rows @ B)[:, 0]).max() <= total

    def test_screen_rebuilds_one_layout(self, monkeypatch):
        # the 128-layout codec of the analog-groups benchmark, on a smaller
        # grid: the margin is small enough that one layout is rebuilt
        codec = ppoly_codec(0, 1, 0.2, 256)
        counts = rebuilt_layouts(monkeypatch)
        for seed in range(5):
            ens, y = analog_signal(codec, 8, 80 + seed, 0.05)
            csp_recover_analog(y, ens, codec)
        assert counts == [1] * 5


def exact(a):
    """An array of floats as an object array of Fractions, each the float's
    exact value, so that sums and products of them are exact."""
    return np.vectorize(Fraction, otypes=[object])(a)


class TestGramOracle:
    """The two margins of the screen against exact arithmetic.

    For every codeword c of a layout, r = ||y - c B~||^2 is computed in
    Fractions from the float screened operator B~ and the float y.  The
    screen's Gram margin must bound |Gram score + ||y||^2 - r|, and its
    operator margin |s^ - r|, where s^ is the rescan's float value: the
    exact operator of _analog_operators, then the direct kernel.  A float
    comparison of two float paths would hide a term missing from either
    bound wherever both paths happen to round little."""

    # a codec of more codewords per layout than this is checked on a fixed
    # subsample of them
    SAMPLE = 384

    @pytest.mark.parametrize("params,d,noise", [
        ((0, 1, 0.9, 16), 4, 0.0),
        ((0, 1, 0.9, 16), 1, 3.0),
        ((0, 1, 0.9, 16), 2, 1000.0),    # |y| dominates: the b~ part of the Gram margin
        ((1, 0, 0.7, 16), 3, 0.05),
        ((2, 0, 0.7, 16), 2, 3.0),
        ((1, 1, 0.9, 16), 2, 0.05),
        ((1, 1, 0.9, 16), 4, 3.0),
        ((0, 2, 0.9, 32), 4, 0.05),
        ((2, 1, 0.9, 16), 3, 0.05),      # degree 2, two pieces: 4,096 per layout
    ])
    def test_terms_bound_the_real_residual(self, params, d, noise):
        codec = ppoly_codec(*params)
        gen = derive_stream(66, sum(params[:2]) + d)
        layouts = np.vstack((codec.break_layouts, off_grid_layouts(codec, gen, 2)))
        rows = codec.coef_block(0, codec.coef_space)
        ens, y = analog_signal(codec, d, 90 + d, noise)
        screened, weights, (operator, gram) = screen(codec, layouts, ens, y)
        rescan = exact_operators(codec, layouts, ens)
        # the float values come from whole blocks, as in the scan, and are
        # subsampled after
        pick = (np.arange(len(rows)) if len(rows) <= self.SAMPLE
                else np.sort(gen.choice(len(rows), self.SAMPLE, replace=False)))
        scores = (weights @ solver._features(rows))[:, pick]
        kernel = direct_kernel(y)
        Y, C = exact(y), exact(rows[pick])
        yy = (Y * Y).sum()
        for B, Bx, score, op, g in zip(screened, rescan, scores, operator, gram):
            D = C @ exact(B) - Y
            real = (D * D).sum(axis=1)
            assert np.all(abs(exact(score) + yy - real) <= Fraction(g))
            assert np.all(abs(exact(kernel(rows @ Bx)[pick, 0]) - real) <= Fraction(op))


def mixed_increments(kind, d, m, gen):
    """(d, m) increments of one kind: a Wiener path's; gaussians of mixed
    sign scaled by 10^-6 to 10^6 cell by cell, so large cells dominate
    sum |inc| and small ones cancel in the prefix sums; or integers in
    [-3, 3], whose products with the dyadic powers t^j and prefix sums are
    exact, so only the basis and coefficient rounding remain."""
    if kind == "wiener":
        return gen.standard_normal((d, m)) / math.sqrt(m)
    if kind == "mixed":
        return gen.standard_normal((d, m)) * 10.0 ** gen.integers(-6, 7, size=(d, m))
    return gen.integers(-3, 4, size=(d, m)).astype(float)


class TestOperatorBound:
    """E of _screened_operators against exact arithmetic: for every layout,
    the screened operator B~ and the exact operator B^ of _analog_operators,
    both floats, are within E of each other element by element, their
    distance taken in Fractions.  The margins of TestGramOracle read E only
    through sums weighted by amp; this checks each element of it."""

    @pytest.mark.parametrize("params", [(1, 0, 0.7, 16), (1, 1, 0.9, 16), (1, 2, 0.9, 32),
                                        (2, 0, 0.7, 16), (2, 1, 0.9, 16)])
    @pytest.mark.parametrize("kind", ["wiener", "mixed", "integer"])
    def test_bound_holds_elementwise(self, params, kind):
        codec = ppoly_codec(*params)
        gen = derive_stream(67, sum(params[:2]))
        layouts = np.vstack((codec.break_layouts, off_grid_layouts(codec, gen, 4)))
        for d in (1, 3):
            inc = mixed_increments(kind, d, codec.grid, gen)
            ens = WienerEnsemble(inc)
            screened, E = solver._screened_operators(
                solver._geometry(codec, layouts, ens.times), inc, np.empty_like(inc))
            rescan = exact_operators(codec, layouts, ens)
            assert screened.shape == E.shape == rescan.shape
            assert np.all(abs(exact(screened) - exact(rescan)) <= exact(E))


def legendre(k, u):
    """P_k(u) in exact arithmetic, by Bonnet's recurrence."""
    p, q = Fraction(1), u
    for n in range(1, k):
        p, q = q, ((2 * n + 1) * u * q - n * p) / (n + 1)
    return q if k else p


class TestBasisRounding:
    """kappa of _basis_terms against exact arithmetic.  At every grid time t
    of a piece [a, b], the value phi^_k(t) of orthonormal_basis_matrix must
    be within s_k kappa_k of phi_k(t) = s_k P_k(2 (t - a) / (b - a) - 1),
    with s_k = sqrt((2k + 1) / (b - a)): P_k in Fractions, s_k in decimal
    at 60 digits.  The screen reads kappa only through the weight w of the
    codec's geometry, which no margin test can separate from its larger
    terms."""

    GRID = 64

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("a,b", [
        (0.0, 1.0), (0.0, 0.5), (3 / 64, 17 / 64), (0.75, 1.0),   # ends on the grid
        (5 / 128, 77 / 128), (65 / 128, 1.0), (63 / 128, 65 / 128),  # on the half-grid
        (0.1, 0.7), (0.0, 1 / 3),                                   # neither
    ])
    def test_kappa_bounds_the_basis_rounding(self, degree, a, b):
        times = np.arange(self.GRID) / self.GRID
        t = times[(times >= a) & (times < b)]
        got = orthonormal_basis_matrix(a, b, degree, t)
        _, kappa = solver._basis_terms(degree)
        h = Fraction(b) - Fraction(a)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for k in range(degree + 1):
                s = (Decimal(2 * k + 1) * h.denominator / h.numerator).sqrt()
                bound = s * Decimal(kappa[k])
                for value, ti in zip(got[k], t):
                    p = legendre(k, 2 * (Fraction(ti) - Fraction(a)) / h - 1)
                    real = s * (Decimal(p.numerator) / p.denominator)
                    assert abs(Decimal(value) - real) <= bound


class TestAnalogCaches:
    """What a recovery keeps between calls: each codec's screen geometry,
    the thread's transpose workspace and the grid times.  Reusing them must
    keep every bit, and none of them may be written."""

    def test_reuse_keeps_the_bytes(self):
        # d changes the workspace's shape, a second codec the geometry and
        # the grid
        first, second = ppoly_codec(0, 1, 0.2, 256), ppoly_codec(1, 1, 0.9, 16)
        calls = [(first, 8), (first, 3), (first, 8), (second, 8), (first, 8),
                 (second, 3), (first, 3), (second, 3)]
        for seed, (codec, d) in enumerate(calls):
            ens, y = analog_signal(codec, d, 100 + seed, 0.05)
            res = csp_recover_analog(y, ens, codec)
            assert (res.chosen_index[0], res.residual[0]) == reference_analog_scan(y, ens, codec)
        for codec in (first, second):
            geometry = solver._codec_geometry(codec)
            assert geometry is solver._codec_geometry(codec)
            times = np.arange(codec.grid) / codec.grid
            fresh = solver._geometry(codec, codec.break_layouts, times)
            for cached, built in zip(geometry, fresh, strict=True):
                assert cached.shape == built.shape and cached.tobytes() == built.tobytes()

    def test_caches_are_read_only(self):
        codec = ppoly_codec(1, 1, 0.9, 16)
        ens, y = analog_signal(codec, 3, 110, 0.05)
        csp_recover_analog(y, ens, codec)
        for array in solver._codec_geometry(codec):
            assert array.size
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            ens.times[0] = 0.5

    def test_recovery_allocates_less_than_the_increments(self):
        # the analog-groups codec: once warm, a recovery makes no array of
        # the increments' size, so its peak stays below them (fresh
        # 256 KiB arrays sit at glibc's mmap threshold, and were
        # page-faulted afresh in some runs)
        codec = ppoly_codec(0, 1, 0.2, 4096)
        ens, y = analog_signal(codec, 8, 111, 0.05)
        csp_recover_analog(y, ens, codec)
        tracemalloc.start()
        try:
            csp_recover_analog(y, ens, codec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ens.increments.nbytes


class TestPanelBuffer:
    """The panel kernel's memory: one (rows, p) workspace, written in place,
    beside arrays of one band of rows and two boolean arrays of the tile's
    shape."""

    def test_recovery_allocates_one_tile(self):
        # the strong-panel codec and panel: 576 codewords in one tile; the
        # kernel's fresh temporaries and argmin's transposed copy held 2.28
        # tiles at once, a per-scan output 1.53, its workspace 0.29
        codec = SparseCodec(64, 1, 1.0, 0.25)
        ens = sample_ensemble(48, 64, derive_stream(120, 0))
        xs = codec.decode_many(derive_stream(120, 1).integers(0, codec.size, size=200))
        ys = xs @ ens.matrix.T
        csp_recover_panel(ys, ens, codec)
        tracemalloc.start()
        try:
            csp_recover_panel(ys, ens, codec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codec.size == 576
        assert peak < 0.5 * codec.size * len(ys) * 8


@st.composite
def panel_cases(draw):
    band = solver._BAND
    return (draw(st.sampled_from([1, band - 1, band, band + 1, 2 * band + 3])),
            draw(st.sampled_from([1, band - 1, band, band + 1, 200])),
            draw(st.sampled_from([4096, 5, band])), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


class TestPanelReduction:
    """The panel kernel's in-place bands of _BAND rows and its reduction (the
    minimum over the rows, then the first row equal to it) against the
    expression they replace: expanded_kernel with argmin(axis=0), folded
    strictly over the same block grid (reference_block_scan).  The index
    and the residual's bits agree, on tiles with every band remainder, one
    tile or many.  Integer codewords and matrix entries make every product
    exact, so copies of a codeword in one tile, across bands, tie exactly."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=panel_cases())
    @example(case=(solver._BAND + 1, 200, 4096, True, 0))  # copies in both bands
    @example(case=(2 * solver._BAND + 3, solver._BAND, 4096, True, 1))
    @example(case=(2 * solver._BAND + 3, 1, 5, True, 2))  # ties across tiles too
    @example(case=(solver._BAND - 1, solver._BAND + 1, solver._BAND, False, 3))
    def test_matches_expression(self, case):
        rows, p, block, integer, seed = case
        gen = derive_stream(seed, 2)
        d, n = 4, 3
        if integer:
            base = gen.integers(-2, 3, size=(min(rows, 7), n)).astype(float)
            codec = ExplicitCodec(np.resize(base, (rows, n)))
            ens = MeasurementEnsemble(gen.integers(-3, 4, size=(d, n)).astype(float))
            ys = codec.decode_many(gen.integers(0, rows, size=p)) @ ens.matrix.T
        else:
            codec = ExplicitCodec(gen.standard_normal((rows, n)))
            ens = MeasurementEnsemble(gen.standard_normal((d, n)))
            ys = gen.standard_normal((p, d))
        with scan_block(block):
            got = csp_recover_panel(ys, ens, codec)
            at, best, _ = reference_block_scan(ys, ens, codec, expanded_kernel(ys))
        assert got.chosen_index.tolist() == at.tolist()
        assert got.residual.view(np.int64).tolist() == np.sqrt(best).view(np.int64).tolist()
        if integer:    # every signal is a codeword: its first copy, at 0
            assert (got.residual == 0).all()
            assert (got.chosen_index < len(base)).all()

    def test_overflow_is_an_error(self):
        # a tile of three bands: residuals overflow to inf in the first two
        # and to nan (inf - inf) in the third, so the minimum is nan
        gen = derive_stream(121, 2)
        codec = ExplicitCodec(np.vstack((gen.standard_normal((2 * solver._BAND, 3)),
                                         np.full((3, 3), 1e200))))
        ens = MeasurementEnsemble(np.full((4, 3), 1e200))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="minimum residual is not finite"):
            csp_recover_panel(np.ones((2, 4)), ens, codec)


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

    @pytest.mark.parametrize("front", ["single", "panel", "analog"])
    def test_wrong_ensemble_kind_rejected(self, front):
        # each front end used to fail with an AttributeError ('n' or 'm')
        finite = sample_ensemble(4, 3, derive_stream(59, 0))
        wiener = sample_wiener_ensemble(4, 512, 59, 0)
        grid, ppoly = GridCodec(3, 1.0, 0.5), PiecewisePolyCodec(0, 0, 1.0, 0.05, grid=512)
        want, got = ("Wiener", "Measurement") if front == "analog" else ("Measurement", "Wiener")
        with pytest.raises(ValueError, match=f"needs a {want}Ensemble, got a {got}Ensemble"):
            if front == "single":
                csp_recover(np.zeros(4), wiener, grid)
            elif front == "panel":
                csp_recover_panel(np.zeros((2, 4)), wiener, grid)
            else:
                csp_recover_analog(np.zeros(4), finite, ppoly)

    def test_truth_shape_checked(self):
        # a truth of the wrong shape used to broadcast into error_l2, and
        # too few panel truths raised IndexError after the scan
        codec = SparseCodec(8, 1, 1.0, 0.4)
        ens = sample_ensemble(4, 8, derive_stream(57, 0))
        x = codec.decode(5)
        y = measure(ens, x)
        assert csp_recover(y, ens, codec, truth=x).error_l2[0] == 0.0
        for bad in ([0.0], x[None], np.zeros(9)):
            with pytest.raises(ValueError, match="truth"):
                csp_recover(y, ens, codec, truth=bad)
        ys = np.stack([y, y])
        assert csp_recover_panel(ys, ens, codec, truths=[x, x]).error_l2.tolist() == [0.0, 0.0]
        for bad in (np.zeros((2, 1)), x[None], np.stack([x, x, x]), x):
            with pytest.raises(ValueError, match="truth"):
                csp_recover_panel(ys, ens, codec, truths=bad)
        # an analog truth that is not a function failed with an
        # AttributeError once the whole scan had run
        ppoly = PiecewisePolyCodec(0, 0, 1.0, 0.05, grid=512)
        wiener = sample_wiener_ensemble(4, 512, 57, 0)
        f = ppoly.decode(3)
        y = measure_analog(wiener, f)
        assert csp_recover_analog(y, wiener, ppoly, truth=f).error_l2[0] == 0.0
        for bad in (np.zeros(512), "x", [f], ppoly.coef_block(3, 1)):
            with pytest.raises(ValueError, match="truth"):
                csp_recover_analog(y, wiener, ppoly, truth=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_measurements_rejected(self, monkeypatch, bad):
        # no residual could win the fold; fail loudly instead
        codec = GridCodec(3, 1.0, 0.5)
        ens = sample_ensemble(4, 3, derive_stream(55, 0))
        y = np.array([0.0, 0.1, bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            csp_recover(y, ens, codec)
        with pytest.raises(ValueError, match="finite"):
            csp_recover_panel(np.stack([np.zeros(4), y]), ens, codec)
        # a ground truth that is not finite gave a nan or inf error_l2 once
        # the whole scan had run: it is refused before the scan
        truth = np.array([0.0, bad, 0.5])
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_scan", None)
            with pytest.raises(ValueError, match="ground truths must be finite"):
                csp_recover(np.zeros(4), ens, codec, truth=truth)
            with pytest.raises(ValueError, match="ground truths must be finite"):
                csp_recover_panel(np.zeros((2, 4)), ens, codec,
                                  truths=np.stack([codec.decode(0), truth]))
        ppoly = PiecewisePolyCodec(0, 0, 1.0, 0.05, grid=512)
        with pytest.raises(ValueError, match="finite"):
            csp_recover_analog(y, sample_wiener_ensemble(4, 512, 55, 0), ppoly)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_ensemble_rejected(self, bad):
        # refused when built, before any product: a nan minimum matched no
        # tile, so the fold's int64-max sentinel reached decode as an
        # IndexError, and 0 * inf in the products warned first
        matrix = sample_ensemble(4, 3, derive_stream(58, 0)).matrix.copy()
        matrix[1, 2] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            MeasurementEnsemble(matrix)

    def test_overflowing_products_rejected(self):
        # finite entries whose products overflow still reach the scan's check
        codec = ExplicitCodec([[1e200, 1e200, 1e200], [2e200, 1e200, 3e200]])
        ens = MeasurementEnsemble(np.full((4, 3), 1e200))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="minimum residual is not finite"):
                csp_recover(np.zeros(4), ens, codec)
            # the expanded kernel takes inf - inf first
            with np.errstate(invalid="ignore"), \
                    pytest.raises(ValueError, match="minimum residual is not finite"):
                csp_recover_panel(np.ones((2, 4)), ens, codec)
        # the analog screen's margins overflow, with no errstate here: their
        # layouts are rescanned exactly, and that minimum overflows too
        ppoly = ppoly_codec(0, 1, 0.2, 256)
        wiener, y = analog_signal(ppoly, 8, 80, 0.05)
        with pytest.raises(ValueError, match="minimum residual is not finite"):
            csp_recover_analog(y * 1e300, wiener, ppoly)

    def test_non_finite_increments_rejected(self):
        # an inf minimum matched itself, so the scan returned an inf residual;
        # the increments are now refused when the ensemble is built
        increments = sample_wiener_ensemble(4, 512, 58, 0).increments.copy()
        increments[2, 100] = np.inf
        with pytest.raises(ValueError, match="increments must be finite"):
            WienerEnsemble(increments)


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
        return ExplicitCodec(np.tile(derive_stream(62, 0).standard_normal((25, 3)),
                                     (2, 1)))
    if name == "ppoly16":
        return ppoly_codec(0, 1, 0.5, 64)   # 16 groups of 16 coefficient rows
    return ppoly_codec(1, 1, 0.9, 32)       # 8 groups of 256


def recover_all(front, codec, seed, noise):
    """Recover three codewords (plus noise) with one solver front end:
    the chosen indices, their residuals and the three indices drawn."""
    gen = derive_stream(seed, 1)
    picks = [int(i) for i in gen.integers(0, codec.size, size=3)]
    if front == "analog":
        ens = sample_wiener_ensemble(3, codec.grid, seed, 0)
        out = []
        for i in picks:
            f = codec.decode(i)
            y = measure_analog(ens, f) + noise * gen.standard_normal(3)
            out.append(csp_recover_analog(y, ens, codec, truth=f))
        return [r.chosen_index[0] for r in out], [r.residual[0] for r in out], picks
    ens = sample_ensemble(3, codec.n, derive_stream(seed, 0))
    xs = np.array([codec.decode(i) for i in picks])
    ys = np.array([measure(ens, x) for x in xs]) + noise * gen.standard_normal((3, 3))
    if front == "panel":
        panel = csp_recover_panel(ys, ens, codec, truths=xs)
        return panel.chosen_index.tolist(), panel.residual.tolist(), picks
    out = [csp_recover(y, ens, codec, truth=x) for y, x in zip(ys, xs)]
    return [r.chosen_index[0] for r in out], [r.residual[0] for r in out], picks


class TestTileAlignment:
    @pytest.mark.parametrize("name", ["grid", "sparse", "explicit", "ppoly16"])
    @pytest.mark.parametrize("rows", [1, 7, 4096])
    def test_every_tile_starts_on_a_cache_line(self, name, rows):
        # where a buffer starts within a cache line moved the scan's speed;
        # every tile's product is a prefix of the page-aligned tile workspace
        codec = scan_codec(name)
        starts = []

        def kernel(R):
            starts.append(R.ctypes.data % 64)
            sq = np.einsum("ij,ij->i", R, R)
            j = sq.argmin(keepdims=True)
            return sq[j], j

        if name == "ppoly16":
            ens = sample_wiener_ensemble(3, codec.grid, 63, 0)
            ops = exact_operators(codec, codec.break_layouts, ens)
            plan = (lambda g, count: ops[g:g + count], len(ops), codec.coef_space,
                    codec.coef_block)
        else:
            plan = solver._finite_plan(sample_ensemble(3, codec.n, derive_stream(63, 0)),
                                       codec)
        with scan_block(rows):
            solver._scan(*plan, np.zeros((1, 3)), lambda ys, tile_rows: kernel)
        assert starts and set(starts) == {0}


def in_thread(task):
    """task() run in a fresh thread, which starts with no workspace; its
    result, or its exception raised here."""
    out = {}

    def run():
        try:
            out["value"] = task()
        except BaseException as exc:    # re-raised in the calling thread
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


def mapping(work):
    """The mmap under a _workspace array."""
    while not isinstance(work, memoryview):
        work = work.base
    return work.obj


def held():
    """The calling thread's workspaces, by role."""
    return dict(vars(solver._LOCAL))


class TestWorkspace:
    """The scan's only allocator: one page-aligned private mapping per role
    per thread, handed out again while the role's shape repeats and
    replaced, not added to, when it changes; one over _KEEP_BYTES is not
    kept past its scan."""

    @pytest.mark.parametrize("shape", [(0,), (1,), (3,), (7, 5), (4096, 12), (2, 3, 5)])
    def test_reused_while_the_shape_repeats(self, shape):
        def task():
            work = solver._workspace("tile", *shape)
            assert work.shape == shape and work.ctypes.data % mmap.PAGESIZE == 0
            assert work.flags.c_contiguous and work.flags.writeable
            work[...] = 7.0
            again = solver._workspace("tile", *shape)
            assert again is work and (again == 7.0).all()
            return held()
        assert list(in_thread(task)) == ["tile"]

    def test_an_empty_panel_recovers_nothing(self):
        # its kernel output has no cells, a mapping of length 0 to mmap
        codec = SparseCodec(8, 2, 1.0, 0.4)
        ens = sample_ensemble(5, 8, derive_stream(135, 0))
        result = csp_recover_panel(np.zeros((0, 5)), ens, codec, truths=np.zeros((0, 8)))
        assert result.chosen_index.shape == result.residual.shape == (0,)
        assert result.reconstruction.shape == (0, 8) and result.error_l2.shape == (0,)

    def test_a_shape_change_replaces_the_mapping(self):
        def task():
            old = weakref.ref(mapping(solver._workspace("y", 4, 3)))
            new = solver._workspace("y", 5, 3)
            gc.collect()
            assert old() is None and new.shape == (5, 3)
            return held()
        assert list(in_thread(task)) == ["y"]

    def test_one_mapping_per_role_per_thread(self):
        codec = SparseCodec(8, 2, 1.0, 0.4)
        ens = sample_ensemble(5, 8, derive_stream(130, 0))
        ys = codec.decode_many(np.arange(3)) @ ens.matrix.T
        analog = ppoly_codec(1, 1, 0.9, 16)
        wiener, y = analog_signal(analog, 4, 131, 0.05)

        def task():
            csp_recover(ys[0], ens, codec)
            csp_recover_panel(ys, ens, codec)
            csp_recover_analog(y, wiener, analog)
            csp_recover(ys[1], ens, codec)
            return held()

        mine, theirs = in_thread(task), in_thread(task)
        assert sorted(mine) == sorted(theirs) == ["inc", "out", "tile", "y"]
        maps = [mapping(w) for w in (*mine.values(), *theirs.values())]
        assert len({id(m) for m in maps}) == 8
        # the last scan's shapes: the direct kernel's, on one tile
        assert mine["tile"].shape == mine["y"].shape == (codec.size, 5)
        assert mine["out"].shape == (codec.size,)
        assert mine["inc"].shape == (analog.grid, 4)
        assert all(w.ctypes.data % mmap.PAGESIZE == 0 for w in mine.values())

    @pytest.mark.parametrize("p, kept", [(200, True), (2_000, False)])
    def test_a_large_workspace_is_released_with_its_scan(self, p, kept):
        # the strong-panel workload's shape: 576 codewords in one tile, whose
        # (576, 200) kernel output (0.9 MB) the thread keeps; 2,000 signals
        # make it 9.2 MB, over _KEEP_BYTES, and it goes when the scan returns
        codec = SparseCodec(64, 1, 1.0, 0.25)
        ens = sample_ensemble(48, 64, derive_stream(136, 0))
        ys = derive_stream(136, 1).standard_normal((p, 48))

        def task():
            csp_recover_panel(ys, ens, codec)
            return held()

        roles = in_thread(task)
        assert ("out" in roles) == kept == (576 * p * 8 <= solver._KEEP_BYTES)
        assert roles["tile"].shape == (576, 48)
        if kept:
            assert roles["out"].shape == (576, p)

    def test_warm_recovery_allocates_less_than_a_tile(self):
        # the weak-scan codec: 476,656 codewords in tiles of 4,096 x 12
        codec = SparseCodec(32, 2, 1.0, 0.1)
        ens = sample_ensemble(12, 32, derive_stream(132, 0))
        x = codec.decode(12345)
        y = ens.matrix @ x + 0.05 * derive_stream(132, 1).standard_normal(12)
        first = csp_recover(y, ens, codec, truth=x)
        maps = {role: mapping(work) for role, work in held().items()}
        tracemalloc.start()
        try:
            again = csp_recover(y, ens, codec, truth=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert codec.size == 476_656
        assert again.chosen_index == first.chosen_index
        # the workspaces, which tracemalloc does not see, are the same
        # mappings: a warm scan makes none
        assert {role: mapping(work) for role, work in held().items()} == maps
        assert peak < solver._BLOCK * 12 * 8

    def test_results_hold_no_workspace(self):
        codec = SparseCodec(8, 2, 1.0, 0.4)
        ens = sample_ensemble(5, 8, derive_stream(133, 0))
        xs = codec.decode_many(np.arange(40, 44))
        ys = xs @ ens.matrix.T
        analog = ppoly_codec(1, 1, 0.9, 16)

        def analog_call(i):
            wiener, y = analog_signal(analog, 4, 134 + i, 0.05)
            return csp_recover_analog(y, wiener, analog)

        calls = [lambda i: csp_recover(ys[i], ens, codec, truth=xs[i]),
                 lambda i: csp_recover_panel(ys[2 * i:2 * i + 2], ens, codec,
                                             truths=xs[2 * i:2 * i + 2]),
                 analog_call]
        for call in calls:
            first = call(0)
            kept = copy.deepcopy(first)
            call(1)
            for name in ("chosen_index", "residual", "error_l2"):
                got, want = getattr(first, name), getattr(kept, name)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.tobytes() == want.tobytes()
            fields = [first.chosen_index, first.residual]
            if isinstance(first.reconstruction, np.ndarray):
                assert first.reconstruction.tobytes() == kept.reconstruction.tobytes()
                fields.append(first.reconstruction)
            assert not any(np.shares_memory(f, w) for f in fields for w in held().values())


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
        base, base_res, _ = recover_all(front, codec, seed, 0.1)
        with scan_block(block_size):
            got, got_res, _ = recover_all(front, codec, seed, 0.1)
        assert got == base
        for r, b in zip(got_res, base_res):
            assert r == pytest.approx(b, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("front", ["single", "panel"])
    @pytest.mark.parametrize("block_size", [4096, 25, 5])
    def test_exact_ties_go_to_the_first_copy(self, front, block_size):
        # block sizes dividing 25 put both copies at the same row of blocks of
        # one shape, so their residuals are equal bit for bit
        codec = scan_codec("explicit")
        for seed in range(5):
            with scan_block(block_size):
                chosen, _, picks = recover_all(front, codec, seed, 0.0)
            assert chosen == [i % 25 for i in picks]


def reference_block_scan(ys, ens, codec, kernel):
    """Reference finite scan, as it ran before codewords were grouped by
    support: every block of the fixed _BLOCK-row grid over the whole
    codebook read with decode_many, times the transposed matrix, the
    kernel, and a strict fold that keeps the earlier index on ties.  Returns
    the chosen indices, their squared residuals and every squared residual,
    (size, p)."""
    p = len(ys)
    best, at = np.full(p, np.inf), np.zeros(p, dtype=np.int64)
    every = []
    for start in range(0, codec.size, solver._BLOCK):
        count = min(solver._BLOCK, codec.size - start)
        sq = kernel(codec.decode_many(np.arange(start, start + count)) @ ens.matrix.T)
        every.append(sq.copy())
        j = sq.argmin(axis=0)
        m = sq[j, np.arange(p)]
        better = m < best
        best[better] = m[better]
        at[better] = start + j[better]
    return at, best, np.concatenate(every)


def expanded_kernel(ys):
    """The panel's kernel ||R c||^2 + ||y||^2 - 2<R c, y>, clipped at 0."""
    yn = np.einsum("ij,ij->i", ys, ys)

    def kernel(R):
        rn = np.einsum("ij,ij->i", R, R)
        return np.maximum(rn[:, None] + yn[None, :] - 2.0 * (R @ ys.T), 0.0)
    return kernel


# (class, n, k, steps): L = 2 * steps + 1 levels per support coordinate
GROUPED_CODECS = {
    "sparse-k1": ("sparse", 10, 1, 20),        # 10 supports of 41
    "sparse-small": ("sparse", 6, 2, 3),       # 15 supports of 49 in one block
    "sparse-cross": ("sparse", 8, 2, 12),      # 625 per support: blocks cross supports
    "sparse-large": ("sparse", 5, 3, 8),       # 10 supports of 4,913 > _BLOCK
    "sparse-wide": ("sparse", 4, 2, 32),       # 6 supports of 4,225 > _BLOCK
    "grid-small": ("grid", 2, 2, 5),           # one support of 121
    "grid-large": ("grid", 3, 3, 8),           # one support of 4,913 > _BLOCK
    "grid-4": ("grid", 4, 4, 4),               # one support of 6,561 > _BLOCK
}


@functools.lru_cache(maxsize=None)
def grouped_codec(name):
    """A codec of GROUPED_CODECS."""
    kind, n, k, steps = GROUPED_CODECS[name]
    delta = math.sqrt(k) / steps
    codec = GridCodec(n, 1.0, delta) if kind == "grid" else SparseCodec(n, k, 1.0, delta)
    assert codec.levels_per_dim == 2 * steps + 1
    return codec


@st.composite
def grouped_cases(draw):
    return (draw(st.sampled_from(sorted(GROUPED_CODECS))),
            draw(st.sampled_from(["single", "panel"])), draw(st.integers(1, 8)),
            draw(st.sampled_from([0.0, 0.05, 0.3])), draw(st.integers(0, 2**32 - 1)))


class TestFiniteScanReference:
    """The sparse and grid scans against the whole-codebook block reference.
    For d >= 2 every product is a gemm, whose rows have the same bits over
    the k support columns as over all n columns with exact zeros, so the
    index and the residual agree bit for bit.  At d = 1 the products are
    gemv, which can round a k-term and an n-term sum differently in the
    last bits, so there the residual agrees to rounding and the chosen
    codeword's residual is minimal to rounding: to 1e-12 for the direct
    kernel.  The panel's expanded kernel cancels ||y||^2 against the
    codeword's terms, so its squared residual agrees to a few ulps of
    (||y|| + |a| . |c|)^2, the size of those terms, and no better: its square
    root near 0 moves by up to sqrt(eps) * ||y||.  The two pinned d = 1
    panel cases miss 1e-12 on the residual itself, as about 1% of d = 1
    panel signals do (134 of 10,800 over 150 seeds per codec and noise)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=grouped_cases())
    @example(case=("sparse-large", "single", 5, 0.05, 1))  # remainder blocks of 817
    @example(case=("sparse-large", "single", 2, 0.3, 6))   # remainder blocks of 817
    @example(case=("sparse-cross", "single", 3, 0.05, 7))  # 28 supports: tiles of 6, the last of 4
    @example(case=("sparse-cross", "panel", 2, 0.3, 8))    # 28 supports: tiles of 6, the last of 4
    @example(case=("sparse-wide", "panel", 3, 0.0, 2))
    @example(case=("grid-4", "panel", 2, 0.3, 3))
    @example(case=("sparse-cross", "single", 1, 0.05, 4))
    @example(case=("sparse-large", "panel", 1, 0.0, 5))
    @example(case=("sparse-large", "panel", 1, 0.0, 317245))  # 5.3e-9 against 0
    @example(case=("sparse-cross", "panel", 1, 0.3, 1))  # 2.1e-12 below the reference
    def test_matches_block_reference(self, case):
        name, front, d, noise, seed = case
        codec = grouped_codec(name)
        gen = derive_stream(seed, 1)
        ens = sample_ensemble(d, codec.n, derive_stream(seed, 0))
        xs = np.array([codec.decode(int(i)) for i in gen.integers(0, codec.size, size=3)])
        ys = xs @ ens.matrix.T + noise * gen.standard_normal((3, d))
        if front == "panel":
            panel = csp_recover_panel(ys, ens, codec)
            want = reference_block_scan(ys, ens, codec, expanded_kernel(ys))
            pairs = [(panel.chosen_index[s], panel.residual[s], want, s) for s in range(3)]
        else:
            pairs = []
            for y in ys:
                res = csp_recover(y, ens, codec)
                pairs.append((res.chosen_index[0], res.residual[0],
                              reference_block_scan(y[None], ens, codec, direct_kernel(y)), 0))
        for chosen, residual, (at, best, every), s in pairs:
            if d >= 2:
                assert (chosen, residual) == (at[s], math.sqrt(best[s]))
            elif front == "panel":
                terms = np.abs(codec.decode(int(chosen))) @ np.abs(ens.matrix[0])
                tol = 4 * np.finfo(float).eps * (abs(ys[s, 0]) + terms) ** 2
                assert residual ** 2 == pytest.approx(best[s], abs=tol)
                assert every[chosen, s] <= residual ** 2 + tol
            else:
                assert residual == pytest.approx(math.sqrt(best[s]), abs=1e-12)
                assert math.sqrt(every[chosen, s]) <= residual + 1e-12
