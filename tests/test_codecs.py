"""Codec constructions: rates, covering, enumeration, encode/decode."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csplab import codecs
from csplab.codecs import (CapacityError, DomainError, ExplicitCodec,
                           GridCodec, PiecewisePolyCodec, SparseCodec,
                           codec_from_config, entropy_lower_bound, rd_profile)
from csplab.piecewise import constant_function, piecewise_constant
from csplab.rng import derive_stream


def brute_force_nearest(codec, x):
    cw = codec.decode_many(np.arange(codec.size))
    d2 = ((cw - np.asarray(x)) ** 2).sum(axis=1)
    return int(np.argmin(d2)), float(np.sqrt(d2.min()))


class TestGridCodec:
    def test_worked_example_n2(self):
        c = GridCodec(2, 1.0, 0.5)
        assert c.levels_per_dim == 7
        assert c.size == 49
        assert c.rate_bits == pytest.approx(math.log2(49))
        # worst case quantization: half the cell diagonal, probed at the
        # deepest point of the center cell
        assert c.worst_case_distortion() == pytest.approx(0.25)
        corner = np.full(2, 0.5 * c.spacing)
        err = np.linalg.norm(corner - c.decode(c.encode(corner)))
        assert err == pytest.approx(0.25)

    def test_three_point_line(self):
        c = GridCodec(1, 1.0, 1.0)
        assert c.size == 3
        got = [c.decode(i)[0] for i in range(3)]
        assert got == [-1.0, 0.0, 1.0]

    def test_rate_within_construction_bound(self):
        # r <= (1/2) n log2 n + n log2(rho/delta) + 3n
        for n, rho, delta in [(1, 1, 0.5), (2, 1, 0.5), (3, 2, 0.1),
                              (4, 1, 0.25), (6, 0.5, 0.05)]:
            c = GridCodec(n, rho, delta, cap=None)
            bound = 0.5 * n * math.log2(n) + n * math.log2(rho / delta) + 3 * n
            assert c.rate_bits <= bound + 1e-9

    def test_encode_matches_worked_point(self):
        c = GridCodec(2, 1.0, 0.5)
        x = np.array([0.2, -0.2])
        got = c.decode(c.encode(x))
        want = c.spacing * np.array([1.0, -1.0])  # 0.35355, -0.35355
        assert np.allclose(got, want, atol=1e-12)

    def test_encode_equals_brute_force(self):
        c = GridCodec(2, 1.0, 0.5)
        gen = derive_stream(10, 0)
        for _ in range(100):
            x = c.sample_member(gen)
            idx = c.encode(x)
            bf_idx, _ = brute_force_nearest(c, x)
            assert idx == bf_idx

    def test_covering_invariant(self):
        c = GridCodec(3, 1.0, 0.4)
        gen = derive_stream(11, 0)
        for _ in range(1000):
            x = c.sample_member(gen)
            err = np.linalg.norm(x - c.decode(c.encode(x)))
            assert err <= c.delta + 1e-12

    def test_codeword_fixed_points(self):
        c = GridCodec(2, 1.0, 0.5)
        for i in range(c.size):
            assert c.encode(c.decode(i)) == i

    def test_enumeration_bijective(self):
        c = GridCodec(2, 1.0, 0.5)
        cw = c.decode_many(np.arange(c.size))
        assert len(np.unique(cw, axis=0)) == c.size

    def test_out_of_ball_rejected(self):
        c = GridCodec(2, 1.0, 0.5)
        with pytest.raises(DomainError):
            c.encode(np.array([0.9, 0.9]))  # norm 1.27, not a codeword

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_rejected(self, bad):
        # a nan or inf used to round to a grid digit of its own (or overflow)
        with pytest.raises(DomainError, match="finite"):
            GridCodec(2, 1.0, 0.5).encode(np.array([bad, 0.0]))

    def test_decode_reads_indices_past_int64(self):
        # about 1e22 codewords: decode takes any Python int, digit by digit
        c = GridCodec(8, 1.0, 0.01, cap=None)
        assert c.size > 2**64
        top = c.steps * c.spacing
        assert c.decode(c.size - 1).tolist() == [top] * 8
        assert c.decode(c.size // 2).tolist() == [0.0] * 8
        assert c.decode(0).tolist() == [-top] * 8

    def test_index_string_round_trip(self):
        c = GridCodec(2, 1.0, 0.5)
        idx = c.encode(np.array([0.2, -0.2]))
        again = int(str(idx))
        assert np.array_equal(c.decode(again), c.decode(idx))

    def test_capacity_error_names_cap(self):
        with pytest.raises(CapacityError) as err:
            GridCodec(8, 1.0, 0.01)
        assert "cap" in str(err.value)
        assert str(err.value).startswith("grid codec: ")
        GridCodec(8, 1.0, 0.01, cap=None)  # uncapped build is fine
        with pytest.raises(CapacityError, match="^sparse codec: "):
            SparseCodec(8, 8, 1.0, 0.01)

    def test_is_sparse_codec_with_k_equal_n(self):
        # same codebook, encoder and cell corners; only the rate formula,
        # the class draw and the descriptor are the grid's own
        for n, rho, delta in [(1, 1.0, 1.0), (2, 1.0, 0.5), (3, 1.0, 0.4)]:
            g, s = GridCodec(n, rho, delta), SparseCodec(n, n, rho, delta)
            assert g.size == s.size
            assert g.rate_bits == n * math.log2(g.levels_per_dim)
            assert g.rate_bits == pytest.approx(s.rate_bits)
            assert np.array_equal(g.decode_many(np.arange(g.size)),
                                  s.decode_many(np.arange(s.size)))
            for i in range(g.size):
                cw = g.decode(i)
                assert g.encode(cw) == s.encode(cw) == i
                corner, sparse_corner = g.stress_member(i), s.stress_member(i)
                assert (corner is None) == (sparse_corner is None)
                assert corner is None or np.array_equal(corner, sparse_corner)
            assert g.config() == {"class": "grid", "n": n, "rho": rho,
                                  "delta": delta, "cap": g.cap}

    def test_preconditions(self):
        with pytest.raises(ValueError):
            GridCodec(0, 1.0, 0.5)
        with pytest.raises(ValueError):
            GridCodec(2, 1.0, 0.0)
        with pytest.raises(ValueError):
            GridCodec(2, 1.0, 2.0)  # delta > rho*sqrt(n)


class TestSparseCodec:
    def test_worked_example(self):
        c = SparseCodec(4, 1, 1.0, 0.5)
        assert c.size == 20  # 4 supports x 5 grid points
        assert c.rate_bits == pytest.approx(math.log2(20))

    def test_rate_within_construction_bound(self):
        # r <= log2 C(n,k) + k log2(sqrt(k) rho/delta) + 3k
        for n, k, rho, delta in [(4, 1, 1, 0.5), (12, 1, 1, 0.05),
                                 (16, 2, 1, 0.1), (10, 3, 2, 0.4)]:
            c = SparseCodec(n, k, rho, delta, cap=None)
            bound = (math.log2(math.comb(n, k))
                     + k * math.log2(math.sqrt(k) * rho / delta) + 3 * k)
            assert c.rate_bits <= bound + 1e-9

    def test_covering_on_sampled_members(self):
        c = SparseCodec(6, 2, 1.0, 0.5)
        gen = derive_stream(12, 0)
        for _ in range(1000):
            x = c.sample_member(gen)
            err = np.linalg.norm(x - c.decode(c.encode(x)))
            assert err <= c.delta + 1e-12

    def test_exactly_sparse_encode_is_brute_force_nearest(self):
        c = SparseCodec(6, 2, 1.0, 0.5)  # |C| = 735 <= 4096
        gen = derive_stream(13, 0)
        for _ in range(100):
            x = c.sample_member(gen)
            assert np.count_nonzero(x) == c.k
            idx = c.encode(x)
            bf_idx, bf_dist = brute_force_nearest(c, x)
            assert idx == bf_idx
            assert np.linalg.norm(x - c.decode(idx)) == pytest.approx(bf_dist)

    def test_grid_aligned_sparse_signal_is_fixed_point(self):
        c = SparseCodec(6, 2, 1.0, 0.5)
        x = np.zeros(6)
        x[1] = c.spacing
        x[4] = -2 * c.spacing
        idx = c.encode(x)
        assert np.array_equal(c.decode(idx), x)

    def test_duplicates_canonicalized(self):
        c = SparseCodec(4, 2, 1.0, 0.5)
        # the zero codeword appears once per support; encode returns the
        # first occurrence, and decode/encode is idempotent by value
        zero_idx = c.encode(np.zeros(4))
        for i in range(c.size):
            cw = c.decode(i)
            j = c.encode(cw)
            assert j <= i
            assert np.array_equal(c.decode(j), cw)
            if np.count_nonzero(cw) == c.k:
                assert j == i
        assert np.array_equal(c.decode(zero_idx), np.zeros(4))

    def test_sparsity_violation_rejected(self):
        c = SparseCodec(6, 2, 1.0, 0.5)
        with pytest.raises(DomainError):
            c.encode(np.array([0.3, 0.3, 0.3, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            SparseCodec(4, 5, 1.0, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_rejected(self, bad):
        c = SparseCodec(6, 2, 1.0, 0.5)
        with pytest.raises(DomainError, match="finite"):
            c.encode(np.array([bad, 0.0, 0.0, 0.0, 0.0, 0.0]))


class TestPiecewisePolyCodec:
    def test_constants_degenerate_to_scalar_quantizer(self):
        c = PiecewisePolyCodec(0, 0, 1.0, 0.05)
        assert c.size == 2**c.coef_bits
        # distortion is exactly the half-spacing of the scalar quantizer
        half = c.amp / c.coef_levels
        assert c.audit_worst == pytest.approx(half)
        assert half <= c.delta

    def test_q1_distortion_audit(self):
        c = PiecewisePolyCodec(0, 1, 1.0, 0.1)
        gen = derive_stream(14, 0)
        worst = 0.0
        for _ in range(200):
            f = c.sample_member(gen)
            worst = max(worst, f.l2_distance(c.decode(c.encode(f))))
        assert worst <= 0.1

    def test_rate_step_when_halving_delta(self):
        a = PiecewisePolyCodec(0, 1, 1.0, 0.1)
        b = PiecewisePolyCodec(0, 1, 1.0, 0.05)
        n_scalars = (a.n_breaks + 1) * (a.degree + 1) + a.n_breaks
        dr = b.rate_bits - a.rate_bits
        # one extra bit per coefficient plus two per breakpoint per halving
        assert n_scalars <= dr <= n_scalars + 2 * a.n_breaks + 1

    def test_codeword_round_trip(self):
        c = PiecewisePolyCodec(0, 1, 1.0, 0.2)
        for idx in [0, 1, c.size // 2, c.size - 1]:
            f = c.decode(idx)
            j = c.encode(f)
            assert c.decode(j).l2_distance(f) <= 1e-12

    def test_degree_one_round_trip(self):
        c = PiecewisePolyCodec(1, 0, 1.0, 0.2)
        gen = derive_stream(15, 0)
        for _ in range(50):
            f = c.sample_member(gen)
            err = f.l2_distance(c.decode(c.encode(f)))
            assert err <= c.delta + 1e-12

    def test_membership_violations_rejected(self):
        c = PiecewisePolyCodec(0, 0, 1.0, 0.1)
        with pytest.raises(DomainError):
            c.encode(constant_function(1.5))
        with pytest.raises(DomainError):
            c.encode(piecewise_constant([0.5], [0.5, -0.5]))  # too many breaks

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            PiecewisePolyCodec(0, 1, 1.0, 0.01, grid=64)

    @pytest.mark.parametrize("params", [(0, 1, 1.0, 0.2), (1, 1, 1.0, 0.3),
                                        (0, 0, 1.0, 0.05), (2, 0, 1.0, 0.5)])
    def test_audit_bumps_bits_that_start_low(self, monkeypatch, params):
        # the budget-derived start passes the audit on every config tried, so
        # start one coefficient bit (and two breakpoint bits) low: the audit
        # must fail there and the bump must land on the normal build
        want = PiecewisePolyCodec(*params, grid=4096)
        initial = PiecewisePolyCodec._initial_bits

        def low(self):
            bc, bt = initial(self)
            return bc - 1, bt - 2 if self.n_breaks else bt

        monkeypatch.setattr(PiecewisePolyCodec, "_initial_bits", low)
        got = PiecewisePolyCodec(*params, grid=4096)
        assert (got.coef_bits, got.break_bits, repr(got.audit_worst)) == (
            want.coef_bits, want.break_bits, repr(want.audit_worst))


# codecs for the round-trip properties; the "lazy" ones are the large ones,
# with over a million codewords each
ROUND_TRIP_CODECS = {
    "sparse": lambda: SparseCodec(6, 2, 1.0, 0.5),
    "sparse-lazy": lambda: SparseCodec(4, 2, 1.0, math.sqrt(2) / 724),  # 1,449^2 x 2
    "grid": lambda: GridCodec(3, 1.0, 0.3),
    "grid-lazy": lambda: GridCodec(5, 1.0, 0.3),           # 17^5 x 5
    "ppoly": lambda: PiecewisePolyCodec(0, 1, 1.0, 0.2),
    "ppoly-deg1": lambda: PiecewisePolyCodec(1, 1, 1.0, 0.3, grid=256),
}
FINITE = ("sparse", "sparse-lazy", "grid", "grid-lazy")


@functools.lru_cache(maxsize=None)
def round_trip_codec(name):
    return ROUND_TRIP_CODECS[name]()


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(FINITE), data=st.data())
    def test_finite_encode_returns_first_occurrence(self, name, data):
        c = round_trip_codec(name)
        i = data.draw(st.integers(0, c.size - 1))
        x = c.decode(i)
        j = c.encode(x)
        assert j <= i
        assert c.decode(j).tobytes() == x.tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(name=st.sampled_from(("ppoly", "ppoly-deg1")), data=st.data())
    def test_ppoly_codeword_is_a_fixed_point(self, name, data):
        c = round_trip_codec(name)
        f = c.decode(data.draw(st.integers(0, c.size - 1)))
        assert c.decode(c.encode(f)).l2_distance(f) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(sorted(ROUND_TRIP_CODECS)),
           seed=st.integers(0, 2**32 - 1))
    def test_class_samples_land_within_delta(self, name, seed):
        c = round_trip_codec(name)
        member = c.sample_member(derive_stream(seed, 0))
        got = c.decode(c.encode(member))
        if name in FINITE:
            err = float(np.linalg.norm(member - got))
        else:
            err = member.l2_distance(got)
        assert err <= c.delta * (1 + 1e-9)


class TestCodebookCache:
    """What a sparse or grid codec keeps: its support table.  No codebook
    and no level rows are kept."""

    @pytest.mark.parametrize("name", ["sparse", "grid"])
    def test_blocks_handed_out_are_fresh(self, name):
        c = round_trip_codec(name)
        every = np.arange(c.size)
        before = c.decode_many(every)
        for book in (c.decode_many(every), c.decode_many(np.arange(3)), c.decode(0)):
            book[...] = 7.0
        assert np.array_equal(c.decode_many(every), before)

    @pytest.mark.parametrize("args", [(6, 2, 1.0, 0.5), (5, 3, 1.0, 0.8),
                                      (7, 1, 1.0, 0.5), (3, 3, 1.0, 0.4)])
    def test_support_table_follows_unrank_order(self, args):
        c = SparseCodec(*args)
        table = c.supports
        assert table.shape == (c.n_supports, c.k)
        for rank, row in enumerate(table.tolist()):
            assert tuple(row) == codecs._comb_unrank(rank, c.n, c.k)
            assert codecs._comb_rank(row, c.n, c.k) == rank
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1


def per_run_block(c, start, count):
    """Reference block decode: every support run computes its level values
    from its grid digits."""
    block = np.zeros((count, c.n))
    pos = 0
    while pos < count:
        support_rank, grid_index = divmod(start + pos, c.grid_size)
        run = min(count - pos, c.grid_size - grid_index)
        support = list(codecs._comb_unrank(support_rank, c.n, c.k))
        gidx = np.arange(grid_index, grid_index + run, dtype=np.int64)
        digits = np.stack(np.unravel_index(gidx, (c.levels_per_dim,) * c.k), axis=1)
        block[pos:pos + run, support] = (digits - c.steps) * c.spacing
        pos += run
    return block


def run_codec(n, k, grid, steps, rho, slack):
    """The sparse (or, with grid and k == n, grid) codec of steps levels per
    side of zero, at a delta slack short of the next coarser grid."""
    delta = rho * math.sqrt(k) / (steps - slack)
    return GridCodec(n, rho, delta) if grid else SparseCodec(n, k, rho, delta)


@st.composite
def decode_runs(draw):
    """(n, k, grid, steps, rho, slack, start, count, index): a codec of
    run_codec within 200,000 codewords, a run [start, start + count) of it
    and one index."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    grid = draw(st.booleans()) and k == n
    # the most steps that keep the codebook within 200,000 codewords
    most = max(1, int(((200_000 / math.comb(n, k)) ** (1 / k) - 1) / 2))
    steps = draw(st.integers(1, min(most, 6)))
    rho = draw(st.sampled_from([1.0, 0.7]))
    slack = draw(st.sampled_from([0.0, 0.25])) if steps > 1 else 0.0
    c = run_codec(n, k, grid, steps, rho, slack)
    assume(c.size <= 200_000)
    start = draw(st.integers(0, c.size - 1))
    # up to two grids and a bit: most runs cross a support boundary
    count = draw(st.integers(0, min(c.size - start, 2 * c.grid_size + 2)))
    return n, k, grid, steps, rho, slack, start, count, draw(st.integers(0, c.size - 1))


class TestDecodeBlock:
    """Runs of codewords [start, start + count), read with decode_many of
    their index range, and the scan's coefficient rows of such runs, read
    with coef_block."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=decode_runs())
    @example(case=(5, 2, False, 1, 1.0, 0.0, 7, 5, 8))         # crosses a support boundary
    @example(case=(4, 2, False, 2, 0.7, 0.25, 140, 10, 149))   # ends at the last codeword
    @example(case=(3, 1, False, 3, 1.0, 0.0, 5, 0, 0))         # count = 0
    @example(case=(2, 2, True, 3, 1.0, 0.25, 10, 30, 48))      # a grid codec (k = n)
    @example(case=(1, 1, False, 6, 0.7, 0.0, 0, 13, 12))       # n = 1, the whole codebook
    def test_matches_the_per_run_reference(self, case):
        # the decoded runs hold the reference's floats bit for bit, and
        # decode(i) is row 0 of decode_many([i])
        *params, start, count, index = case
        c = run_codec(*params)
        got = c.decode_many(np.arange(start, start + count))
        assert got.shape == (count, c.n)
        assert got.tobytes() == per_run_block(c, start, count).tobytes()
        assert c.decode(index).tobytes() == c.decode_many(np.array([index]))[0].tobytes()

    @pytest.mark.parametrize("name", ["sparse", "grid", "explicit", "ppoly-deg1"])
    def test_coef_block_rows_are_the_decoded_values(self, name):
        # row i of coef_block(offset, count) holds codeword offset + i of
        # every group: its values on each support, its codeword (the one
        # group of an explicit codec), or its basis coefficients, bit for bit
        c = (ExplicitCodec(derive_stream(5, 0).standard_normal((9, 3)))
             if name == "explicit" else round_trip_codec(name))
        size = getattr(c, "grid_size", getattr(c, "coef_space", c.size))
        for offset, count in ((0, min(size, 300)), (size - 3, 3), (1, 0)):
            rows = c.coef_block(offset, count)
            idx = np.arange(offset, offset + count)
            if name == "ppoly-deg1":
                layout = c.n_break_combos - 1
                want = [c.decode(layout * size + i).coeffs.ravel() for i in idx]
                assert rows.tobytes() == np.array(want).reshape(rows.shape).tobytes()
            elif name == "explicit":
                assert rows.tobytes() == c.decode_many(idx).tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    rows[...] = 0.0
            else:
                for r, support in enumerate(c.supports):
                    got = c.decode_many(r * size + idx)[:, support]
                    assert rows.tobytes() == got.tobytes()

    @pytest.mark.parametrize("name", ["sparse", "sparse-lazy", "grid", "grid-lazy",
                                      "explicit"])
    def test_range_is_checked(self, name):
        # a cached codebook used to return a short block, or wrap a negative
        # start around; the lazy decode failed inside math.comb or decoded
        # wrong codewords
        c = (ExplicitCodec([[0.0], [1.0]]) if name == "explicit"
             else round_trip_codec(name))
        for start, count in ((c.size - 1, 2), (-3, 2), (c.size + 1, 1)):
            with pytest.raises(IndexError, match="outside"):
                c.decode_many(np.arange(start, start + count))
        assert c.decode_many(np.arange(c.size, c.size)).shape == (0, c.n)
        assert np.array_equal(c.decode_many(np.arange(c.size - 1, c.size))[0],
                              c.decode(c.size - 1))

    @pytest.mark.parametrize("name", ["sparse", "grid", "explicit", "ppoly"])
    def test_index_must_be_an_integer(self, name):
        # decode(2.5) gave codeword 2 and decode(True) codeword 1
        c = (ExplicitCodec([[0.0], [1.0], [2.0], [3.0]]) if name == "explicit"
             else round_trip_codec(name))
        for index in (2.5, 1.9, True, "1"):
            with pytest.raises(IndexError, match=f"^index {index!r} must be an integer$"):
                c.decode(index)
        if name != "ppoly":  # ppoly decodes one index at a time
            for indices in ([0.5, 1.5], [2.0], [False, True]):
                with pytest.raises(IndexError, match="must be a 1-D integer array"):
                    c.decode_many(np.array(indices))
            assert np.array_equal(c.decode_many(np.arange(1, 3, dtype=np.int32)),
                                  c.decode_many([1, 2]))
        assert repr(c.decode(np.int64(2))) == repr(c.decode(2))


class TestExplicitCodec:
    def test_round_trip_and_nearest(self):
        cw = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        c = ExplicitCodec(cw)
        assert c.encode([0.9, 0.1]) == 1
        assert np.array_equal(c.decode(2), [0.0, 1.0])

    @pytest.mark.parametrize("bad,match", [
        ([np.nan, 0.0], "finite"), ([1.0], "shape"), ([[0.0, 0.0]], "shape"),
    ])
    def test_malformed_signal_rejected(self, bad, match):
        # nan used to give index 0, and a length-1 signal broadcast to index 1
        with pytest.raises(DomainError, match=match):
            ExplicitCodec([[0.0, 0.0], [1.0, 0.0]]).encode(bad)

    @pytest.mark.parametrize("codewords,match", [
        # a nan row won its tile's argmin and dropped the whole tile
        ([[0.0, 0.0], [np.nan, 1.0], [1.0, 0.0], [5.0, 5.0]], "finite"),
        ([[0.0, 0.0], [1.0, -np.inf]], "finite"),
        (np.zeros((0, 2)), "shape"),   # the scan divided by its size
        ([], "shape"),                 # one codeword with no coordinates
        (np.zeros((2, 2, 2)), "shape"),
    ])
    def test_malformed_codebook_rejected(self, codewords, match):
        with pytest.raises(ValueError, match=match):
            ExplicitCodec(codewords)

    def test_codebook_is_a_read_only_copy(self):
        cw = np.array([[0.0, 0.0], [1.0, 0.0]])
        c = ExplicitCodec(cw)
        cw[0] = 7.0
        assert np.array_equal(c.decode(0), [0.0, 0.0])
        c.decode_many(np.arange(2))[0] = 7.0
        assert np.array_equal(c.decode(0), [0.0, 0.0])


class TestProfiles:
    def test_alpha_hat_worked_value(self):
        pts = rd_profile({"class": "grid", "n": 2, "rho": 1.0}, [1e-4])
        # 2*log2(2*ceil(sqrt(2)*1e4)+1)/log2(1e4)
        assert pts[0].alpha_hat == pytest.approx(2.2257934452284527)
        assert abs(pts[0].alpha_hat - 2.23) <= 0.01

    def test_alpha_hat_dominates_dimension(self):
        deltas = [1e-1, 1e-2, 1e-3, 1e-4]
        for n in (1, 2, 3):
            pts = rd_profile({"class": "grid", "n": n, "rho": 1.0}, deltas)
            for p in pts:
                assert p.alpha_hat >= n
                assert p.rate_bits >= entropy_lower_bound(n, p.delta)

    def test_rate_monotone_in_delta(self):
        deltas = [0.5, 0.2, 0.1, 0.05, 0.01]
        for desc in ({"class": "grid", "n": 3, "rho": 1.0},
                     {"class": "sparse", "n": 8, "k": 2, "rho": 1.0},
                     {"class": "ppoly", "n": 2**17, "N": 0, "Q": 1, "rho": 1.0}):
            pts = rd_profile(desc, deltas)
            rates = [p.rate_bits for p in pts]
            # deltas shrink along the list, so rates must not decrease
            assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_sparse_alpha_hat_converges_to_k(self):
        deltas = [2.0**-j for j in (8, 16, 32, 60)]
        pts = rd_profile({"class": "sparse", "n": 20, "k": 2, "rho": 1.0}, deltas)
        alphas = [p.alpha_hat for p in pts]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        assert all(a > 2 for a in alphas)
        assert alphas[-1] <= 2.4

    def test_capacity_marks_point_unavailable(self):
        pts = rd_profile({"class": "grid", "n": 4, "rho": 1.0, "cap": 2**24},
                         [0.5, 0.001])
        assert not math.isnan(pts[0].rate_bits)
        assert math.isnan(pts[1].rate_bits)
        # a nan point carries its reason, as an unavailable sweep point does
        assert pts[0].reason is None
        assert pts[1].reason.startswith("CapacityError: grid codec: codebook has ")
        # ppoly: a delta finer than the time grid supports is also per-point
        pts = rd_profile({"class": "ppoly", "n": 4096, "N": 0, "Q": 1,
                          "rho": 1.0}, [0.1, 0.01])
        assert not math.isnan(pts[0].rate_bits)
        assert math.isnan(pts[1].rate_bits)
        assert pts[1].reason.startswith("GridResolutionError: breakpoint quantizer ")

    def test_cap_comes_from_the_descriptor(self):
        # the descriptor's cap used to be overwritten by the uncapped default
        desc = {"class": "grid", "n": 4, "rho": 1.0, "cap": 1000}
        [pt] = rd_profile(desc, [0.001])
        assert math.isnan(pt.rate_bits) and math.isnan(pt.alpha_hat)
        assert pt.reason.startswith("CapacityError: grid codec: codebook has ")
        assert pt.reason.endswith("configured cap is 1000")
        # without a cap the profile is uncapped, since only the rate is read
        del desc["cap"]
        assert rd_profile(desc, [0.001])[0].rate_bits == pytest.approx(47.9, abs=0.05)

    def test_rejects_bad_delta_list(self):
        with pytest.raises(ValueError):
            rd_profile({"class": "grid", "n": 2, "rho": 1.0}, [])
        with pytest.raises(ValueError):
            rd_profile({"class": "grid", "n": 2, "rho": 1.0}, [0.1, -0.1])

    @pytest.mark.parametrize("deltas,message", [
        ([True, 0.1], "delta=True must be a number"),    # profiled delta = 1.0
        ([0.1, "0.01"], "delta='0.01' must be a number"),
    ])
    def test_deltas_must_be_numbers(self, deltas, message):
        with pytest.raises(ValueError) as err:
            rd_profile({"class": "grid", "n": 2, "rho": 1.0}, deltas)
        assert str(err.value) == message


class TestEntropyBound:
    def test_worked_values(self):
        assert entropy_lower_bound(2, 0.5) == pytest.approx(2.0)
        assert entropy_lower_bound(3, 0.25) == pytest.approx(6.0)
        assert entropy_lower_bound(5, 1.0) == 0.0
        assert entropy_lower_bound(5, 1.7) == 0.0

    def test_grid_rate_dominates(self):
        c = GridCodec(2, 1.0, 0.5)
        assert c.rate_bits >= entropy_lower_bound(2, 0.5)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            entropy_lower_bound(2, 0.0)


@pytest.mark.parametrize("make", [
    lambda: SparseCodec(4, 2, 1.0, 0.8), lambda: GridCodec(2, 1.0, 0.5),
    lambda: PiecewisePolyCodec(0, 1, 1.0, 0.5, grid=64),
    lambda: ExplicitCodec([[0.0, 0.0], [1.0, 0.0]]),
])
def test_decode_checks_the_index(make):
    c = make()
    for bad in (-1, c.size, np.int64(c.size)):
        with pytest.raises(IndexError, match=rf"outside \[0, {c.size}\)"):
            c.decode(bad)
    last = c.decode(np.int64(c.size - 1))
    assert c.encode(last) <= c.size - 1


class TestConfig:
    def test_round_trip(self):
        for desc in ({"class": "grid", "n": 3, "rho": 1.0, "delta": 0.5,
                      "cap": 2**24},
                     {"class": "sparse", "n": 6, "k": 2, "rho": 1.0,
                      "delta": 0.5, "cap": 2**24},
                     {"class": "ppoly", "n": 2048, "N": 0, "Q": 1, "rho": 1.0,
                      "delta": 0.1, "cap": 2**24}):
            codec = codec_from_config(desc)
            assert codec.config() == desc

    def test_explicit_codebook_has_no_descriptor(self):
        # config() returned {"class": "explicit", ...}, which
        # codec_from_config refused as an unknown class
        with pytest.raises(ValueError, match="^an explicit codebook has no JSON descriptor$"):
            ExplicitCodec([[0.0, 1.0]]).config()

    @pytest.mark.parametrize("desc,message", [
        ({"class": "sparse", "n": 8.5, "k": 1}, "n=8.5 must be an integer >= 1"),
        ({"class": "sparse", "n": 8, "k": 1.5}, "k=1.5 must be an integer >= 1"),
        ({"class": "sparse", "n": True, "k": 1}, "n=True must be an integer >= 1"),
        ({"class": "grid", "n": 0}, "n=0 must be an integer >= 1"),
        ({"class": "ppoly", "N": 0.5}, "degree=0.5 must be an integer >= 0"),
        ({"class": "ppoly", "n": 96}, "grid=96; need a power of two >= 2"),
        ({"class": "sparse", "n": 8, "k": 1, "rho": math.inf},
         "rho=inf must be finite and > 0"),
        ({"class": "ppoly", "rho": math.nan}, "amp=nan must be finite and > 0"),
        ({"class": "grid", "n": 2, "cap": 2.5}, "cap=2.5 must be an integer >= 1"),
        ({"class": "ppoly", "cap": math.nan}, "cap=nan must be an integer >= 1"),
        ({"class": "sparse", "n": 8, "k": 1, "rho": True},
         "rho=True must be finite and > 0"),
        ({"class": "ppoly", "rho": True}, "amp=True must be finite and > 0"),
    ])
    def test_bad_parameters_rejected(self, desc, message):
        # a fractional count must not be truncated (n=8.5 as n=8) or size
        # the grid (k=1.5 with sqrt(1.5)), nor a non-finite rho overflow it
        desc = {"rho": 1.0, "delta": 0.2, **desc}
        with pytest.raises(ValueError) as err:
            codec_from_config(desc)
        assert str(err.value) == message

    def test_integer_valued_counts_accepted(self):
        c = codec_from_config({"class": "ppoly", "n": 64.0, "rho": 1.0, "delta": 0.2})
        assert c.grid == 64 and type(c.grid) is int
        s = SparseCodec(np.int64(8), np.int64(1), 1.0, 0.2, cap=2.0**10)
        assert (s.n, s.k, s.cap) == (8, 1, 1024)
        assert s.size == SparseCodec(8, 1, 1.0, 0.2).size

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            codec_from_config({"class": "grid", "n": 2, "rho": 1.0,
                               "delta": 0.5, "bogus": 1})
        with pytest.raises(ValueError):
            codec_from_config({"class": "mystery"})

    @pytest.mark.parametrize("desc,message", [
        ({"class": "sparse", "n": 8, "rho": 1.0, "delta": 0.2},
         "sparse codec config lacks keys: ['k']"),
        ({"class": "sparse"}, "sparse codec config lacks keys: ['delta', 'k', 'n', 'rho']"),
        ({"class": "grid", "rho": 1.0}, "grid codec config lacks keys: ['delta', 'n']"),
        ({"class": "ppoly", "n": 64, "N": 1, "Q": 1},
         "ppoly codec config lacks keys: ['delta', 'rho']"),
    ])
    def test_missing_keys_named(self, desc, message):
        # a missing key was a KeyError, which the command line does not catch
        with pytest.raises(ValueError) as err:
            codec_from_config(desc)
        assert str(err.value) == message

    @pytest.mark.parametrize("delta", [None, "0.2", True])
    @pytest.mark.parametrize("build", [
        lambda delta: GridCodec(2, 1.0, delta),
        lambda delta: SparseCodec(8, 1, 1.0, delta),
        lambda delta: PiecewisePolyCodec(0, 0, 1.0, delta, grid=64),
    ])
    def test_delta_must_be_a_number(self, build, delta):
        with pytest.raises(ValueError) as err:
            build(delta)
        assert str(err.value) == f"delta={delta!r} must be a number"
