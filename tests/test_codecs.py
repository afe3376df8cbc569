"""Codec constructions: rates, covering, enumeration, encode/decode."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csplab import codecs
from csplab.codecs import (CapacityError, DomainError, ExplicitCodec,
                           GridCodec, PiecewisePolyCodec, SparseCodec,
                           codec_from_config, entropy_lower_bound, rd_profile)
from csplab.piecewise import constant_function, piecewise_constant
from csplab.rng import derive_stream


def brute_force_nearest(codec, x):
    cw = codec.materialize()
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
        gen = derive_stream(10, 0).generator
        for _ in range(100):
            x = c.sample_member(gen)
            idx = c.encode(x)
            bf_idx, _ = brute_force_nearest(c, x)
            assert idx == bf_idx

    def test_covering_invariant(self):
        c = GridCodec(3, 1.0, 0.4)
        gen = derive_stream(11, 0).generator
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
        cw = c.materialize()
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
            assert np.array_equal(g.materialize(), s.materialize())
            for i in range(g.size):
                cw = g.decode(i)
                assert g.encode(cw) == s.encode(cw) == i
                corner, sparse_corner = g.stress_member(i), s.stress_member(i)
                assert (corner is None) == (sparse_corner is None)
                assert corner is None or np.array_equal(corner, sparse_corner)
            assert g.config() == {"class": "grid", "n": n, "rho": rho,
                                  "delta": delta, "cap": g.cap}

    def test_decode_block_matches_decode(self):
        c = GridCodec(3, 1.0, 0.7)
        blk = c.decode_block(5, 9)
        for off in range(9):
            assert np.array_equal(blk[off], c.decode(5 + off))

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
        gen = derive_stream(12, 0).generator
        for _ in range(1000):
            x = c.sample_member(gen)
            err = np.linalg.norm(x - c.decode(c.encode(x)))
            assert err <= c.delta + 1e-12

    def test_exactly_sparse_encode_is_brute_force_nearest(self):
        c = SparseCodec(6, 2, 1.0, 0.5)  # |C| = 735 <= 4096
        gen = derive_stream(13, 0).generator
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

    def test_decode_block_spans_supports(self):
        c = SparseCodec(5, 2, 1.0, 0.8)
        start = c.grid_size - 2  # straddles a support boundary
        blk = c.decode_block(start, 5)
        for off in range(5):
            assert np.array_equal(blk[off], c.decode(start + off))


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
        gen = derive_stream(14, 0).generator
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
        gen = derive_stream(15, 0).generator
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


# codecs for the round-trip properties; the "lazy" ones hold more than 2^22
# floats, so they keep no codebook and decode takes the block-enumeration path
ROUND_TRIP_CODECS = {
    "sparse": lambda: SparseCodec(6, 2, 1.0, 0.5),
    "sparse-lazy": lambda: SparseCodec(64, 2, 1.0, 0.2),   # 582,624 x 64
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
        member = c.sample_member(derive_stream(seed, 0).generator)
        got = c.decode(c.encode(member))
        if name in FINITE:
            err = float(np.linalg.norm(member - got))
        else:
            err = member.l2_distance(got)
        assert err <= c.delta * (1 + 1e-9)


class TestCodebookCache:
    @pytest.mark.parametrize("name,cached", [
        ("sparse", True), ("sparse-lazy", False), ("grid", True), ("grid-lazy", False),
    ])
    def test_round_trip_codecs_are_what_they_say(self, name, cached):
        c = round_trip_codec(name)
        assert (c._codebook is not None) == cached
        assert (c.size * c.n <= 2**22) == cached

    @pytest.mark.parametrize("args,size,cached", [
        ((32, 2, 1.0, 0.1), 476_656, False),      # weak-scan: 15.3 M floats
        ((64, 1, 1.0, 0.25), 576, True),          # strong-panel: 36,864 floats
        ((16, 2, 1.0, 0.1), 115_320, True),       # acceptance criterion 01
        ((1000, 1, 1.0, 1 / 32), 65_000, False),  # would be 496 MiB
    ])
    def test_decision_follows_the_float_count(self, args, size, cached):
        c = SparseCodec(*args)
        assert c.size == size
        # a lazy codec answers None without building anything
        assert (c._codebook is not None) == cached

    def test_limit_is_inclusive(self, monkeypatch):
        c, over = SparseCodec(6, 2, 1.0, 0.5), SparseCodec(6, 2, 1.0, 0.5)
        monkeypatch.setattr(codecs, "_CODEBOOK_FLOATS", c.size * c.n)
        assert c._codebook is not None
        monkeypatch.setattr(codecs, "_CODEBOOK_FLOATS", c.size * c.n - 1)
        assert over._codebook is None
        assert np.array_equal(over.materialize(), c.materialize())

    @pytest.mark.parametrize("name", ["sparse", "grid"])
    def test_codebook_handed_out_is_read_only(self, name):
        c = round_trip_codec(name)
        before = c.decode(0)
        for book in (c.materialize(), c.decode_block(0, 3)):
            with pytest.raises(ValueError, match="read-only"):
                book[0] = 7.0
        x = c.decode(0)
        x[:] = 7.0  # decode hands out a private copy
        assert np.array_equal(c.decode(0), before)


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

    def test_codebook_is_a_read_only_copy(self):
        cw = np.array([[0.0, 0.0], [1.0, 0.0]])
        c = ExplicitCodec(cw)
        cw[0] = 7.0
        assert np.array_equal(c.decode(0), [0.0, 0.0])
        with pytest.raises(ValueError, match="read-only"):
            c.materialize()[0] = 7.0
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
        pts = rd_profile({"class": "grid", "n": 4, "rho": 1.0}, [0.5, 0.001],
                         cap=2**24)
        assert not math.isnan(pts[0].rate_bits)
        assert math.isnan(pts[1].rate_bits)
        # ppoly: a delta finer than the time grid supports is also per-point
        pts = rd_profile({"class": "ppoly", "n": 4096, "N": 0, "Q": 1,
                          "rho": 1.0}, [0.1, 0.01])
        assert not math.isnan(pts[0].rate_bits)
        assert math.isnan(pts[1].rate_bits)

    def test_rejects_bad_delta_list(self):
        with pytest.raises(ValueError):
            rd_profile({"class": "grid", "n": 2, "rho": 1.0}, [])
        with pytest.raises(ValueError):
            rd_profile({"class": "grid", "n": 2, "rho": 1.0}, [0.1, -0.1])


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

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            codec_from_config({"class": "grid", "n": 2, "rho": 1.0,
                               "delta": 0.5, "bogus": 1})
        with pytest.raises(ValueError):
            codec_from_config({"class": "mystery"})
