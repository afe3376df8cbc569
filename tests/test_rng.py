"""Stream derivation and gaussian generation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csplab.rng import (MAX_STREAM_ID, EmptyRequestError, derive_stream,
                        gaussian_matrix, gaussian_vector, stream_keys)

N_MC = 100_000
# seeds of one to five 32-bit words, and ids of one word and of two
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**130)
IDS = (0, 1, 2**32 - 1, 2**32, (3 << 44) | (17 << 16) | 16, 2**64 - 1)


def test_same_key_replays_identically():
    a = gaussian_vector(derive_stream(7, 0), 100)
    b = gaussian_vector(derive_stream(7, 0), 100)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = gaussian_vector(derive_stream(7, 0), 10)
    b = gaussian_vector(derive_stream(7, 1), 10)
    assert not np.any(a == b)


def test_distinct_master_seeds_differ():
    a = gaussian_vector(derive_stream(7, 0), 10)
    b = gaussian_vector(derive_stream(8, 0), 10)
    assert not np.any(a == b)


def test_known_values_frozen():
    # regression pin: the generator/transform pair must never drift
    got = gaussian_vector(derive_stream(123, 5), 4)
    expected = np.array([
        -0.9130935628856274, -0.29412003525980096,
        -0.2227878618371187, 0.6454578183225758,
    ])
    assert np.array_equal(got, expected)


def test_single_value_deterministic():
    a = gaussian_vector(derive_stream(42, 3), 1)
    b = gaussian_vector(derive_stream(42, 3), 1)
    assert a[0] == b[0]


def test_gaussian_moments():
    v = gaussian_vector(derive_stream(7, 0), N_MC)
    assert -0.02 <= v.mean() <= 0.02
    assert 0.97 <= v.var() <= 1.03


def test_gaussian_three_sigma_tail():
    # 2*Phi(-3) ~ 0.0027; binomial 3-sigma window at 1e5 samples
    v = gaussian_vector(derive_stream(7, 0), N_MC)
    frac = np.mean(np.abs(v) > 3.0)
    assert 0.0017 <= frac <= 0.0037


def test_empty_requests_rejected():
    s = derive_stream(0, 0)
    with pytest.raises(EmptyRequestError):
        gaussian_vector(s, 0)
    with pytest.raises(EmptyRequestError):
        gaussian_matrix(s, 0, 4)


def test_matrix_is_row_major_slice_of_stream():
    flat = gaussian_vector(derive_stream(9, 9), 12)
    mat = gaussian_matrix(derive_stream(9, 9), 3, 4)
    assert np.array_equal(mat, flat.reshape(3, 4))


def seed_sequence_key(seed, stream_id):
    return np.random.SeedSequence(seed, spawn_key=(stream_id,)).generate_state(2, np.uint64)


class TestStreamKeys:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_key_is_seed_sequence_and_derive_stream(self, seed):
        for stream_id in IDS:
            (key,) = stream_keys(seed, stream_id, 1)
            assert key.dtype == np.uint64
            assert np.array_equal(key, seed_sequence_key(seed, stream_id))
            assert np.array_equal(
                key, derive_stream(seed, stream_id).bit_generator.state["state"]["key"])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_straddling_two_words(self, seed):
        # ids 2**32-2 and 2**32-1 are one spawn word, 2**32 and 2**32+1 two
        keys = stream_keys(seed, 2**32 - 2, 4)
        assert keys.shape == (4, 2)
        for i, key in enumerate(keys):
            assert np.array_equal(key, seed_sequence_key(seed, 2**32 - 2 + i))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**140), first_id=st.integers(0, MAX_STREAM_ID),
           count=st.integers(1, 6))
    @example(seed=SEEDS[0], first_id=IDS[0], count=3)
    @example(seed=SEEDS[1], first_id=IDS[1], count=2)
    @example(seed=SEEDS[2], first_id=IDS[2], count=2)
    @example(seed=SEEDS[3], first_id=IDS[3], count=4)
    @example(seed=SEEDS[4], first_id=IDS[4], count=5)
    @example(seed=SEEDS[5], first_id=IDS[5], count=1)
    @example(seed=SEEDS[6], first_id=IDS[2], count=3)
    def test_batch_is_each_id_in_turn(self, seed, first_id, count):
        count = min(count, MAX_STREAM_ID - first_id + 1)
        keys = stream_keys(seed, first_id, count)
        want = [seed_sequence_key(seed, first_id + i) for i in range(count)]
        assert np.array_equal(keys, want)

    def test_keys_out_of_range_rejected(self):
        for args in ((-1, 0, 1), (0, -1, 1), (0, MAX_STREAM_ID, 2),
                     (0, MAX_STREAM_ID + 1, 1), (0, 0, 0)):
            with pytest.raises(ValueError):
                stream_keys(*args)
        # derive_stream refuses the negative ones through SeedSequence
        for args in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                derive_stream(*args)
        assert MAX_STREAM_ID == 2**64 - 1
