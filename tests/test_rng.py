"""Stream derivation and gaussian generation."""

import numpy as np
import pytest

from csplab.rng import (EmptyRequestError, derive_stream, gaussian_matrix,
                        gaussian_vector)

N_MC = 100_000


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

