"""Gaussian ensembles, noise models, and Wiener-integral measurements."""

import math
import re

import numpy as np
import pytest

from csplab.bounds import chi2_tail, singular_value_tail
from csplab.measurement import (MeasurementEnsemble, NoiseModel, WienerEnsemble,
                                apply_noise, measure, measure_analog,
                                sample_ensemble, sample_wiener_ensemble)
from csplab.piecewise import constant_function, piecewise_constant
from csplab.rng import derive_stream, gaussian_matrix


def big_wiener_ensemble(seed, n_paths, m):
    """Monte Carlo helper: a WienerEnsemble built from one batched draw.

    Row-for-row identical in distribution to sampling n_paths independent
    streams, but cheap enough for 1e5-path law checks.
    """
    inc = gaussian_matrix(derive_stream(seed, 0), n_paths, m) * np.sqrt(1.0 / m)
    return WienerEnsemble(inc)


class TestEnsemble:
    def test_sizes_are_the_array_shape(self):
        # a d or n set beside the matrix let the scan read a column subset
        ens = MeasurementEnsemble(np.zeros((3, 10)))
        assert (ens.d, ens.n) == (3, 10)
        wiener = WienerEnsemble(np.zeros((2, 8)))
        assert (wiener.d, wiener.m) == (2, 8)
        assert np.array_equal(wiener.times, np.arange(8) / 8)

    def test_matrix_must_be_two_dimensional(self):
        # a 1-D matrix raised IndexError from the n property inside measure
        with pytest.raises(ValueError,
                           match=re.escape("matrix shape (3,); need a 2-D (d, n) array")):
            MeasurementEnsemble(np.zeros(3))

    def test_increments_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match=re.escape(
                "increments shape (4,); need a 2-D (d, m) array")):
            WienerEnsemble(np.zeros(4))

    def test_entry_moments(self):
        ens = sample_ensemble(100, 100, derive_stream(20, 0))
        entries = ens.matrix.ravel()
        assert -0.03 <= entries.mean() <= 0.03
        assert 0.94 <= entries.var() <= 1.06

    def test_seed_reproducibility(self):
        a = sample_ensemble(7, 11, derive_stream(21, 4))
        b = sample_ensemble(7, 11, derive_stream(21, 4))
        assert np.array_equal(a.matrix, b.matrix)

    def test_singular_value_tail_monte_carlo(self):
        tail = singular_value_tail(40, 10, 1.0)
        exceed = 0
        trials = 300
        for i in range(trials):
            ens = sample_ensemble(10, 40, derive_stream(22, i))
            if np.linalg.svd(ens.matrix, compute_uv=False)[0] > tail.threshold:
                exceed += 1
        sigma = np.sqrt(tail.bound * (1 - tail.bound) / trials)
        assert exceed / trials <= tail.bound + 3 * sigma

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sample_ensemble(0, 4, derive_stream(0, 0))


class TestMeasure:
    def test_zero_maps_to_zero(self):
        ens = sample_ensemble(5, 8, derive_stream(23, 0))
        assert np.array_equal(measure(ens, np.zeros(8)), np.zeros(5))

    def test_linearity(self):
        ens = sample_ensemble(5, 8, derive_stream(23, 1))
        gen = derive_stream(23, 2)
        x1, x2 = gen.standard_normal(8), gen.standard_normal(8)
        lhs = measure(ens, x1 + x2)
        rhs = measure(ens, x1) + measure(ens, x2)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)

    def test_dimension_mismatch(self):
        ens = sample_ensemble(5, 8, derive_stream(23, 3))
        with pytest.raises(ValueError):
            measure(ens, np.zeros(9))

    @pytest.mark.parametrize("shape", [(3, 9), (0, 9), (2, 3, 8), (1, 1, 8)])
    def test_stack_shape_mismatch(self, shape):
        # a stack is (p, n); a wider row or a third axis is refused by name
        ens = sample_ensemble(5, 8, derive_stream(23, 3))
        with pytest.raises(ValueError, match=re.escape(
                f"signal shape {shape}; ensemble expects (8,) or (p, 8)")):
            measure(ens, np.zeros(shape))

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_a_stack_measures_row_by_row(self, p):
        ens = sample_ensemble(5, 8, derive_stream(23, 4))
        X = derive_stream(23, 5).standard_normal((p, 8))
        got = measure(ens, X)
        assert got.shape == (p, 5)
        for x, y in zip(X, got):
            assert np.array_equal(y, measure(ens, x))

    def test_norm_concentration_against_chi2_tails(self):
        # ||Ax||^2 for unit x is chi-square with d dof; the deviation
        # frequencies must respect the Chernoff tail bounds
        d, trials, tau = 10, 2000, 0.8
        gen = derive_stream(24, 0)
        stream = derive_stream(24, 1)
        lows = highs = 0
        for _ in range(trials):
            ens = sample_ensemble(d, 6, stream)
            x = gen.standard_normal(6)
            x /= np.linalg.norm(x)
            s = np.linalg.norm(measure(ens, x)) ** 2 / d
            lows += s < 1 - tau
            highs += s > 1 + tau
        for count, side in ((lows, "lower"), (highs, "upper")):
            bound = chi2_tail(d, tau, side)
            sigma = np.sqrt(bound * (1 - bound) / trials)
            assert count / trials <= bound + 3 * sigma


WORST_ALIGNED = NoiseModel("bounded", zeta=0.5, shape="worst_aligned")


class TestNoise:
    def test_zero_levels_identity(self):
        y = np.arange(5.0)
        s = derive_stream(25, 0)
        assert np.array_equal(apply_noise(y, NoiseModel("bounded"), s), y)
        assert np.array_equal(apply_noise(y, NoiseModel("gaussian"), s), y)
        assert np.array_equal(apply_noise(y, NoiseModel(), s), y)

    def test_bounded_norm_exact(self):
        y = np.arange(6.0)
        out = apply_noise(y, NoiseModel("bounded", zeta=0.3), derive_stream(25, 1))
        assert np.linalg.norm(out - y) == pytest.approx(0.3)

    def test_bounded_norm_never_exceeds_zeta(self):
        s = derive_stream(25, 2)
        gen = derive_stream(25, 3)
        for _ in range(200):
            zeta = float(gen.uniform(0, 2))
            y = gen.standard_normal(int(gen.integers(1, 12)))
            out = apply_noise(y, NoiseModel("bounded", zeta=zeta), s)
            assert np.linalg.norm(out - y) <= zeta * (1 + 1e-12)

    def test_worst_aligned_uses_context(self):
        y = np.zeros(4)
        ctx = np.array([0.0, 2.0, 0.0, 0.0])
        out = apply_noise(y, WORST_ALIGNED, context=ctx)
        assert np.allclose(out, [0.0, 0.5, 0.0, 0.0])

    def test_worst_aligned_requires_context(self):
        with pytest.raises(ValueError):
            apply_noise(np.zeros(3), WORST_ALIGNED, derive_stream(25, 4))
        with pytest.raises(ValueError, match="context of y's shape"):
            apply_noise(np.zeros(3), WORST_ALIGNED, derive_stream(25, 4),
                        context=np.ones(4))

    @pytest.mark.parametrize("ctx", [[0.0, 0.0, 0.0], [3e-16, 0.0, -4e-16],
                                     [1e-15, 0.0, 0.0]])
    def test_degenerate_context_draws_random_direction(self, ctx):
        # a context of norm <= 1e-15 (the signal on a codeword) carries no
        # direction: the noise takes the random direction the stream gives
        y = np.array([1.0, -2.0, 0.5])
        out = apply_noise(y, WORST_ALIGNED, derive_stream(5, 7), context=np.array(ctx))
        want = apply_noise(y, NoiseModel("bounded", zeta=0.5), derive_stream(5, 7))
        assert np.array_equal(out, want)

    def test_gaussian_norm_concentrates(self):
        d, sigma = 10_000, 2.0
        y = np.zeros(d)
        out = apply_noise(y, NoiseModel("gaussian", sigma=sigma), derive_stream(25, 5))
        ratio = np.linalg.norm(out) ** 2 / (d * sigma**2)
        assert 0.95 <= ratio <= 1.05

    def test_invalid_models_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(kind="sparkle")
        with pytest.raises(ValueError):
            NoiseModel("bounded", zeta=-1.0)
        with pytest.raises(ValueError):
            NoiseModel("bounded", zeta=1.0, shape="adversarialish")

    @pytest.mark.parametrize("block", [
        {"kind": "gaussian", "sigma": math.nan}, {"kind": "bounded", "zeta": math.inf},
        {"kind": "gaussian", "sigma": -0.1},
        # a bool or a string is no noise level, though float() would take it
        {"kind": "gaussian", "sigma": True}, {"kind": "gaussian", "sigma": "0.05"},
        {"kind": "bounded", "zeta": "0.1"},
    ])
    def test_noise_levels_must_be_finite(self, block):
        name = "sigma" if block["kind"] == "gaussian" else "zeta"
        with pytest.raises(ValueError, match=f"^{name}=.* must be finite and >= 0$"):
            NoiseModel.from_dict(block)

    def test_from_dict(self):
        assert NoiseModel.from_dict({}) == NoiseModel("none")
        assert NoiseModel.from_dict({"kind": "gaussian", "sigma": 1}) == (
            NoiseModel("gaussian", sigma=1.0))
        assert NoiseModel.from_dict(
            {"kind": "bounded", "zeta": 0.5, "shape": "worst_aligned"}
        ) == WORST_ALIGNED
        with pytest.raises(ValueError, match="unknown noise kind 'sparkle'"):
            NoiseModel.from_dict({"kind": "sparkle"})
        with pytest.raises(ValueError, match=r"unknown noise keys: \['sigma'\]"):
            NoiseModel.from_dict({"kind": "bounded", "sigma": 0.1})


def test_stream_consumers_pinned():
    # regression pin: the draws each consumer takes from a derived stream
    matrix = sample_ensemble(3, 4, derive_stream(5, 6)).matrix
    assert np.array_equal(matrix, [
        [-0.4400689845577337, -1.4565624158097992, 0.8660584809386636, -1.2014083445635693],
        [-0.6040783227565546, 0.8549952721195815, -0.0818125119930104, 0.056496955469931026],
        [-1.6566714241033773, -0.10839937031646193, 1.065034976863104, 0.10446696450442014],
    ])
    increments = sample_wiener_ensemble(2, 8, 5, 16).increments
    assert np.array_equal(increments, [
        [0.10654633487734821, 0.6443951531466067, -0.23525818322041575,
         -0.3066755531107093, -0.40630373657100216, -0.7200930437416766,
         0.0042760341609238495, 0.06391139985555314],
        [0.08157079304995273, 0.4380294909026943, 0.23093892290339668,
         -0.28210214596786803, 0.09087986790503123, -0.58643618113504,
         0.31428816771163964, 0.449991768679031],
    ])
    y = np.array([1.0, -2.0, 0.5])
    gaussian = apply_noise(y, NoiseModel("gaussian", sigma=0.25), derive_stream(5, 7))
    assert np.array_equal(gaussian, [0.7711415491386575, -1.6758909543207074,
                                     0.5255149995353678])
    random_dir = apply_noise(y, NoiseModel("bounded", zeta=0.5), derive_stream(5, 7))
    assert np.array_equal(random_dir, [0.7121893219820143, -1.592402885549392,
                                       0.5320874727949285])
    aligned = apply_noise(y, NoiseModel("bounded", zeta=0.5, shape="worst_aligned"),
                          derive_stream(5, 7), context=np.array([0.6, 0.0, -0.8]))
    assert np.array_equal(aligned, [1.3, -2.0, 0.09999999999999998])


class TestAnalogMeasurement:
    def test_constant_integrand_is_endpoint_value(self):
        ens = big_wiener_ensemble(26, 100_000, 64)
        y = measure_analog(ens, constant_function(1.0))
        w1 = ens.increments.sum(axis=1)
        assert np.allclose(y, w1)  # integral of 1 dW = W(1) exactly
        assert 0.97 <= y.var() <= 1.03
        assert -0.02 <= y.mean() <= 0.02

    def test_grid_aligned_step_variance(self):
        c = 2.0
        f = piecewise_constant([0.25], [c, 0.0])
        ens = big_wiener_ensemble(27, 100_000, 64)
        y = measure_analog(ens, f)
        want = 0.25 * c * c  # ||f||_2^2
        assert abs(y.var() - want) <= 0.05 * want

    def test_zero_integrand(self):
        ens = sample_wiener_ensemble(4, 32, 28, 0)
        assert np.array_equal(measure_analog(ens, constant_function(0.0)),
                              np.zeros(4))

    def test_linearity_for_grid_aligned_simple_functions(self):
        ens = sample_wiener_ensemble(6, 64, 29, 0)
        f = piecewise_constant([0.25, 0.5], [1.0, -2.0, 0.5])
        g = piecewise_constant([0.5, 0.75], [0.0, 3.0, 1.0])
        fg = measure_analog(ens, lambda t: f.values_for_ito(t) + g.values_for_ito(t))
        sep = measure_analog(ens, f) + measure_analog(ens, g)
        assert np.linalg.norm(fg - sep) <= 1e-12 * max(np.linalg.norm(sep), 1.0)

    def test_chi2_law_of_norm(self):
        # ||A(f)||^2 / ||f||^2 over repeated d-path ensembles is chi2(d)
        d, groups = 8, 4000
        f = piecewise_constant([0.5], [1.0, -0.5])
        ens = big_wiener_ensemble(30, d * groups, 64)
        vals = measure_analog(ens, f).reshape(groups, d)
        stats = (vals**2).sum(axis=1) / f.l2_norm() ** 2
        assert abs(stats.mean() - d) <= 3 * np.sqrt(2.0 * d / groups)
        assert abs(stats.var() - 2 * d) <= 0.15 * 2 * d

    def test_path_independence_and_reproducibility(self):
        a = sample_wiener_ensemble(3, 16, 31, 100)
        b = sample_wiener_ensemble(3, 16, 31, 100)
        assert np.array_equal(a.increments, b.increments)
        assert not np.any(a.increments[0] == a.increments[1])
        # path i comes from stream base+i
        c = sample_wiener_ensemble(1, 16, 31, 101)
        assert np.array_equal(c.increments[0], a.increments[1])

    def test_callable_integrand(self):
        ens = sample_wiener_ensemble(2, 8, 32, 0)
        y = measure_analog(ens, lambda t: np.ones_like(t))
        assert np.allclose(y, ens.increments.sum(axis=1))

    def test_rejects_empty_ensemble_request(self):
        with pytest.raises(ValueError):
            sample_wiener_ensemble(0, 8, 0, 0)
