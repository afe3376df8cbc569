"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the Monte Carlo sizes are
the stated ones, not reduced stand-ins.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from csplab.bounds import (BoundInputs, chi2_tail,
                           construct_indistinguishable_pair, evaluate_bound,
                           singular_value_tail)
from csplab.codecs import (GridCodec, SparseCodec, entropy_lower_bound,
                           rd_profile)
from csplab.harness import ExperimentConfig, records_to_csv, run_sweep, run_trial, run_trials
from csplab.measurement import measure_analog, sample_ensemble, sample_wiener_ensemble
from csplab.piecewise import constant_function, piecewise_constant
from csplab.rng import derive_stream, gaussian_matrix
from csplab.svgplot import render_svg


@contextmanager
def criterion(number: int, label: str, limit_seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds:.0f}s"
    )
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.1f}s)")


def binomial_3sigma(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def test_01_exact_codeword_recovery():
    with criterion(1, "exact codeword recovery, 1000 trials", 60):
        codec = SparseCodec(16, 2, 1.0, 0.1)
        config = ExperimentConfig(
            codec=codec.config(), regime="weak", d=8, trials=1000,
            master_seed=101, signal_source="codebook",
        )
        failures = 0
        for t in range(config.trials):
            rec = run_trial(config, t, codec=codec)
            failures += rec.error_l2 > 1e-9
        assert failures == 0


def test_02_noiseless_weak_bound():
    with criterion(2, "noiseless fixed-signal bound (T3), 500 trials", 300):
        config = ExperimentConfig(
            codec={"class": "sparse", "n": 12, "k": 1, "rho": 4.0,
                   "delta": 0.05},
            regime="weak", eta=2.0, trials=500, master_seed=102,
            theorem_id="T3", bound_params={"tau1": 3.0, "tau2": 0.75},
        )
        records = run_trials(config)
        assert records[0].d == 8  # ceil(2 r / log2(1/(e delta)))
        assert records[0].bound_error == pytest.approx(4 * 0.05)
        fail_prob = records[0].bound_fail_prob
        errs = np.array([r.error_l2 for r in records])
        exceed = float(np.mean(errs > records[0].bound_error))
        assert exceed <= fail_prob + binomial_3sigma(fail_prob, len(records))


def test_03_bounded_noise_weak_bound():
    with criterion(3, "bounded-noise bound (T5), both noise shapes", 300):
        for shape in ("worst_aligned", "random_direction"):
            config = ExperimentConfig(
                codec={"class": "sparse", "n": 12, "k": 1, "rho": 4.0,
                       "delta": 0.05},
                regime="weak", eta=2.0, trials=300, master_seed=103,
                noise={"kind": "bounded", "zeta": 0.05, "shape": shape},
                theorem_id="T5", bound_params={"tau1": 3.0, "tau2": 0.75},
            )
            records = run_trials(config)
            d = records[0].d
            want = 4 * 0.05 + 2 * 0.05 / math.sqrt(0.25 * d)
            assert records[0].bound_error == pytest.approx(want)
            fail_prob = records[0].bound_fail_prob
            errs = np.array([r.error_l2 for r in records])
            exceed = float(np.mean(errs > records[0].bound_error))
            assert exceed <= fail_prob + binomial_3sigma(fail_prob, len(records))


def test_04_uniform_bound_strong_regime():
    with criterion(4, "uniform bound (T8), 50 shared-matrix draws", 600):
        config = ExperimentConfig(
            codec={"class": "sparse", "n": 64, "k": 1, "rho": 1.0,
                   "delta": 0.25},
            regime="strong", d=48, trials=50, master_seed=104, panel_size=200,
            theorem_id="T8", bound_params={"tau": 0.75, "t": 1.0},
        )
        records = run_trials(config)
        bound = records[0].bound_error
        fail_prob = records[0].bound_fail_prob
        check = evaluate_bound("T8", BoundInputs(
            r=records[0].rate_bits, d=48, n=64, delta=0.25, tau=0.75, t=1.0))
        assert bound == pytest.approx(check.error_bound)
        max_errors = np.array([r.error_l2 for r in records])  # panel maxima
        freq = float(np.mean(max_errors > bound))
        assert freq <= fail_prob + binomial_3sigma(fail_prob, len(records))


def test_05_chi_square_tails():
    with criterion(5, "chi-square tail bounds at 1e5 samples", 60):
        d, samples = 10, 100_000
        stats = (gaussian_matrix(derive_stream(105, 0), samples, d) ** 2).sum(axis=1)
        cases = [(0.5, "lower"), (0.5, "upper"), (1.0, "upper"), (3.0, "upper")]
        for tau, side in cases:
            bound = chi2_tail(d, tau, side)
            if side == "lower":
                freq = float(np.mean(stats < d * (1 - tau)))
            else:
                freq = float(np.mean(stats > d * (1 + tau)))
            assert freq <= bound + binomial_3sigma(bound, samples), (tau, side)
        # the headline case: upper tail at tau=3
        bound = chi2_tail(d, 3.0, "upper")
        assert bound == pytest.approx(3.1324397619e-4)
        freq = float(np.mean(stats > 40.0))
        assert freq <= 3.13e-4 + binomial_3sigma(3.13e-4, samples)


def test_06_largest_singular_value_tail():
    with criterion(6, "largest-singular-value tail, 2000 ensembles", 120):
        tail = singular_value_tail(100, 25, 1.0)
        assert tail.threshold == pytest.approx(20.0)
        assert tail.bound == pytest.approx(3.7266531720e-6)
        exceed = 0
        trials = 2000
        for i in range(trials):
            ens = sample_ensemble(25, 100, derive_stream(106, i))
            sigma_max = np.linalg.svd(ens.matrix, compute_uv=False)[0]
            exceed += sigma_max > tail.threshold
        assert exceed / trials <= tail.bound + binomial_3sigma(tail.bound, trials)
        assert exceed == 0  # at this tail size no exceedance is expected


def test_07_stochastic_integral_law():
    with criterion(7, "Wiener-integral law, 1e5 paths per integrand", 60):
        for idx, f in enumerate((constant_function(1.0),
                                 piecewise_constant([0.25], [2.0, 0.0]))):
            ens = sample_wiener_ensemble(100_000, 64, 107, idx * 200_000)
            y = measure_analog(ens, f)
            want = f.l2_norm() ** 2
            assert want == pytest.approx(1.0)
            assert abs(y.var() - want) <= 0.03 * want
            assert abs(y.mean()) <= 0.02


def test_08_analog_recovery_bound():
    with criterion(8, "analog pursuit bound, constants codec, 300 trials", 120):
        config = ExperimentConfig(
            codec={"class": "ppoly", "n": 4096, "N": 0, "Q": 0, "rho": 1.0,
                   "delta": 0.05},
            regime="analog", d=8, trials=300, master_seed=108,
            theorem_id="T3", bound_params={"tau1": 3.0, "tau2": 0.75},
        )
        records = run_trials(config)
        bound = records[0].bound_error
        assert bound == pytest.approx(0.05 * math.sqrt(4.0 / 0.25))
        fail_prob = records[0].bound_fail_prob
        errs = np.array([r.error_l2 for r in records])
        exceed = float(np.mean(errs > bound))
        assert exceed <= fail_prob + binomial_3sigma(fail_prob, len(records))


def test_09_indistinguishable_pair_constructor():
    with criterion(9, "null-space pair constructor, 300 matrices", 60):
        n = 10
        for k in (1, 2, 3):
            d = 2 * k - 1
            for i in range(100):
                A = gaussian_matrix(derive_stream(109, 1000 * k + i), d, n)
                pair = construct_indistinguishable_pair(A, k)
                gap = np.linalg.norm(A @ (pair.x1 - pair.x2))
                assert gap <= 1e-9 * np.linalg.norm(A)
                assert np.count_nonzero(pair.x1) <= k
                assert np.count_nonzero(pair.x2) <= k
                assert not np.any((pair.x1 != 0) & (pair.x2 != 0))
                assert abs(np.linalg.norm(pair.beta * pair.x1) - 1.0) <= 1e-12


def test_10_nearest_codeword_oracle():
    with criterion(10, "encode equals brute-force nearest codeword", 60):
        codecs = [
            GridCodec(2, 1.0, 0.5),          # the worked 49-codeword grid
            GridCodec(3, 1.0, 0.7),
            SparseCodec(4, 1, 1.0, 0.5),
            SparseCodec(6, 2, 1.0, 0.5),
            SparseCodec(12, 1, 4.0, 0.05),   # the criterion-2 instance
        ]
        gen = derive_stream(110, 0).generator
        for codec in codecs:
            assert codec.size <= 4096
            codebook = codec.materialize()
            for _ in range(100):
                x = codec.sample_member(gen)
                idx = codec.encode(x)
                brute = int(np.argmin(((codebook - x) ** 2).sum(axis=1)))
                assert idx == brute, codec.config()


def test_11_alpha_dimension_convergence():
    with criterion(11, "alpha-dimension of the ball grid codec", 60):
        deltas = [1e-1, 1e-2, 1e-3, 1e-4]
        points = rd_profile({"class": "grid", "n": 2, "rho": 1.0}, deltas)
        finest = points[-1]
        assert finest.alpha_hat == pytest.approx(2.2257934452, abs=1e-9)
        assert abs(finest.alpha_hat - 2.23) <= 0.01
        for p in points:
            assert p.alpha_hat >= 2.0
            assert p.rate_bits >= entropy_lower_bound(2, p.delta)


def test_12_byte_identical_reruns():
    with criterion(12, "byte-identical CSV and SVG reruns", 120):
        config = ExperimentConfig(
            codec={"class": "sparse", "n": 12, "k": 1, "rho": 4.0,
                   "delta": 0.05},
            regime="weak", eta=2.0, trials=40, master_seed=112,
            theorem_id="T6", noise={"kind": "gaussian", "sigma": 0.0},
            bound_params={"tau1": 3.0, "tau2": 0.75, "tau3": 1.0},
            axis={"name": "sigma", "values": [0.0, 0.05, 0.1]},
        )
        sweep_a = run_sweep(config)
        sweep_b = run_sweep(config)
        csv_a = records_to_csv(sweep_a.records, config.master_seed)
        csv_b = records_to_csv(sweep_b.records, config.master_seed)
        assert csv_a == csv_b
        assert render_svg(sweep_a) == render_svg(sweep_b)
        # analog runs repeat byte-for-byte as well
        analog = ExperimentConfig(
            codec={"class": "ppoly", "n": 1024, "N": 0, "Q": 0, "rho": 1.0,
                   "delta": 0.05},
            regime="analog", d=6, trials=20, master_seed=112,
            theorem_id="T3", bound_params={"tau1": 3.0, "tau2": 0.75},
        )
        assert (records_to_csv(run_trials(analog), 112)
                == records_to_csv(run_trials(analog), 112))
