"""Closed-form guarantees: worked values, monotonicities, Monte Carlo checks."""

import math

import numpy as np
import pytest

from csplab.bounds import (BoundInputs, FiniteDimRate, ParameterError,
                           PolylogRate, PowerlawRate, chi2_tail,
                           construct_indistinguishable_pair, evaluate_bound,
                           measurement_budget, optimize_free_params,
                           singular_value_tail)
from csplab.codecs import ExplicitCodec
from csplab.measurement import MeasurementEnsemble, measure
from csplab.rng import derive_stream, gaussian_matrix
from csplab.solver import csp_recover


class TestChi2Tail:
    def test_worked_values(self):
        assert chi2_tail(10, 3.0, "upper") == pytest.approx(3.1324397619e-4)
        assert chi2_tail(10, 0.5, "lower") == pytest.approx(0.380702936, rel=1e-6)
        # exponent rate at tau=3 clears the 0.8 used by the eta-form corollary
        assert 0.5 * (3.0 - math.log(4.0)) > 0.8

    def test_parameter_ranges(self):
        with pytest.raises(ParameterError):
            chi2_tail(10, 1.0, "lower")
        with pytest.raises(ParameterError):
            chi2_tail(10, 0.0, "upper")
        with pytest.raises(ParameterError):
            chi2_tail(10, 0.5, "sideways")

    def test_monte_carlo_frequencies_respect_bounds(self):
        d, samples = 10, 100_000
        sq = gaussian_matrix(derive_stream(60, 0), samples, d) ** 2
        stats = sq.sum(axis=1)
        cases = [(0.5, "lower"), (0.5, "upper"), (1.0, "upper"), (3.0, "upper")]
        for tau, side in cases:
            bound = chi2_tail(d, tau, side)
            if side == "lower":
                freq = np.mean(stats < d * (1 - tau))
            else:
                freq = np.mean(stats > d * (1 + tau))
            sigma = math.sqrt(bound * (1 - bound) / samples)
            assert freq <= bound + 3 * sigma


class TestSingularValueTail:
    def test_worked_values(self):
        sv = singular_value_tail(100, 25, 1.0)
        assert sv.threshold == pytest.approx(20.0)
        assert sv.bound == pytest.approx(3.7266531720e-6)

    def test_zero_t_vacuous(self):
        assert singular_value_tail(10, 5, 0.0).bound == 1.0

    def test_monte_carlo_small(self):
        sv = singular_value_tail(40, 10, 1.0)
        trials, exceed = 500, 0
        for i in range(trials):
            A = gaussian_matrix(derive_stream(61, i), 10, 40)
            exceed += np.linalg.svd(A, compute_uv=False)[0] > sv.threshold
        sigma = math.sqrt(sv.bound * (1 - sv.bound) / trials)
        assert exceed / trials <= sv.bound + 3 * sigma


class TestEvaluateBound:
    def test_unknown_id_lists_the_registry_in_order(self):
        with pytest.raises(ParameterError) as err:
            evaluate_bound("X1", BoundInputs())
        assert str(err.value) == ("unknown theorem_id 'X1'; known: T3, C4, T5, "
                                  "C6, T6, T7, T8, C9, T9, T10, C11, T11")

    def test_t3_worked_value(self):
        ev = evaluate_bound("T3", BoundInputs(r=10, d=40, delta=0.05,
                                              tau1=3.0, tau2=0.75))
        assert ev.error_bound == pytest.approx(0.2)
        assert ev.failure_raw == pytest.approx(3.0445096758e-3)
        assert ev.failure_probability == ev.failure_raw

    def test_c4_theta(self):
        ev = evaluate_bound("C4", BoundInputs(r=20, d=40, delta=0.005,
                                              eta=2.0, eps=0.5))
        theta = ev.error_bound / 0.005 ** (1 - 1.5 / 2.0)
        assert theta == pytest.approx(2.0 * math.exp(-0.75))

    def test_t5_reduces_to_t3_at_zero_noise(self):
        base = evaluate_bound("T3", BoundInputs(r=10, d=40, delta=0.05,
                                                tau1=3.0, tau2=0.75))
        ev = evaluate_bound("T5", BoundInputs(r=10, d=40, delta=0.05, zeta=0.0,
                                              tau1=3.0, tau2=0.75))
        assert ev.error_bound == base.error_bound
        assert ev.failure_raw == base.failure_raw

    def test_frozen_values(self):
        cases = {
            "T5": (dict(r=10, d=40, delta=0.05, zeta=0.1, tau1=3.0, tau2=0.75),
                   0.2632455532033676, 0.0030445096758030805),
            "T6": (dict(r=10, d=40, delta=0.05, sigma=0.1, tau1=3.0,
                        tau2=0.75, tau3=1.0),
                   0.7656854249492382, 0.005205785896605214),
            "T8": (dict(r=9.17, d=48, n=64, delta=0.25, tau=0.75, t=1.0),
                   3.1547005383792515, 0.07740178977697758),
            "T9": (dict(r=9.17, d=48, n=64, delta=0.25, zeta=0.25, tau=0.75,
                        t=1.0),
                   3.299038105676658, 0.07740178977697758),
            "T10": (dict(r=9.17, d=48, n=64, delta=0.25, sigma=0.1, tau=0.75,
                         t=1.0, tau_prime=1.0),
                    3.7203859633284897, 0.0007677336362522762),
            "T11": (dict(r=9.17, d=48, n=64, delta=0.25, sigma=0.1, tau=0.75,
                         t=1.0, gamma=5.0),
                    3.6933756729740645, 1.313944429347617),
            "C9": (dict(r=20, n=64, delta=0.005, eta=2.0, eps=0.5),
                   2.248210821097564, 0.0040586345878760605),
            "C6": (dict(r=20, d=30, delta=0.005, eta=2.0, eps=0.5),
                   0.3483168642711234, 0.04978737427018445),
            "C11": (dict(r=20, n=64, delta=0.005, eta=2.0, eps=0.5),
                    2.3962797763111348, 0.0040586345878760605),
        }
        for tid, (kw, err, raw) in cases.items():
            ev = evaluate_bound(tid, BoundInputs(**kw))
            assert ev.error_bound == pytest.approx(err, rel=1e-12), tid
            assert ev.failure_raw == pytest.approx(raw, rel=1e-12), tid
            assert ev.failure_probability == min(ev.failure_raw, 1.0)

    def test_purity(self):
        inputs = BoundInputs(r=10, d=40, delta=0.05, tau1=3.0, tau2=0.75)
        a = evaluate_bound("T3", inputs)
        b = evaluate_bound("T3", inputs)
        assert a == b

    def test_noise_monotonicities(self):
        base = dict(r=10, d=40, delta=0.05, tau1=3.0, tau2=0.75)
        t5 = [evaluate_bound("T5", BoundInputs(zeta=z, **base)).error_bound
              for z in (0.0, 0.1, 0.2, 0.5)]
        assert all(a < b for a, b in zip(t5, t5[1:]))
        t6 = [evaluate_bound("T6", BoundInputs(sigma=s, tau3=1.0,
                                               **base)).error_bound
              for s in (0.0, 0.1, 0.2)]
        assert all(a < b for a, b in zip(t6, t6[1:]))
        t10 = [evaluate_bound(
            "T10", BoundInputs(r=9.0, d=48, n=64, delta=0.25, tau=0.75, t=1.0,
                               tau_prime=1.0, sigma=s)).error_bound
            for s in (0.0, 0.1, 0.2)]
        assert all(a < b for a, b in zip(t10, t10[1:]))

    def test_refined_noise_terms_shrink_with_more_measurements(self):
        # T7 noise contribution decreases in eta; T11 decreases in d
        def t7_noise(eta):
            full = evaluate_bound("T7", BoundInputs(
                r=20, delta=0.005, sigma=0.1, eta=eta, eps_prime=2.0))
            clean = evaluate_bound("T7", BoundInputs(
                r=20, delta=0.005, sigma=0.0, eta=eta, eps_prime=2.0))
            return full.error_bound - clean.error_bound

        vals = [t7_noise(eta) for eta in (1.5, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

        def t11_noise(d):
            kw = dict(r=9.0, n=64, delta=0.25, tau=0.75, t=1.0, gamma=5.0)
            full = evaluate_bound("T11", BoundInputs(d=d, sigma=0.1, **kw))
            clean = evaluate_bound("T11", BoundInputs(d=d, sigma=0.0, **kw))
            return full.error_bound - clean.error_bound

        vals = [t11_noise(d) for d in (16, 32, 64, 128)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_range_violations_name_symbol_and_theorem(self):
        with pytest.raises(ParameterError, match="T3.*tau2"):
            evaluate_bound("T3", BoundInputs(r=10, d=40, delta=0.05,
                                             tau1=3.0, tau2=1.5))
        with pytest.raises(ParameterError, match="T3.*missing.*tau1"):
            evaluate_bound("T3", BoundInputs(r=10, d=40, delta=0.05, tau2=0.5))
        with pytest.raises(ParameterError, match="C4.*eps"):
            evaluate_bound("C4", BoundInputs(r=10, d=40, delta=0.005,
                                             eta=2.0, eps=0.01))
        with pytest.raises(ParameterError):
            evaluate_bound("T99", BoundInputs())

    @pytest.mark.parametrize("tid,name,value", [
        ("T3", "d", 2.5), ("T3", "d", 0), ("T3", "d", math.inf),
        ("T8", "n", 7.5), ("T8", "d", math.nan),
    ])
    def test_counts_must_be_integers(self, tid, name, value):
        # T3 at d=2.5 used int(d)=2 in one tail and 2.5 in the other
        base = dict(r=10.0, d=40, n=64, delta=0.05, tau=0.75, t=1.0,
                    tau1=3.0, tau2=0.75)
        with pytest.raises(ParameterError, match=f"{tid}: {name}=.* an integer >= 1"):
            evaluate_bound(tid, BoundInputs(**dict(base, **{name: value})))
        # an integer-valued float is the same count
        assert (evaluate_bound(tid, BoundInputs(**dict(base, **{name: 3.0})))
                == evaluate_bound(tid, BoundInputs(**dict(base, **{name: 3}))))


class TestOptimizer:
    def test_optimum_dominates_hand_picked_seed(self):
        inputs = BoundInputs(r=10, d=40, delta=0.05)
        seed = evaluate_bound("T3", BoundInputs(r=10, d=40, delta=0.05,
                                                tau1=3.0, tau2=0.75))
        assert seed.failure_probability <= 0.01  # the seed point is feasible
        opt = optimize_free_params("T3", inputs, 0.01)
        assert opt.feasible
        assert opt.evaluation.error_bound <= seed.error_bound
        assert opt.evaluation.failure_probability <= 0.01

    def test_zero_target_infeasible(self):
        opt = optimize_free_params("T3", BoundInputs(r=10, d=40, delta=0.05), 0.0)
        assert not opt.feasible
        assert opt.best_failure > 0.0

    def test_deterministic(self):
        a = optimize_free_params("T8", BoundInputs(r=9.0, d=48, n=64,
                                                   delta=0.25), 0.5)
        b = optimize_free_params("T8", BoundInputs(r=9.0, d=48, n=64,
                                                   delta=0.25), 0.5)
        assert a == b

    def test_infeasible_target_reports_best(self):
        opt = optimize_free_params("T3", BoundInputs(r=30, d=5, delta=0.05),
                                   1e-12)
        assert not opt.feasible
        assert opt.best_failure > 1e-12


class TestMeasurementBudget:
    def test_finite_dim_converges_to_eta_alpha(self):
        # as delta -> 0 the budget approaches ceil(eta * alpha) from above
        eta, alpha = 1.3, 8.0
        ds = [measurement_budget(FiniteDimRate(alpha), 2.0**-k, eta)
              for k in (20, 50, 200)]
        assert all(a >= b for a, b in zip(ds, ds[1:]))
        assert ds[-1] == math.ceil(eta * alpha)

    def test_polylog_matches_four_c_log(self):
        delta = 2.0**-10
        eta = 4.0 * math.log2(1 / delta) / math.log2(1 / (math.e * delta))
        d = measurement_budget(PolylogRate(1.0), delta, eta)
        assert d == 40  # = 4 * c * log2(1/delta)

    def test_powerlaw_budget_diverges(self):
        ds = [measurement_budget(PowerlawRate(1.0, 1.0), 2.0**-k, 1.5)
              for k in range(4, 13)]
        assert all(a < b for a, b in zip(ds, ds[1:]))

    def test_strong_regime_doubles(self):
        model = FiniteDimRate(3.0)
        weak = measurement_budget(model, 1e-3, 2.0, "weak")
        strong = measurement_budget(model, 1e-3, 2.0, "strong")
        assert strong in (2 * weak - 1, 2 * weak)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            measurement_budget(FiniteDimRate(3.0), 0.5, 2.0)  # delta >= 1/e
        with pytest.raises(ParameterError):
            measurement_budget(FiniteDimRate(3.0), 1e-3, 1.0)
        with pytest.raises(ParameterError):
            measurement_budget(FiniteDimRate(3.0), 1e-3, 2.0, "extreme")


class TestIndistinguishablePair:
    def test_k1_closed_form(self):
        A = np.array([[2.0, 3.0, -1.0, 5.0]])
        pair = construct_indistinguishable_pair(A, 1)
        # null combination of the first two columns: proportional to (a2, -a1)
        x = pair.x1 + pair.x2  # one is on coord 0, the other on coord 1
        assert pair.x1[0] != 0 or pair.x2[0] != 0
        assert abs(A @ pair.x1 - A @ pair.x2)[0] <= 1e-12
        ratio = x[0] / 3.0
        assert x[1] == pytest.approx(2.0 * ratio)

    def test_invariants_battery(self):
        for k in (1, 2, 3):
            d = 2 * k - 1
            for i in range(20):
                A = gaussian_matrix(derive_stream(62, 100 * k + i), d, 10)
                pair = construct_indistinguishable_pair(A, k)
                assert np.count_nonzero(pair.x1) <= k
                assert np.count_nonzero(pair.x2) <= k
                assert not np.any((pair.x1 != 0) & (pair.x2 != 0))
                gap = np.linalg.norm(A @ (pair.x1 - pair.x2))
                assert gap <= 1e-9 * np.linalg.norm(A)
                assert np.linalg.norm(pair.beta * pair.x1) == pytest.approx(1.0)
                assert np.linalg.norm(pair.x1) >= np.linalg.norm(pair.x2)

    def test_precondition_errors(self):
        A = gaussian_matrix(derive_stream(63, 0), 4, 10)
        with pytest.raises(ParameterError):
            construct_indistinguishable_pair(A, 2)  # d=4 > 2k-1=3
        tall = gaussian_matrix(derive_stream(63, 1), 3, 3)
        with pytest.raises(ParameterError):
            construct_indistinguishable_pair(tall, 2)  # d+1 > n

    def test_pursuit_cannot_separate_the_pair(self):
        A = gaussian_matrix(derive_stream(64, 0), 3, 10)
        pair = construct_indistinguishable_pair(A, 2)
        u = pair.beta * pair.x1
        v = pair.beta * pair.x2
        codec = ExplicitCodec(np.vstack([u, v, np.zeros(10)]))
        ens = MeasurementEnsemble(3, 10, A, 64, 0)
        y = measure(ens, u)
        r_u = np.linalg.norm(y - A @ u)
        r_v = np.linalg.norm(y - A @ v)
        assert abs(r_u - r_v) <= 1e-9 * max(np.linalg.norm(A), 1.0)
        # disjoint supports make the candidates at least unit distance apart,
        # so whichever the scan returns, one answer would be off by >= 1/2
        assert np.linalg.norm(u - v) >= 1.0 - 1e-12
        res = csp_recover(y, ens, codec)
        assert res.chosen_index in (0, 1)
