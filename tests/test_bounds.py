"""Closed-form guarantees: worked values, monotonicities, Monte Carlo checks."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from csplab import bounds
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

    _FLOOR = "must be at least eta/ln(1/(e*delta)) = 0.465298355017976"

    @pytest.mark.parametrize("tid,change,message", [
        # zeta must equal delta in the bounded-noise corollaries only
        ("C6", dict(zeta=0.1), "C6: zeta=0.1 must equal delta=0.005"),
        ("C11", dict(zeta=0.1), "C11: zeta=0.1 must equal delta=0.005"),
        ("C4", dict(zeta=0.1), None),
        ("C9", dict(zeta=0.1), None),
        # the zeta check comes before the eps slack
        ("C6", dict(zeta=0.1, eps=0.01), "C6: zeta=0.1 must equal delta=0.005"),
        ("C11", dict(zeta=0.1, eps=0.01), "C11: zeta=0.1 must equal delta=0.005"),
        ("C4", dict(eps=0.01), f"C4: eps=0.01 {_FLOOR}"),
        ("C6", dict(eps=0.01), f"C6: eps=0.01 {_FLOOR}"),
        ("C9", dict(eps=0.01), f"C9: eps=0.01 {_FLOOR}"),
        ("C11", dict(eps=0.01), f"C11: eps=0.01 {_FLOOR}"),
        ("C4", dict(delta=0.5), "C4: delta=0.5 must be in (0, 1/e)"),
        ("C6", dict(delta=0.5), "C6: delta=0.5 must be in (0, 1/e)"),
        ("C9", dict(delta=0.5), "C9: delta=0.5 must be in (0, 1/e)"),
        ("C11", dict(delta=0.5), "C11: delta=0.5 must be in (0, 1/e)"),
        # the weak corollaries need d, the uniform ones n (d is derived)
        ("C4", dict(d=None), "C4: missing parameter d"),
        ("C6", dict(d=None), "C6: missing parameter d"),
        ("C9", dict(n=None), "C9: missing parameter n"),
        ("C11", dict(n=None), "C11: missing parameter n"),
        ("C4", dict(n=None), None),
        ("C9", dict(d=None), None),
        # symbols are checked in the order r, d or n, delta, eta, eps
        ("C6", dict(d=None, delta=0.5), "C6: missing parameter d"),
        ("C11", dict(n=None, delta=0.5, eps=0.01), "C11: missing parameter n"),
    ])
    def test_corollary_error_paths(self, tid, change, message):
        base = dict(r=20.0, d=30, n=64, delta=0.005, eta=2.0, eps=0.5)
        inputs = BoundInputs(**dict(base, **change))
        if message is None:  # the change is ignored
            assert evaluate_bound(tid, inputs) == evaluate_bound(tid, BoundInputs(**base))
            return
        with pytest.raises(ParameterError) as err:
            evaluate_bound(tid, inputs)
        assert str(err.value) == message

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

    @pytest.mark.parametrize("tid,name", [("T3", "d"), ("T8", "n"), ("T3", "tau2"),
                                          ("C9", "eps"), ("T3", "tau1")])
    def test_bools_are_not_numbers(self, tid, name):
        # nor are strings, though float("3") would take one
        base = dict(r=10.0, d=40, n=64, delta=0.05, tau=0.75, t=1.0, tau1=3.0,
                    tau2=0.75, eta=2.0, eps=1.5)
        for value in (True, "3"):
            with pytest.raises(ParameterError) as err:
                evaluate_bound(tid, BoundInputs(**dict(base, **{name: value})))
            assert str(err.value) == f"{tid}: {name}={value!r} must be a number"


class TestSymbolSources:
    # an experiment supplies these; a guarantee's search columns are the rest
    TRIAL = {"r", "delta", "d", "n", "sigma", "zeta", "eta"}

    def test_free_and_trial_symbols_partition_the_inputs(self):
        # a new BoundInputs field fails here until it is classified
        free = bounds.FREE_PARAMS
        assert free | self.TRIAL == {f.name for f in fields(BoundInputs)}
        assert not free & self.TRIAL
        assert free == {name for _, columns, _ in bounds._GUARANTEES.values()
                        for name in columns}
        assert free == {"tau", "tau1", "tau2", "tau3", "tau_prime", "t", "gamma",
                        "eps", "eps_prime"}

    def test_reads_eta_names_the_guarantees_that_read_it(self):
        # every symbol set but eta: exactly the READS_ETA guarantees miss it
        full = BoundInputs(r=20.0, d=30, n=64, delta=0.005, sigma=0.05, zeta=0.005,
                           eps=1.5, eps_prime=1.5, tau=0.75, tau1=3.0, tau2=0.75,
                           tau3=1.0, tau_prime=1.0, t=1.0, gamma=5.0)
        for tid in bounds.THEOREM_IDS:
            assert evaluate_bound(tid, replace(full, eta=2.0))
            if tid in bounds.READS_ETA:
                with pytest.raises(ParameterError, match=f"^{tid}: missing parameter eta$"):
                    evaluate_bound(tid, full)
            else:
                assert evaluate_bound(tid, full) == evaluate_bound(tid, replace(full, eta=2.0))
        assert bounds.READS_ETA == {"C4", "C6", "T7", "C9", "C11"}


class TestOptimizer:
    def test_unknown_id_names_the_registry(self):
        with pytest.raises(ParameterError) as opt_err:
            optimize_free_params("X1", BoundInputs(), 0.01)
        with pytest.raises(ParameterError) as eval_err:
            evaluate_bound("X1", BoundInputs())
        assert str(opt_err.value) == str(eval_err.value)

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
        assert opt.evaluation.failure_probability > 0.0

    def test_deterministic(self):
        a = optimize_free_params("T8", BoundInputs(r=9.0, d=48, n=64,
                                                   delta=0.25), 0.5)
        b = optimize_free_params("T8", BoundInputs(r=9.0, d=48, n=64,
                                                   delta=0.25), 0.5)
        assert a == b

    def test_targets_share_one_grid_pass(self, monkeypatch):
        calls = []

        def counting(tid, inputs):
            calls.append(tid)
            return evaluate_bound(tid, inputs)

        monkeypatch.setattr(bounds, "evaluate_bound", counting)
        bounds._grid_pass.cache_clear()
        inputs = BoundInputs(r=11.0, d=41, delta=0.05)
        first = optimize_free_params("T3", inputs, 0.01)
        one_pass = len(calls)
        assert one_pass > 0
        again = [optimize_free_params("T3", inputs, t) for t in (0.0, 1e-12, 0.01, 0.5)]
        assert len(calls) == one_pass  # no grid point and no chosen point re-evaluated
        assert again[2] == first
        assert first.evaluation == evaluate_bound("T3", first.inputs)

    def test_unhashable_symbols_are_searched_as_any_other(self):
        # a list symbol cannot key the grid cache; the search still runs
        with pytest.raises(ParameterError, match=r"^T3: no admissible grid point$"):
            optimize_free_params("T3", BoundInputs(r=[1.0], d=5, delta=0.1), 0.5)
        opt = optimize_free_params("T3", BoundInputs(r=10, d=40, delta=0.05,
                                                     sigma=[1.0]), 0.01)
        assert opt.feasible and opt.inputs.sigma == [1.0]

    def test_a_bool_count_is_no_count_after_its_int(self):
        # True == 1 and hashes alike, so the cache must not hand one the other's pass
        assert optimize_free_params("T3", BoundInputs(r=10, d=1, delta=0.05), 0.5)
        with pytest.raises(ParameterError, match=r"^T3: no admissible grid point$"):
            optimize_free_params("T3", BoundInputs(r=10, d=True, delta=0.05), 0.5)

    def test_equal_inputs_share_a_pass_whatever_their_types(self):
        # eta=2 as float32 equals eta=2.0 and keys the same pass, so the grid
        # must read both alike, whichever is searched first
        inputs = BoundInputs(r=10.0, d=40, delta=0.05, eta=2.0)
        bounds._grid_pass.cache_clear()
        alone = optimize_free_params("C4", inputs, 0.01)
        bounds._grid_pass.cache_clear()
        optimize_free_params("C4", replace(inputs, eta=np.float32(2.0)), 0.01)
        assert optimize_free_params("C4", inputs, 0.01) == alone

    @pytest.mark.parametrize("tid,inputs", [
        ("T3", BoundInputs(r=10, d=40, delta=[0.05], eta=2.0, eps=1.5)),
        ("T3", BoundInputs(r=10, d=40, delta="0.05", eta=2.0, eps=1.5)),
        ("T11", BoundInputs(r="10", d=40, n=64, delta=0.05, sigma=0.1)),
    ])
    def test_a_symbol_that_is_no_number_is_a_parameter_error(self, tid, inputs):
        # the grid builder compared these raw and raised TypeError
        with pytest.raises(ParameterError, match=f"^{tid}: no admissible grid point$"):
            optimize_free_params(tid, inputs, 0.5)

    def test_infeasible_target_reports_best(self):
        opt = optimize_free_params("T3", BoundInputs(r=30, d=5, delta=0.05),
                                   1e-12)
        assert not opt.feasible
        assert opt.evaluation.failure_probability > 1e-12


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
                assert pair.columns == tuple(range(d + 1))
                assert np.count_nonzero(pair.x1) <= k
                assert np.count_nonzero(pair.x2) <= k
                assert not np.any((pair.x1 != 0) & (pair.x2 != 0))
                gap = np.linalg.norm(A @ (pair.x1 - pair.x2))
                assert gap <= 1e-9 * np.linalg.norm(A)
                assert np.linalg.norm(pair.beta * pair.x1) == pytest.approx(1.0)
                assert np.linalg.norm(pair.x1) >= np.linalg.norm(pair.x2)

    @pytest.mark.parametrize("d,n", [(2, 3), (1, 3), (1, 4), (2, 5)])
    def test_exhausted_selections_raise(self, d, n, monkeypatch):
        # the first d+1 columns are the one selection: a failed null vector
        # is a ParameterError after exactly one SVD, with no search after it
        calls = []

        def svd(a):
            calls.append(a.shape)
            return None, None, np.eye(a.shape[1])

        monkeypatch.setattr(np.linalg, "svd", svd)
        A = gaussian_matrix(derive_stream(65, 1), d, n)
        with pytest.raises(ParameterError, match="first d\\+1 columns"):
            construct_indistinguishable_pair(A, d)
        assert calls == [(d, d + 1)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_refused_before_the_svd(self, bad, monkeypatch):
        # the SVD of a matrix holding inf did not return; nan raised LinAlgError
        def svd(a):
            pytest.fail("the SVD ran on a non-finite matrix")

        monkeypatch.setattr(np.linalg, "svd", svd)
        A = gaussian_matrix(derive_stream(66, 0), 3, 4)
        A[1, 2] = bad
        with pytest.raises(ParameterError, match="^A must be finite$"):
            construct_indistinguishable_pair(A, 2)

    def test_precondition_errors(self):
        A = gaussian_matrix(derive_stream(63, 0), 4, 10)
        with pytest.raises(ParameterError):
            construct_indistinguishable_pair(A, 2)  # d=4 > 2k-1=3
        tall = gaussian_matrix(derive_stream(63, 1), 3, 3)
        with pytest.raises(ParameterError):
            construct_indistinguishable_pair(tall, 2)  # d+1 > n

    @pytest.mark.parametrize("d,k", [(3, 2.5), (1, True)])
    def test_k_must_be_a_count(self, d, k):
        # both built pairs, with 2k-1 taken as 4.0 and 1
        A = gaussian_matrix(derive_stream(64, 0), d, 10)
        with pytest.raises(ParameterError, match=rf"^k={k!r} must be an integer >= 1$"):
            construct_indistinguishable_pair(A, k)

    def test_pursuit_cannot_separate_the_pair(self):
        A = gaussian_matrix(derive_stream(64, 0), 3, 10)
        pair = construct_indistinguishable_pair(A, 2)
        u = pair.beta * pair.x1
        v = pair.beta * pair.x2
        codec = ExplicitCodec(np.vstack([u, v, np.zeros(10)]))
        ens = MeasurementEnsemble(A)
        y = measure(ens, u)
        r_u = np.linalg.norm(y - A @ u)
        r_v = np.linalg.norm(y - A @ v)
        assert abs(r_u - r_v) <= 1e-9 * max(np.linalg.norm(A), 1.0)
        # disjoint supports make the candidates at least unit distance apart,
        # so whichever the scan returns, one answer would be off by >= 1/2
        assert np.linalg.norm(u - v) >= 1.0 - 1e-12
        res = csp_recover(y, ens, codec)
        assert res.chosen_index[0] in (0, 1)
