"""Closed-form recovery guarantees and concentration tails.

Every guarantee is an (error bound, failure probability) pair evaluated from
a literal formula.  Conventions, used consistently everywhere:

* rates r are in bits (log2); all exponents use natural logs;
* chi-square tails: P(sum Z_i^2 < d(1-tau)) <= exp((d/2)(tau + ln(1-tau)))
  and P(sum Z_i^2 > d(1+tau)) <= exp(-(d/2)(tau - ln(1+tau)));
* largest singular value of a d-by-n standard Gaussian matrix:
  P(sigma_max > sqrt(d) + sqrt(n) + t sqrt(d)) <= exp(-d t^2 / 2);
* failure probabilities can exceed 1 for weak parameters; evaluations carry
  both the raw value and the [0,1]-clamped probability.

Guarantee registry (theorem_id -> formula):

  T3   fixed signal, noiseless:       err = delta*sqrt((1+tau1)/(1-tau2))
  C4   T3 with tau1=3, tau2=1-(e*delta)^(2(1+eps)/eta)
  T5   fixed signal, bounded noise:   T3 err + 2*zeta/sqrt((1-tau2)*d)
  C6   T5 specialization at zeta=delta (adds 2/sqrt(d) to the C4 theta)
  T6   fixed signal, gaussian noise:  (delta*sqrt(1+tau1)+2*sigma*sqrt(1+tau3))/sqrt(1-tau2)
  T7   fixed signal, gaussian noise, measurement-count-aware refinement
  T8   uniform over the class, noiseless: (2*delta/sqrt(1-tau))*(sqrt(n/d)+1+t)
  C9   T8 with t=1, tau=1-delta^(2(1+eps)/eta) and d=2*eta*r/log2(1/(e*delta))
  T9   uniform, bounded noise
  C11  T9 specialization at zeta=delta (t=1)
  T10  uniform, gaussian noise (coarse)
  T11  uniform, gaussian noise (refined; error shrinks as d grows)
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .codecs import ceil_snap


class ParameterError(ValueError):
    """An input violates a guarantee's parameter range."""


@dataclass(frozen=True)
class BoundInputs:
    """Free symbols of the guarantee formulas; fill what the theorem needs.

    r bits, delta distortion, d measurements, n ambient dimension, sigma
    gaussian noise level, zeta bounded-noise radius, eta measurement
    oversampling factor (> 1), eps/eps_prime slack parameters, and the
    concentration parameters tau* / t / gamma*.
    """

    r: float | None = None
    delta: float | None = None
    d: int | None = None
    n: int | None = None
    sigma: float | None = None
    zeta: float | None = None
    eta: float | None = None
    eps: float | None = None
    eps_prime: float | None = None
    tau: float | None = None
    tau1: float | None = None
    tau2: float | None = None
    tau3: float | None = None
    tau_prime: float | None = None
    t: float | None = None
    gamma: float | None = None
    gamma1: float | None = None
    gamma2: float | None = None


@dataclass(frozen=True)
class BoundEvaluation:
    """Evaluated guarantee: error bound plus failure probability (clamped to
    [0,1]; the raw formula value is kept alongside)."""

    theorem_id: str
    error_bound: float
    failure_probability: float
    failure_raw: float


def _clamped(theorem_id: str, error: float, raw: float) -> BoundEvaluation:
    return BoundEvaluation(theorem_id, float(error),
                           float(min(max(raw, 0.0), 1.0)), float(raw))


# range code -> (test, text) for the symbols _req pulls
_RANGES = {
    "pos": (lambda v: v > 0, "> 0"),
    "nonneg": (lambda v: v >= 0, ">= 0"),
    "open01": (lambda v: 0 < v < 1, "in (0,1)"),
    "count": (lambda v: v >= 1 and v.is_integer(), "an integer >= 1"),
    "gt1": (lambda v: v > 1, "> 1"),
    "unit_lt": (lambda v: 0 < v < 1 / math.e, "in (0, 1/e)"),
}


def _req(inputs: BoundInputs, theorem: str, **checks) -> dict:
    """Pull required symbols, enforcing each one's range code (_RANGES)."""
    out = {}
    for name, kind in checks.items():
        val = getattr(inputs, name)
        if val is None:
            raise ParameterError(f"{theorem}: missing parameter {name}")
        val = float(val)
        ok, text = _RANGES[kind]
        if not ok(val):
            raise ParameterError(f"{theorem}: {name}={val} must be {text}")
        out[name] = val
    return out


def _check_eps_slack(eps: float, eta: float, delta: float, theorem: str, symbol: str):
    floor = eta / math.log(1.0 / (math.e * delta))
    if eps < floor:
        raise ParameterError(
            f"{theorem}: {symbol}={eps} must be at least eta/ln(1/(e*delta)) = {floor}"
        )


def chi2_tail(d: int, tau: float, side: str) -> float:
    """Chernoff tail bound for a chi-square variable with d degrees of freedom.

    side 'lower': P(X < d(1-tau)) <= exp((d/2)(tau + ln(1-tau))), tau in (0,1).
    side 'upper': P(X > d(1+tau)) <= exp(-(d/2)(tau - ln(1+tau))), tau > 0.
    """
    if d < 1:
        raise ParameterError(f"chi2_tail: d={d} must be >= 1")
    if side == "lower":
        if not 0 < tau < 1:
            raise ParameterError(f"chi2_tail lower: tau={tau} must be in (0,1)")
        return math.exp((d / 2.0) * (tau + math.log1p(-tau)))
    if side == "upper":
        if tau <= 0:
            raise ParameterError(f"chi2_tail upper: tau={tau} must be > 0")
        return math.exp(-(d / 2.0) * (tau - math.log1p(tau)))
    raise ParameterError(f"chi2_tail: side={side!r} must be 'lower' or 'upper'")


@dataclass(frozen=True)
class SingularValueTail:
    bound: float
    threshold: float


def singular_value_tail(n: int, d: int, t: float) -> SingularValueTail:
    """P(sigma_max(A) > sqrt(d) + sqrt(n) + t*sqrt(d)) <= exp(-d t^2/2) for a
    d-by-n matrix of i.i.d. standard normals; returns (bound, threshold)."""
    if t < 0:
        raise ParameterError(f"singular_value_tail: t={t} must be >= 0")
    if d < 1 or n < 1:
        raise ParameterError("singular_value_tail: need d >= 1 and n >= 1")
    threshold = math.sqrt(d) + math.sqrt(n) + t * math.sqrt(d)
    return SingularValueTail(bound=math.exp(-d * t ** 2 / 2.0), threshold=threshold)


def _codebook_union_term(r_bits: float, d: float, tau_low: float, copies: int = 1) -> float:
    """copies*r_bits-fold union of the lower chi-square tail, in log space:
    exp(copies*r*ln2 + (d/2)(tau + ln(1-tau)))."""
    log_term = copies * r_bits * math.log(2.0) + (d / 2.0) * (tau_low + math.log1p(-tau_low))
    return math.exp(min(log_term, 700.0))


def _eval_T3(inputs: BoundInputs) -> BoundEvaluation:
    v = _req(inputs, "T3", r="nonneg", d="count", delta="pos", tau1="pos", tau2="open01")
    err = v["delta"] * math.sqrt((1 + v["tau1"]) / (1 - v["tau2"]))
    raw = (_codebook_union_term(v["r"], v["d"], v["tau2"])
           + chi2_tail(v["d"], v["tau1"], "upper"))
    return _clamped("T3", err, raw)


def _eval_C4(inputs: BoundInputs) -> BoundEvaluation:
    v = _req(inputs, "C4", r="pos", d="count", delta="unit_lt", eta="gt1", eps="pos")
    _check_eps_slack(v["eps"], v["eta"], v["delta"], "C4", "eps")
    theta = 2.0 * math.exp(-(1 + v["eps"]) / v["eta"])
    err = theta * v["delta"] ** (1 - (1 + v["eps"]) / v["eta"])
    raw = math.exp(-0.8 * v["d"]) + math.exp(-0.3 * v["eps"] * v["r"])
    return _clamped("C4", err, raw)


def _eval_T5(inputs: BoundInputs) -> BoundEvaluation:
    v = _req(inputs, "T5", r="nonneg", d="count", delta="pos", zeta="nonneg",
             tau1="pos", tau2="open01")
    base = _eval_T3(inputs)
    err = base.error_bound + 2.0 * v["zeta"] / math.sqrt((1 - v["tau2"]) * v["d"])
    return _clamped("T5", err, base.failure_raw)


def _eval_C6(inputs: BoundInputs) -> BoundEvaluation:
    v = _req(inputs, "C6", r="pos", d="count", delta="unit_lt", eta="gt1", eps="pos")
    if inputs.zeta is not None and not math.isclose(inputs.zeta, v["delta"]):
        raise ParameterError(f"C6: zeta={inputs.zeta} must equal delta={v['delta']}")
    _check_eps_slack(v["eps"], v["eta"], v["delta"], "C6", "eps")
    theta = 2.0 * math.exp(-(1 + v["eps"]) / v["eta"]) + 2.0 / math.sqrt(v["d"])
    err = theta * v["delta"] ** (1 - (1 + v["eps"]) / v["eta"])
    raw = math.exp(-v["d"] / 2.0) + math.exp(-0.3 * v["eps"] * v["r"])
    return _clamped("C6", err, raw)


def _eval_T6(inputs: BoundInputs) -> BoundEvaluation:
    v = _req(inputs, "T6", r="nonneg", d="count", delta="pos", sigma="nonneg",
             tau1="nonneg", tau2="open01", tau3="nonneg")
    err = (v["delta"] * math.sqrt(1 + v["tau1"])
           + 2.0 * v["sigma"] * math.sqrt(1 + v["tau3"])) / math.sqrt(1 - v["tau2"])
    raw = _codebook_union_term(v["r"], v["d"], v["tau2"])
    for tau in (v["tau1"], v["tau3"]):
        raw += chi2_tail(v["d"], tau, "upper") if tau > 0 else 1.0
    return _clamped("T6", err, raw)


def _eval_T7(inputs: BoundInputs) -> BoundEvaluation:
    v = _req(inputs, "T7", r="pos", delta="unit_lt", sigma="nonneg",
             eta="gt1", eps_prime="pos")
    _check_eps_slack(v["eps_prime"], v["eta"], v["delta"], "T7", "eps_prime")
    L = math.log2(1.0 / (math.e * v["delta"]))
    beta = math.sqrt(L)
    amp = (math.e * v["delta"]) ** (-(1 + v["eps_prime"]) / v["eta"])
    err = amp * (
        2.0 * v["sigma"] * beta / math.sqrt(v["eta"])
        + math.sqrt(4.0 * v["sigma"] ** 2 * beta**2 / v["eta"]
                    + 2.0 * v["delta"] ** 2
                    + 4.0 * v["sigma"] * v["delta"] / math.sqrt(v["eta"]))
    )
    raw = (2.0 * math.exp(-0.15 * v["eta"] * v["r"] / L)
           + math.exp(-v["r"] / L)
           + math.exp(-0.3 * v["r"])
           + math.exp(-0.3 * v["eps_prime"] * v["r"]))
    return _clamped("T7", err, raw)


def _eval_T8(inputs: BoundInputs) -> BoundEvaluation:
    v = _req(inputs, "T8", r="nonneg", d="count", n="count", delta="pos",
             tau="open01", t="nonneg")
    err = (2.0 * v["delta"] / math.sqrt(1 - v["tau"])) * (
        math.sqrt(v["n"] / v["d"]) + 1 + v["t"])
    raw = (singular_value_tail(v["n"], v["d"], v["t"]).bound
           + _codebook_union_term(v["r"], v["d"], v["tau"], copies=2))
    return _clamped("T8", err, raw)


def _eval_C9(inputs: BoundInputs) -> BoundEvaluation:
    v = _req(inputs, "C9", r="pos", n="count", delta="unit_lt", eta="gt1", eps="pos")
    _check_eps_slack(v["eps"], v["eta"], v["delta"], "C9", "eps")
    d = 2.0 * v["eta"] * v["r"] / math.log2(1.0 / (math.e * v["delta"]))
    theta = 2.0 * (math.sqrt(v["n"] / d) + 2.0)
    err = theta * v["delta"] ** (1 - (1 + v["eps"]) / v["eta"])
    raw = math.exp(-d / 2.0) + math.exp(-0.6 * v["eps"] * v["r"])
    return _clamped("C9", err, raw)


def _eval_T9(inputs: BoundInputs) -> BoundEvaluation:
    v = _req(inputs, "T9", r="nonneg", d="count", n="count", delta="pos",
             zeta="nonneg", tau="open01", t="nonneg")
    c = math.sqrt(v["n"] / v["d"]) + 1 + v["t"]
    err = (2.0 * c * v["delta"] / math.sqrt(1 - v["tau"])
           + 2.0 * v["zeta"] / math.sqrt(v["d"] * (1 - v["tau"])))
    raw = (singular_value_tail(v["n"], v["d"], v["t"]).bound
           + _codebook_union_term(v["r"], v["d"], v["tau"], copies=2))
    return _clamped("T9", err, raw)


def _eval_T10(inputs: BoundInputs) -> BoundEvaluation:
    v = _req(inputs, "T10", r="nonneg", d="count", n="count", delta="pos",
             sigma="nonneg", tau="open01", t="nonneg", tau_prime="nonneg")
    c = math.sqrt(v["n"] / v["d"]) + v["t"] + 1
    err = (2.0 * c * v["delta"]
           + 2.0 * v["sigma"] * math.sqrt(1 + v["tau_prime"])) / math.sqrt(1 - v["tau"])
    tp = v["tau_prime"]
    raw = (_codebook_union_term(v["r"], v["d"], v["tau"])
           + singular_value_tail(v["n"], v["d"], v["t"]).bound
           + (chi2_tail(v["d"], tp, "upper") if tp > 0 else 1.0))
    return _clamped("T10", err, raw)


def _eval_C11(inputs: BoundInputs) -> BoundEvaluation:
    v = _req(inputs, "C11", r="pos", n="count", delta="unit_lt", eta="gt1", eps="pos")
    if inputs.zeta is not None and not math.isclose(inputs.zeta, v["delta"]):
        raise ParameterError(f"C11: zeta={inputs.zeta} must equal delta={v['delta']}")
    _check_eps_slack(v["eps"], v["eta"], v["delta"], "C11", "eps")
    d = 2.0 * v["eta"] * v["r"] / math.log2(1.0 / (math.e * v["delta"]))
    theta = 2.0 * (math.sqrt(v["n"] / d) + 2.0) + 2.0 / math.sqrt(d)
    err = theta * v["delta"] ** (1 - (1 + v["eps"]) / v["eta"])
    raw = math.exp(-d / 2.0) + math.exp(-0.6 * v["eps"] * v["r"])
    return _clamped("C11", err, raw)


def _eval_T11(inputs: BoundInputs) -> BoundEvaluation:
    v = _req(inputs, "T11", r="nonneg", d="count", n="count", delta="pos",
             sigma="nonneg", tau="open01", t="pos", gamma="pos")
    err = ((2.0 * (math.sqrt(v["n"]) + (v["t"] + 1) * math.sqrt(v["d"])) * v["delta"]
            + 2.0 * v["gamma"] * v["sigma"])
           / math.sqrt((1 - v["tau"]) * v["d"])) + v["delta"]
    raw = (singular_value_tail(v["n"], v["d"], v["t"]).bound
           + math.exp(min(2.0 * v["r"] * math.log(2.0) - v["gamma"] ** 2 / 2.0, 700.0))
           + _codebook_union_term(v["r"], v["d"], v["tau"], copies=2))
    return _clamped("T11", err, raw)


# theorem_id -> (evaluator, free parameters optimize_free_params searches,
# the (regime, noise kind) pairs it covers); the analog noiseless and
# bounded-noise guarantees share the weak finite-dimensional formulas
_GUARANTEES = {
    "T3": (_eval_T3, ("tau1", "tau2"), (("weak", "none"), ("analog", "none"))),
    "C4": (_eval_C4, ("eps",), (("weak", "none"),)),
    "T5": (_eval_T5, ("tau1", "tau2"), (("weak", "bounded"), ("analog", "bounded"))),
    "C6": (_eval_C6, ("eps",), (("weak", "bounded"),)),
    "T6": (_eval_T6, ("tau1", "tau2", "tau3"), (("weak", "gaussian"),)),
    "T7": (_eval_T7, ("eps_prime",), (("weak", "gaussian"),)),
    "T8": (_eval_T8, ("tau", "t"), (("strong", "none"),)),
    "C9": (_eval_C9, ("eps",), (("strong", "none"),)),
    "T9": (_eval_T9, ("tau", "t"), (("strong", "bounded"),)),
    "T10": (_eval_T10, ("tau", "t", "tau_prime"), (("strong", "gaussian"),)),
    "C11": (_eval_C11, ("eps",), (("strong", "bounded"),)),
    "T11": (_eval_T11, ("tau", "t", "gamma"), (("strong", "gaussian"),)),
}
THEOREM_IDS = tuple(_GUARANTEES)


def compatible_theorems(regime: str, noise_kind: str) -> list[str]:
    """Sorted ids of the guarantees that cover (regime, noise kind)."""
    return sorted(tid for tid, (_, _, covers) in _GUARANTEES.items()
                  if (regime, noise_kind) in covers)


def evaluate_bound(theorem_id: str, inputs: BoundInputs) -> BoundEvaluation:
    """Evaluate one guarantee; pure, same inputs -> identical outputs."""
    if theorem_id not in _GUARANTEES:
        raise ParameterError(
            f"unknown theorem_id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    return _GUARANTEES[theorem_id][0](inputs)


@dataclass(frozen=True)
class OptimizationResult:
    theorem_id: str
    inputs: BoundInputs
    evaluation: BoundEvaluation
    feasible: bool
    target_failure: float
    best_failure: float


def _grid_open01() -> list[float]:
    # logarithmic approach to both endpoints of (0,1)
    vals = [2.0**-j for j in range(1, 11)]
    vals += [1.0 - 2.0**-j for j in range(1, 19)]
    return sorted(set(vals))


def _grid_positive() -> list[float]:
    return [2.0 ** (j / 2.0) for j in range(-8, 13)]


def _candidate_grids(theorem_id: str, inputs: BoundInputs) -> dict[str, list[float]]:
    grids: dict[str, list[float]] = {}
    for name in _GUARANTEES[theorem_id][1]:
        if name in ("tau2", "tau"):
            g = _grid_open01() + [0.75]
            if inputs.eta is not None and inputs.eps is not None and inputs.delta and \
                    0 < inputs.delta < 1 / math.e:
                # hand-picked corollary value 1 - (e*delta)^(2(1+eps)/eta)
                g.append(1.0 - (math.e * inputs.delta) ** (2 * (1 + inputs.eps) / inputs.eta))
            grids[name] = sorted({v for v in g if 0 < v < 1})
        elif name in ("tau1", "tau3", "tau_prime", "t"):
            grids[name] = sorted(set(_grid_positive() + [1.0, 3.0]))
        elif name == "gamma":
            scale = math.sqrt(max(inputs.r or 1.0, 1.0))
            grids[name] = sorted({v * scale for v in _grid_positive()}
                                 | {math.sqrt(2.0 * max(inputs.r or 1.0, 1.0))})
        elif name in ("eps", "eps_prime"):
            if inputs.delta is None or not 0 < inputs.delta < 1 / math.e or \
                    inputs.eta is None:
                raise ParameterError(
                    f"{theorem_id}: optimizing {name} needs delta in (0,1/e) and eta"
                )
            floor = inputs.eta / math.log(1.0 / (math.e * inputs.delta))
            grids[name] = sorted({floor * (1.0 + 2.0 ** (j / 2.0)) for j in range(-6, 9)})
        else:
            raise ParameterError(f"no search grid for parameter {name}")
    return grids


def optimize_free_params(theorem_id: str, inputs: BoundInputs,
                         target_failure: float) -> OptimizationResult:
    """Deterministic grid search over a guarantee's free parameters.

    Minimizes the error bound subject to (clamped) failure probability at or
    below target_failure.  The grid is fixed and logarithmic and includes the
    hand-picked values the corollaries use (tau1=3, t=1, tau=0.75,
    tau2=1-(e*delta)^(2(1+eps)/eta), gamma=sqrt(2r)), so the optimum never
    loses to those seeds.  If no grid point meets the target, the result is
    flagged infeasible and carries the smallest failure probability found.
    """
    if target_failure < 0 or target_failure >= 1:
        raise ParameterError(
            f"{theorem_id}: target_failure={target_failure} must be in [0, 1)"
        )
    # target 0 is unattainable by construction (every failure formula is a
    # sum of strictly positive exponentials), so it always reports infeasible
    if theorem_id not in _GUARANTEES:
        raise ParameterError(f"unknown theorem_id {theorem_id!r}")

    grids = _candidate_grids(theorem_id, inputs)
    best_feasible: tuple | None = None      # (error, values, inputs, evaluation)
    best_any: tuple | None = None           # (failure, error, values, inputs, evaluation)
    for values in itertools.product(*grids.values()):
        trial = replace(inputs, **dict(zip(grids, values)))
        try:
            ev = evaluate_bound(theorem_id, trial)
        except ParameterError:
            continue
        key_any = (ev.failure_probability, ev.error_bound, values)
        if best_any is None or key_any < best_any[:3]:
            best_any = key_any + (trial, ev)
        if target_failure > 0 and ev.failure_probability <= target_failure:
            key = (ev.error_bound, values)
            if best_feasible is None or key < best_feasible[:2]:
                best_feasible = key + (trial, ev)
    if best_any is None:
        raise ParameterError(f"{theorem_id}: no admissible grid point")
    trial, ev = (best_feasible or best_any)[-2:]
    return OptimizationResult(theorem_id, trial, ev, best_feasible is not None,
                              float(target_failure), ev.failure_probability)


@dataclass(frozen=True)
class FiniteDimRate:
    """Rate model alpha*log2(1/delta): a class whose codes have dimension
    alpha in the rate/log2(1/delta) sense."""

    alpha: float

    def rate_bits(self, delta: float) -> float:
        return self.alpha * math.log2(1.0 / delta)


@dataclass(frozen=True)
class PolylogRate:
    """Rate model c*(log2(1/(e*delta)))^2: poly-logarithmic growth, as for
    classes of functions analytic on a strip."""

    c: float

    def rate_bits(self, delta: float) -> float:
        return self.c * math.log2(1.0 / (math.e * delta)) ** 2


@dataclass(frozen=True)
class PowerlawRate:
    """Rate model c*(1/delta)^(1/beta_smooth): power-law growth, as for
    classes with beta_smooth bounded derivatives."""

    c: float
    beta_smooth: float

    def rate_bits(self, delta: float) -> float:
        return self.c * (1.0 / delta) ** (1.0 / self.beta_smooth)


def check_eta(eta: float) -> None:
    """The budget rule's oversampling factor must be a finite number > 1."""
    if isinstance(eta, bool) or not isinstance(eta, numbers.Real):
        raise ParameterError(f"eta={eta!r} must be a number")
    if not 1 < eta < math.inf:
        raise ParameterError(f"eta={eta} must be " + ("> 1" if eta <= 1 else "finite"))


def budget_for_rate(r_bits: float, delta: float, eta: float,
                    regime: str = "weak") -> int:
    """The budget rule: a code of r_bits bits at distortion delta needs
    d = ceil(eta * r_bits / log2(1/(e*delta))) measurements, doubled in the
    strong (one-matrix-for-all-signals) regime.

    The ceiling snaps values within 1e-9 of an integer before rounding up so
    algebraically exact budgets are not inflated by float noise.
    """
    if regime not in ("weak", "strong"):
        raise ParameterError(f"regime={regime!r} must be 'weak' or 'strong'")
    check_eta(eta)
    if not 0 < delta < 1 / math.e:
        raise ParameterError(
            f"delta={delta} must be in (0, 1/e) for the budget denominator"
        )
    mult = 2.0 if regime == "strong" else 1.0
    d = ceil_snap(mult * eta * r_bits / math.log2(1.0 / (math.e * delta)))
    return max(int(d), 1)


def measurement_budget(rate_model, delta: float, eta: float,
                       regime: str = "weak") -> int:
    """budget_for_rate at the rate r(delta) of the model; the model is read
    only at a delta the rule accepts."""
    r = rate_model.rate_bits(delta) if 0 < delta < 1 / math.e else math.nan
    return budget_for_rate(r, delta, eta, regime)


@dataclass
class IndistinguishablePair:
    """Disjointly supported k-sparse x1, x2 with A x1 = A x2; beta scales the
    larger-norm vector to the unit sphere."""

    x1: np.ndarray
    x2: np.ndarray
    beta: float
    columns: tuple


def construct_indistinguishable_pair(A, k: int, stream=None) -> IndistinguishablePair:
    """Build two k-sparse vectors the measurement matrix cannot tell apart.

    Requires d <= 2k-1 and d+1 <= n.  Takes d+1 columns of A (the first d+1,
    then, on numerical degeneracy, other selections, 32 in all at most),
    finds a null-space combination of them, and splits its support into two
    disjoint halves of sizes ceil((d+1)/2) and floor((d+1)/2).  By
    construction A(x1 - x2) = 0 up to solver roundoff.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ParameterError("A must be a d-by-n matrix")
    d, n = A.shape
    if d > 2 * k - 1:
        raise ParameterError(f"d={d} must be <= 2k-1 = {2 * k - 1}")
    if d + 1 > n:
        raise ParameterError(f"need d+1 = {d + 1} <= n = {n} columns")
    half = (d + 2) // 2
    fro = float(np.linalg.norm(A))
    tol = 1e-9 * max(fro, 1.0)

    selections = [tuple(range(d + 1))]
    selections += [tuple(range(i, i + d + 1)) for i in range(1, n - d)]
    gen = stream.generator if stream is not None else None

    attempts = 0
    seen = set()
    while attempts < 32:
        if selections:
            cols = selections.pop(0)
        elif gen is not None:
            cols = tuple(sorted(gen.choice(n, size=d + 1, replace=False).tolist()))
        else:
            break
        if cols in seen:
            continue
        seen.add(cols)
        attempts += 1
        sub = A[:, cols]
        _, _, vt = np.linalg.svd(sub)
        v = vt[-1]
        if np.linalg.norm(sub @ v) > tol:
            continue
        x1 = np.zeros(n)
        x2 = np.zeros(n)
        x1[list(cols[:half])] = v[:half]
        x2[list(cols[half:])] = -v[half:]
        if np.linalg.norm(x1) < np.linalg.norm(x2):
            x1, x2 = x2, x1
        nrm = float(np.linalg.norm(x1))
        if nrm == 0.0:
            continue
        return IndistinguishablePair(x1=x1, x2=x2, beta=1.0 / nrm, columns=cols)
    raise ParameterError(
        f"no usable column selection found in {attempts} attempts "
        f"(matrix numerically degenerate)"
    )
