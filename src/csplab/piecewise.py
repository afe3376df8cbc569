"""Piecewise polynomial signals on [0,1] with an orthonormal basis per piece.

A PiecewisePolynomial is a function that is a polynomial of degree <= N on
each of the intervals (0, b_1], (b_1, b_2], ..., (b_Q, 1].  Per-piece
coefficients are stored in the orthonormal (shifted, normalized Legendre)
basis of that piece, so the Euclidean norm of a coefficient difference IS the
L2 distance between the two polynomials on the piece.  All inner products and
distances are computed exactly with Gauss-Legendre quadrature of sufficient
order (the integrands are polynomials).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg


def orthonormal_basis_matrix(a: float, b: float, degree: int, t: np.ndarray) -> np.ndarray:
    """Values of the orthonormal Legendre basis of [a,b] at the 1-D points t.

    Returns an array of shape (degree+1, len(t)); row k is
    phi_k(t) = sqrt((2k+1)/(b-a)) * P_k(2(t-a)/(b-a) - 1), which satisfies
    integral_a^b phi_j phi_k = delta_jk.  P_0 is 1, so row 0 is the constant
    sqrt(1/(b-a)), written without evaluating a polynomial (legval of [1]
    is exactly 1.0 at every finite point); rows k >= 1 come from legval.
    """
    if b <= a:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    t = np.asarray(t, dtype=float)
    out = np.empty((degree + 1, t.size))
    out[0] = np.sqrt(1.0 / (b - a))
    if degree:
        u = 2.0 * (t - a) / (b - a) - 1.0
        for k in range(1, degree + 1):
            ck = np.zeros(k + 1)
            ck[k] = 1.0
            out[k] = np.sqrt((2 * k + 1) / (b - a)) * npleg.legval(u, ck)
    return out


def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1,1], exact for degree 2*order-1."""
    return npleg.leggauss(max(order, 1))


@dataclass
class PiecewisePolynomial:
    """Piecewise polynomial on [0,1] in per-piece orthonormal coordinates.

    breakpoints: sorted values in (0,1) (repeats allowed; a repeated value
        makes the piece between the copies empty and inert).
    coeffs: array of shape (len(breakpoints)+1, degree+1); row j holds the
        orthonormal-basis coefficients of piece j.
    amp_bound: declared sup-norm bound of the signal class the function
        belongs to (kept for class-membership checks; not enforced here).
    """

    breakpoints: np.ndarray
    coeffs: np.ndarray
    amp_bound: float | None = None

    def __post_init__(self):
        self.breakpoints = np.atleast_1d(np.asarray(self.breakpoints, dtype=float))
        if self.breakpoints.size == 0:
            self.breakpoints = self.breakpoints.reshape(0)
        self.coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if not (np.isfinite(self.breakpoints).all() and np.isfinite(self.coeffs).all()):
            raise ValueError("breakpoints and coefficients must be finite")
        if np.any(np.diff(self.breakpoints) < 0):
            raise ValueError("breakpoints must be sorted")
        if self.breakpoints.size and (
            self.breakpoints[0] <= 0.0 or self.breakpoints[-1] >= 1.0
        ):
            raise ValueError("breakpoints must lie strictly inside (0,1)")
        if self.coeffs.shape[0] != self.breakpoints.size + 1:
            raise ValueError(
                f"{self.coeffs.shape[0]} coefficient rows for "
                f"{self.breakpoints.size} breakpoints"
            )

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def n_pieces(self) -> int:
        return self.coeffs.shape[0]

    @property
    def edges(self) -> np.ndarray:
        """Piece boundaries 0 = e_0 <= e_1 <= ... <= e_{Q+1} = 1."""
        return np.concatenate(([0.0], self.breakpoints, [1.0]))

    def _piece_index(self, t: np.ndarray, right_limits: bool) -> np.ndarray:
        side = "right" if right_limits else "left"
        return np.searchsorted(self.breakpoints, t, side=side)

    def _eval(self, t: np.ndarray, right_limits: bool) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        flat = np.ravel(t)
        idx = self._piece_index(flat, right_limits)
        out = np.empty_like(flat)
        edges = self.edges
        for j in range(self.n_pieces):
            mask = idx == j
            if not np.any(mask):
                continue
            a, b = edges[j], edges[j + 1]
            phi = orthonormal_basis_matrix(a, b, self.degree, flat[mask])
            out[mask] = self.coeffs[j] @ phi
        return out.reshape(t.shape)

    def __call__(self, t) -> np.ndarray:
        """Evaluate with the (a, b] piece convention (value at a breakpoint
        belongs to the piece ending there)."""
        return self._eval(t, right_limits=False)

    def values_for_ito(self, t) -> np.ndarray:
        """Evaluate taking right limits at breakpoints.

        This is the sampling convention that makes the left-point Ito sum
        exact for piecewise-constant functions whose breakpoints sit on the
        sampling grid: the value used on [t_k, t_{k+1}) is the value the
        function takes just after t_k.
        """
        return self._eval(t, right_limits=True)

    def l2_norm(self) -> float:
        return self.l2_distance(constant_function(0.0))

    def l2_distance(self, other: "PiecewisePolynomial") -> float:
        """Exact L2([0,1]) distance to another piecewise polynomial."""
        edges = np.unique(np.concatenate([self.edges, other.edges]))
        deg = max(self.degree, other.degree)
        nodes, weights = _gauss_nodes(deg + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            if b <= a:
                continue
            t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            diff = self(t) - other(t)
            total += 0.5 * (b - a) * np.sum(weights * diff * diff)
        return float(np.sqrt(max(total, 0.0)))

    def sup_norm(self) -> float:
        """Numerical sup-norm estimate from 257 samples on each piece."""
        edges = self.edges
        best = 0.0
        for j in range(self.n_pieces):
            a, b = edges[j], edges[j + 1]
            if b <= a:
                continue
            t = np.linspace(a, b, 257)
            phi = orthonormal_basis_matrix(a, b, self.degree, t)
            best = max(best, float(np.max(np.abs(self.coeffs[j] @ phi))))
        return best

    def project_onto_interval(self, a: float, b: float, degree: int) -> np.ndarray:
        """Exact orthonormal-basis coefficients of the L2 projection of this
        function restricted to [a,b] onto polynomials of the given degree.

        c_k = integral_a^b f(t) phi_k(t) dt, split at this function's own
        breakpoints so every sub-integrand is a polynomial.
        """
        if b <= a:
            raise ValueError(f"degenerate interval [{a}, {b}]")
        cuts = np.unique(
            np.concatenate(
                ([a, b], self.breakpoints[(self.breakpoints > a) & (self.breakpoints < b)])
            )
        )
        deg = max(self.degree, degree)
        nodes, weights = _gauss_nodes(deg + 1)
        out = np.zeros(degree + 1)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi <= lo:
                continue
            t = 0.5 * (hi - lo) * nodes + 0.5 * (lo + hi)
            phi = orthonormal_basis_matrix(a, b, degree, t)
            out += 0.5 * (hi - lo) * (phi * (weights * self(t))).sum(axis=1)
        return out


def piecewise_constant(
    breakpoints, values, amp_bound: float | None = None
) -> PiecewisePolynomial:
    """Build the piecewise-constant function taking values[j] on piece j."""
    breakpoints = np.atleast_1d(np.asarray(breakpoints, dtype=float))
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.size != breakpoints.size + 1:
        raise ValueError("need len(breakpoints)+1 values")
    edges = np.concatenate(([0.0], breakpoints, [1.0]))
    lengths = np.diff(edges)
    # phi_0 = 1/sqrt(length), so the coefficient of a constant v is v*sqrt(length)
    coeffs = (values * np.sqrt(np.maximum(lengths, 0.0)))[:, None]
    return PiecewisePolynomial(breakpoints, coeffs, amp_bound=amp_bound)


def constant_function(value: float, amp_bound: float | None = None) -> PiecewisePolynomial:
    """The constant function value * 1_(0,1]."""
    return piecewise_constant(np.empty(0), [value], amp_bound=amp_bound)
