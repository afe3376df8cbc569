"""Piecewise polynomial arithmetic: bases, evaluation, exact integrals."""

import numpy as np
import pytest

from csplab.piecewise import (PiecewisePolynomial, constant_function,
                              orthonormal_basis_matrix, piecewise_constant)


def test_basis_orthonormal_on_interval():
    a, b, deg = 0.2, 0.9, 3
    t, w = np.polynomial.legendre.leggauss(deg + 1)
    x = 0.5 * (b - a) * t + 0.5 * (a + b)
    phi = orthonormal_basis_matrix(a, b, deg, x)
    gram = 0.5 * (b - a) * (phi * w) @ phi.T
    assert np.allclose(gram, np.eye(deg + 1), atol=1e-12)


def test_constant_function_evaluates():
    f = constant_function(0.7)
    t = np.array([0.0, 0.3, 1.0])
    assert np.allclose(f(t), 0.7)
    assert np.isclose(f.l2_norm(), 0.7)


def test_piecewise_constant_conventions():
    f = piecewise_constant([0.25], [2.0, 0.0])
    # value at the breakpoint belongs to the piece ending there
    assert f(np.array([0.25]))[0] == pytest.approx(2.0)
    assert f(np.array([0.26]))[0] == pytest.approx(0.0)
    # right-limit sampling flips that, making grid-aligned Ito sums exact
    assert f.values_for_ito(np.array([0.25]))[0] == pytest.approx(0.0)
    assert f.values_for_ito(np.array([0.0]))[0] == pytest.approx(2.0)
    assert np.isclose(f.l2_norm() ** 2, 1.0)  # 4 * 0.25


def test_l2_distance_exact_for_known_pair():
    f = piecewise_constant([0.5], [1.0, 0.0])
    g = constant_function(0.0)
    assert f.l2_distance(g) == pytest.approx(np.sqrt(0.5))


def test_repeated_breakpoints_make_inert_pieces():
    f = PiecewisePolynomial(
        np.array([0.5, 0.5]),
        np.array([[1.0], [123.0], [2.0]]) * np.sqrt([[0.5], [1.0], [0.5]]),
    )
    assert f(np.array([0.4]))[0] == pytest.approx(1.0)
    assert f(np.array([0.6]))[0] == pytest.approx(2.0)
    assert f.values_for_ito(np.array([0.5]))[0] == pytest.approx(2.0)


def test_projection_recovers_polynomial_exactly():
    # a degree-2 polynomial projected onto its own span comes back exactly
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(3)
    f = PiecewisePolynomial(np.empty(0), coeffs[None, :])
    got = f.project_onto_interval(0.0, 1.0, 2)
    assert np.allclose(got, coeffs, atol=1e-12)


def test_projection_splits_at_breakpoints():
    f = piecewise_constant([0.5], [1.0, -1.0])
    c = f.project_onto_interval(0.0, 1.0, 0)
    assert c[0] == pytest.approx(0.0, abs=1e-14)  # mean of +-1 halves


def test_invalid_breakpoints_rejected():
    with pytest.raises(ValueError):
        PiecewisePolynomial(np.array([0.7, 0.2]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        PiecewisePolynomial(np.array([0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        PiecewisePolynomial(np.array([0.5]), np.zeros((3, 1)))


@pytest.mark.parametrize("breaks,coeffs", [
    ([np.nan], [[0.0], [0.0]]),
    ([], [[np.nan]]),
    ([0.5], [[1.0], [-np.inf]]),
])
def test_non_finite_rejected(breaks, coeffs):
    # a nan breakpoint passed the range checks, and a nan coefficient
    # quantized to index -2**63 in PiecewisePolyCodec.encode
    with pytest.raises(ValueError, match="finite"):
        PiecewisePolynomial(np.array(breaks), np.array(coeffs))


def test_sup_norm_on_linear_piece():
    # f(t) = t on [0,1]: coefficients (1/2, 1/sqrt(12)) in the orthonormal basis
    coeffs = np.array([[0.5, 1.0 / np.sqrt(12.0)]])
    f = PiecewisePolynomial(np.empty(0), coeffs)
    t = np.linspace(0, 1, 7)
    assert np.allclose(f(t), t, atol=1e-12)
    assert f.sup_norm() == pytest.approx(1.0, abs=1e-9)
