"""Knot vector construction and Cox-de Boor evaluation."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divspline.bspline import (
    KnotVector,
    basis_integrals,
    collocation_matrix,
    derivative_matrix,
    eval_nonzero_basis,
    gram_matrix,
    make_open_uniform,
    open_knots,
)
from util_fields import breakpoints, derivative_coefficients


def test_open_uniform_degree1_two_elements():
    kv = make_open_uniform(1, 2)
    assert np.array_equal(kv.knots, [0.0, 0.0, 0.5, 1.0, 1.0])
    assert kv.n_basis == 3
    assert kv.n_elements == 2


def test_open_uniform_bernstein_limit():
    kv = make_open_uniform(2, 1)
    assert np.array_equal(kv.knots, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    assert np.array_equal(kv.regularity, [-1, -1])


def test_open_uniform_degree2_two_elements():
    kv = make_open_uniform(2, 2)
    assert np.array_equal(kv.knots, [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0])
    assert np.array_equal(kv.regularity, [-1, 1, -1])
    assert kv.n_basis == 4


def test_invalid_knot_vectors_rejected():
    with pytest.raises(ValueError):
        KnotVector(degree=2, knots=np.array([0.0, 0.0, 0.5, 1.0, 1.0]))
    with pytest.raises(ValueError):
        KnotVector(degree=1, knots=np.array([0.0, 0.0, 0.6, 0.5, 1.0, 1.0]))
    with pytest.raises(ValueError):
        # interior multiplicity above the degree
        open_knots(1, np.array([0.0, 0.5, 1.0]), interior_multiplicity=2)


def test_hat_function_values_and_derivatives():
    kv = KnotVector(degree=1, knots=np.array([0.0, 0.0, 1.0, 1.0]))
    be = eval_nonzero_basis(kv, 0.5, max_deriv=1)
    assert np.allclose(be.values[0], [0.5, 0.5])
    assert np.allclose(be.values[1], [-1.0, 1.0])


def test_degree2_hand_recursion_values():
    # hand Cox-de Boor at x=0.25, cross-checked against scipy BSpline.basis_element
    kv = make_open_uniform(2, 2)
    be = eval_nonzero_basis(kv, 0.25, max_deriv=2)
    assert be.first_index == 0
    assert np.allclose(be.values[0], [0.25, 0.625, 0.125], atol=1e-15)
    assert np.allclose(be.values[1], [-2.0, 1.0, 1.0], atol=1e-14)
    assert np.allclose(be.values[2], [8.0, -12.0, 4.0], atol=1e-13)


def test_derivatives_above_degree_are_zero():
    kv = make_open_uniform(2, 3)
    be = eval_nonzero_basis(kv, 0.4, max_deriv=3)
    assert np.array_equal(be.values[3], np.zeros(3))


def test_domain_error():
    kv = make_open_uniform(2, 2)
    with pytest.raises(ValueError, match="outside"):
        eval_nonzero_basis(kv, 1.5)
    with pytest.raises(ValueError, match="outside"):
        eval_nonzero_basis(kv, -0.1)
    with pytest.raises(ValueError, match="outside"):
        eval_nonzero_basis(kv, np.nan)
    with pytest.raises(ValueError, match="outside"):
        eval_nonzero_basis(kv, np.array([0.5, np.nan, 0.25]))
    # explicit spans must lie in [degree, n_basis - 1] = [2, 5]
    kv4 = make_open_uniform(2, 4)
    for span in (1, -1, 99):
        with pytest.raises(ValueError, match=rf"span {span} outside .*\[2, 5\]"):
            eval_nonzero_basis(kv4, 0.3, span=span)
    with pytest.raises(ValueError, match=r"span -1 outside"):
        eval_nonzero_basis(kv4, np.array([0.1, 0.3]), span=np.array([2, -1]))


def test_right_end_uses_left_limit():
    kv = make_open_uniform(2, 2)
    be = eval_nonzero_basis(kv, 1.0)
    assert be.span == kv.element_spans[-1]
    assert np.allclose(be.values[0], [0.0, 0.0, 1.0])


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_partition_of_unity_and_derivative_sums(degree):
    rng = np.random.default_rng(1234 + degree)
    kv = make_open_uniform(degree, 5, interval=(0.0, 2.0))
    for x in rng.uniform(0.0, 2.0, size=100):
        be = eval_nonzero_basis(kv, float(x), max_deriv=min(degree, 3))
        assert abs(be.values[0].sum() - 1.0) < 1e-12
        for d in range(1, min(degree, 3) + 1):
            assert abs(be.values[d].sum()) < 1e-12 * max(1.0, np.abs(be.values[d]).max())


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_derivatives_match_finite_differences(degree):
    rng = np.random.default_rng(7 + degree)
    kv = make_open_uniform(degree, 4)
    eps = 1e-6
    for x in rng.uniform(0.05, 0.95, size=20):
        x = float(x)
        span = kv.find_span(x)
        here = eval_nonzero_basis(kv, x, max_deriv=3, span=span)
        for d in range(1, min(degree, 3) + 1):
            fd = (
                eval_nonzero_basis(kv, x + eps, max_deriv=d - 1, span=span).values[d - 1]
                - eval_nonzero_basis(kv, x - eps, max_deriv=d - 1, span=span).values[d - 1]
            ) / (2 * eps)
            scale = max(1.0, np.abs(here.values[d]).max())
            assert np.abs(fd - here.values[d]).max() < 1e-6 * scale


@pytest.mark.parametrize(
    "degree,mult", [(2, 1), (3, 1), (3, 2), (4, 2)]
)
def test_continuity_at_interior_knots(degree, mult):
    kv = open_knots(degree, np.linspace(0.0, 1.0, 4), interior_multiplicity=mult)
    rng = np.random.default_rng(42)
    coeffs = rng.standard_normal(kv.n_basis)
    alpha = degree - mult
    for j, zeta in enumerate(kv.unique_knots[1:-1]):
        zeta = float(zeta)
        span_left = kv.element_spans[j]
        span_right = kv.element_spans[j + 1]
        for d in range(alpha + 2):
            left = eval_nonzero_basis(kv, zeta, max_deriv=d, span=span_left)
            right = eval_nonzero_basis(kv, zeta, max_deriv=d, span=span_right)
            vl = coeffs[left.first_index : left.first_index + degree + 1] @ left.values[d]
            vr = coeffs[right.first_index : right.first_index + degree + 1] @ right.values[d]
            scale = max(1.0, abs(vl), abs(vr))
            if d <= alpha:
                assert abs(vl - vr) < 1e-10 * scale
            else:
                assert abs(vl - vr) > 1e-6 * scale


def test_derivative_coefficients_match_pointwise_derivative():
    rng = np.random.default_rng(5)
    kv = make_open_uniform(3, 5)
    coeffs = rng.standard_normal(kv.n_basis)
    dkv, dcoeffs = derivative_coefficients(kv, coeffs)
    assert derivative_matrix(kv) @ coeffs == pytest.approx(dcoeffs, rel=1e-14, abs=1e-14)
    for x in rng.uniform(0.0, 1.0, size=25):
        be = eval_nonzero_basis(kv, float(x), max_deriv=1)
        dbe = eval_nonzero_basis(dkv, float(x))
        v1 = coeffs[be.first_index : be.first_index + 4] @ be.values[1]
        v2 = dcoeffs[dbe.first_index : dbe.first_index + 3] @ dbe.values[0]
        assert abs(v1 - v2) < 1e-11 * max(1.0, abs(v1))


def test_collocation_matrix_reproduces_eval():
    kv = make_open_uniform(2, 4)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(kv.n_basis)
    pts = np.array([0.0, 0.1, 0.25, 0.5, 0.99, 1.0])
    c0, c1 = collocation_matrix(kv, pts, max_deriv=1)
    assert c0.shape == (len(pts), kv.n_basis)
    assert np.array_equal(collocation_matrix(kv, pts)[0], c0)
    vals = c0 @ coeffs
    for q, x in enumerate(pts):
        be = eval_nonzero_basis(kv, float(x), max_deriv=1)
        ref = coeffs[be.first_index : be.first_index + 3] @ be.values[0]
        dref = coeffs[be.first_index : be.first_index + 3] @ be.values[1]
        assert abs(vals[q] - ref) < 1e-14
        assert abs((c1 @ coeffs)[q] - dref) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    bp=breakpoints(),
    degrees=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    derivs=st.tuples(st.integers(0, 1), st.integers(0, 1)),
)
def test_gram_matrix_from_the_shared_rule_is_bit_identical(bp, degrees, derivs):
    # the shared rule on [0, 1] is the Legendre rule scaled by 0.5, which is
    # exact, so the Grams equal those from the Legendre nodes bit for bit
    kv_a, kv_b = (open_knots(p, 2.0 * bp - 0.5) for p in degrees)
    uk = kv_a.unique_knots
    nodes, weights = np.polynomial.legendre.leggauss(max(degrees) + 1)
    half = 0.5 * np.diff(uk)[:, None]
    x = uk[:-1, None] + half * (nodes + 1.0)
    expect = np.zeros((kv_a.n_basis, kv_b.n_basis))
    for e in range(len(uk) - 1):
        (va, fa), (vb, fb) = (
            (
                eval_nonzero_basis(kv, x[e], d, span=kv.element_spans[e]).values[:, d],
                kv.element_spans[e] - kv.degree,
            )
            for kv, d in zip((kv_a, kv_b), derivs)
        )
        local = np.matmul((va * (half[e] * weights)[:, None]).T, vb)
        expect[fa : fa + va.shape[1], fb : fb + vb.shape[1]] += local
    assert np.array_equal(gram_matrix(kv_a, kv_b, *derivs), expect)


def test_basis_integrals_against_quadrature():
    kv = make_open_uniform(3, 4)
    exact = basis_integrals(kv)
    # Gauss-Legendre per element, exact for cubics
    nodes, weights = np.polynomial.legendre.leggauss(3)
    quad = np.zeros(kv.n_basis)
    for e in range(kv.n_elements):
        a, b = kv.unique_knots[e], kv.unique_knots[e + 1]
        xs = 0.5 * (b - a) * (nodes + 1.0) + a
        ws = 0.5 * (b - a) * weights
        for x, w in zip(xs, ws):
            be = eval_nonzero_basis(kv, float(x))
            quad[be.first_index : be.first_index + 4] += w * be.values[0]
    assert np.abs(exact - quad).max() < 1e-14
    assert abs(exact.sum() - 1.0) < 1e-14


@settings(max_examples=40, deadline=None)
@given(
    bp=breakpoints(),
    degree=st.integers(1, 4),
    multiplicity=st.integers(1, 2),
    unit_points=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
)
def test_batched_evaluation_matches_scalar_calls(bp, degree, multiplicity, unit_points):
    kv = open_knots(degree, 3.0 * bp - 1.0, min(multiplicity, degree))
    a, b = kv.domain
    x = np.concatenate([a + (b - a) * np.array(unit_points), kv.knots])
    for max_deriv in (0, degree + 1):
        be = eval_nonzero_basis(kv, x, max_deriv=max_deriv)
        assert be.values.shape == (len(x), max_deriv + 1, degree + 1)
        for xq, span, values in zip(x, be.span, be.values):
            one = eval_nonzero_basis(kv, float(xq), max_deriv=max_deriv)
            assert one.span == span
            assert np.array_equal(one.values, values)
    for xq, span in zip(x, be.span):
        if xq < b:
            assert kv.knots[span] <= xq < kv.knots[span + 1]
        else:
            # right-end closure: the last nondegenerate span
            assert span == kv.n_basis - 1 and kv.knots[span] < kv.knots[span + 1] == b
    # explicit spans broadcast against the points: every element's pieces at every point
    ends = eval_nonzero_basis(kv, x[:, None], max_deriv=1, span=kv.element_spans[None, :])
    for q, xq in enumerate(x):
        for e, span in enumerate(kv.element_spans):
            one = eval_nonzero_basis(kv, float(xq), max_deriv=1, span=int(span))
            assert np.array_equal(ends.values[q, e], one.values)
