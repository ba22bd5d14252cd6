"""Divergence-conforming pair construction, evaluation, jumps, projections."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from divspline.bspline import eval_nonzero_basis, make_open_uniform, open_knots
from divspline.forms import assemble_divergence
from divspline.mesh import build_mesh, gauss_rule
from divspline.space import (
    ElementTables,
    StateVector,
    build_pair,
    classify_boundary_dofs,
    component_l2_projection,
    curl_matrix,
    divergence_coefficients,
    eval_velocity,
    facet_normal_derivative_jump,
    interpolate_field,
    mass_matrix_1d,
    pressure_mean_vector,
    quad_points_1d,
    zero_state,
)
from util_fields import curl_state, random_pairs


def _pair(n, k_prime, interval=(0.0, 1.0)):
    kv = make_open_uniform(k_prime + 1, n, interval)
    return build_pair(build_mesh(kv, kv), k_prime)


def _random_state(pair, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return StateVector(
        u=scale * rng.standard_normal(pair.n_u),
        p=scale * rng.standard_normal(pair.n_p),
    )


def test_pair_dims_2x2_k1():
    pair = _pair(2, 1)
    assert (pair.vx.n_x, pair.vx.n_y) == (4, 3) and pair.vx.n_dofs == 12
    assert (pair.vy.n_x, pair.vy.n_y) == (3, 4) and pair.vy.n_dofs == 12
    assert (pair.q.n_x, pair.q.n_y) == (3, 3) and pair.q.n_dofs == 9


def test_pair_dims_1x1_k1():
    # univariate dimension = numElements + degree for every factor space
    pair = _pair(1, 1)
    assert (pair.q.n_x, pair.q.n_y) == (2, 2)
    assert pair.q.n_dofs == 4
    assert pair.vx.n_dofs == 3 * 2 and pair.vy.n_dofs == 2 * 3


def test_pair_dims_16x16_k2():
    pair = _pair(16, 2)
    assert (pair.vx.n_x, pair.vx.n_y) == (19, 18)
    assert pair.alpha_prime == 1


def test_pair_rejects_k0():
    with pytest.raises(ValueError):
        _pair(2, 0)


def test_pair_degree_regularity_pattern():
    pair = _pair(3, 2)
    k = 3
    assert pair.vx.degrees == (k, k - 1)
    assert pair.vy.degrees == (k - 1, k)
    assert pair.q.degrees == (k - 1, k - 1)
    # maximal smoothness: interior regularity k-1 on the high factor
    assert np.all(pair.vx.kv_x.regularity[1:-1] == k - 1)
    assert np.all(pair.vx.kv_y.regularity[1:-1] == k - 2)


def test_eval_velocity_zero_state():
    pair = _pair(2, 1)
    v = eval_velocity(pair, zero_state(pair), np.array([0.3, 0.7]), deriv_order=2)
    assert np.all(v.derivs == 0.0)


def test_eval_velocity_constant_field():
    pair = _pair(3, 1)
    state = interpolate_field(pair, lambda x, y: (np.ones(np.broadcast_shapes(np.shape(x), np.shape(y))), np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))))
    v = eval_velocity(pair, state, np.array([0.41, 0.77]))
    assert np.allclose(v.value, [1.0, 0.0], atol=1e-12)
    assert np.abs(v.gradient).max() < 1e-10


def test_eval_velocity_gradient_matches_finite_differences():
    pair = _pair(4, 2)
    state = _random_state(pair, seed=3)
    rng = np.random.default_rng(5)
    eps = 1e-6
    for _ in range(10):
        x = rng.uniform(0.1, 0.9, size=2)
        v = eval_velocity(pair, state, x)
        for i in range(2):
            dx = np.zeros(2)
            dx[i] = eps
            fp = eval_velocity(pair, state, x + dx).value
            fm = eval_velocity(pair, state, x - dx).value
            fd = (fp - fm) / (2 * eps)
            scale = max(1.0, np.abs(v.gradient[i]).max())
            assert np.abs(fd - v.gradient[i]).max() < 1e-6 * scale


def test_eval_velocity_outside_domain():
    pair = _pair(2, 1)
    with pytest.raises(ValueError):
        eval_velocity(pair, zero_state(pair), np.array([1.2, 0.5]))


def test_jump_rejects_boundary_facet():
    pair = _pair(2, 1)
    with pytest.raises(ValueError):
        facet_normal_derivative_jump(
            pair, zero_state(pair), pair.mesh.boundary_facets[0], np.array([0.0, 0.3])
        )


@pytest.mark.parametrize("k_prime", [1, 2])
def test_jump_vanishes_for_global_polynomial(k_prime):
    # x-degree <= k in u1, y-degree <= k in u2: contained in the spline spaces,
    # reproduced by projection, and globally smooth, so all jumps vanish
    pair = _pair(3, k_prime)
    k = k_prime + 1

    def u(x, y):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        one = np.ones(shape)
        return (x**k * np.asarray(y) ** (k - 1) + 0 * one, np.asarray(x) ** (k - 1) * y**k + 0 * one)

    state = interpolate_field(pair, u)
    for f in pair.mesh.interior_facets:
        qp = np.empty(2)
        qp[f.axis] = f.coordinate
        qp[1 - f.axis] = 0.5 * (f.span[0] + f.span[1])
        j = facet_normal_derivative_jump(pair, state, f, qp)
        assert np.abs(j).max() < 1e-11 * max(1.0, np.abs(state.u).max())


@pytest.mark.parametrize("k_prime", [1, 2, 3])
def test_jump_normal_component_vanishes(k_prime):
    pair = _pair(3, k_prime)
    state = _random_state(pair, seed=k_prime)
    rng = np.random.default_rng(17)
    saw_tangential = False
    for f in pair.mesh.interior_facets:
        t = rng.uniform(f.span[0], f.span[1])
        qp = np.empty(2)
        qp[f.axis] = f.coordinate
        qp[1 - f.axis] = t
        j = facet_normal_derivative_jump(pair, state, f, qp)
        assert abs(j[f.axis]) < 1e-11 * max(1.0, np.abs(j).max())
        if abs(j[1 - f.axis]) > 1e-6:
            saw_tangential = True
    assert saw_tangential


def test_jump_single_dof_matches_univariate_oracle():
    pair = _pair(4, 2)
    m = pair.alpha_prime + 1
    f = pair.mesh.interior_facets[1]  # vertical facet
    assert f.axis == 0
    nx = pair.mesh.nx
    ex_left = f.plus_element % nx
    kvx, kvy = pair.vy.kv_x, pair.vy.kv_y
    # pick a Vy DOF whose x-support straddles the facet
    ix = ex_left + 1
    iy = 2
    state = zero_state(pair)
    state.u[pair.vx.n_dofs + iy * pair.vy.n_x + ix] = 1.0
    t = 0.5 * (f.span[0] + f.span[1])
    j = facet_normal_derivative_jump(pair, state, f, np.array([f.coordinate, t]))

    span_l = int(kvx.element_spans[ex_left])
    span_r = int(kvx.element_spans[ex_left + 1])
    bl = eval_nonzero_basis(kvx, f.coordinate, max_deriv=m, span=span_l)
    br = eval_nonzero_basis(kvx, f.coordinate, max_deriv=m, span=span_r)
    dl = bl.values[m][ix - bl.first_index] if 0 <= ix - bl.first_index <= kvx.degree else 0.0
    dr = br.values[m][ix - br.first_index] if 0 <= ix - br.first_index <= kvx.degree else 0.0
    by = eval_nonzero_basis(kvy, t)
    my = by.values[0][iy - by.first_index] if 0 <= iy - by.first_index <= kvy.degree else 0.0
    oracle = (dl - dr) * my
    assert abs(oracle) > 1e-8
    assert abs(j[1] - oracle) < 1e-11 * abs(oracle)
    assert abs(j[0]) < 1e-13


def test_classify_boundary_dofs_2x2_k1():
    pair = _pair(2, 1)
    nbd = classify_boundary_dofs(pair)
    assert len(nbd.left) + len(nbd.right) == 6
    assert len(nbd.all) == 12


def test_classify_boundary_dofs_1x1_k1():
    # each component contributes its two normal-direction end columns/rows
    pair = _pair(1, 1)
    nbd = classify_boundary_dofs(pair)
    assert len(nbd.all) == 8


def test_constraining_normal_dofs_zeroes_normal_trace():
    pair = _pair(3, 2)
    state = _random_state(pair, seed=9)
    state.u[pair.normal_boundary_dofs.all] = 0.0
    rng = np.random.default_rng(23)
    a1, b1, a2, b2 = pair.mesh.domain_extent
    for _ in range(50):
        side = rng.integers(0, 4)
        t = rng.uniform(0.0, 1.0)
        if side == 0:
            x, n = np.array([a1, a2 + t * (b2 - a2)]), np.array([-1.0, 0.0])
        elif side == 1:
            x, n = np.array([b1, a2 + t * (b2 - a2)]), np.array([1.0, 0.0])
        elif side == 2:
            x, n = np.array([a1 + t * (b1 - a1), a2]), np.array([0.0, -1.0])
        else:
            x, n = np.array([a1 + t * (b1 - a1), b2]), np.array([0.0, 1.0])
        v = eval_velocity(pair, state, x, deriv_order=0)
        assert abs(v.value @ n) < 1e-12 * max(1.0, np.abs(state.u).max())


def test_interpolate_zero_and_idempotence():
    pair = _pair(3, 1)
    z = interpolate_field(pair, lambda x, y: (0.0 * x * y, 0.0 * x * y))
    assert np.abs(z.u).max() == 0.0

    target = _random_state(pair, seed=31)

    def u_h(x, y):
        xs = np.broadcast_to(x, np.broadcast_shapes(np.shape(x), np.shape(y))).ravel()
        ys = np.broadcast_to(y, np.broadcast_shapes(np.shape(x), np.shape(y))).ravel()
        vals = np.array(
            [eval_velocity(pair, target, np.array([xi, yi]), 0).value for xi, yi in zip(xs, ys)]
        )
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        return vals[:, 0].reshape(shape), vals[:, 1].reshape(shape)

    state = interpolate_field(pair, u_h)
    assert np.abs(state.u - target.u).max() < 1e-10 * max(1.0, np.abs(target.u).max())


@pytest.mark.parametrize("k_prime", [1, 2])
def test_projection_convergence_order(k_prime):
    def u(x, y):
        return (
            np.sin(np.pi * x) * np.sin(np.pi * y),
            np.cos(np.pi * x) * np.cos(np.pi * y),
        )

    errs = []
    for n in (4, 8):
        pair = _pair(n, k_prime)
        state = interpolate_field(pair, u)
        tab = ElementTables(pair, npts=k_prime + 3, max_deriv=0)
        err2 = 0.0
        for comp, name in enumerate(("vx", "vy")):
            grid = pair.component_coeffs(state.u, comp).ravel()
            vals = tab.field_values(name, grid, 0, 0)
            exact = u(tab.points[:, :, 0], tab.points[:, :, 1])[comp]
            err2 += float(np.sum(tab.weights * (vals - exact) ** 2))
        errs.append(np.sqrt(err2))
    ratio = errs[0] / errs[1]
    assert 0.8 * 2 ** (k_prime + 1) < ratio < 1.25 * 2 ** (k_prime + 1)


def test_divergence_conformity_random_states():
    pair = _pair(4, 2)
    tab = ElementTables(pair, npts=pair.k_prime + 2, max_deriv=1)
    rng = np.random.default_rng(123)
    for trial in range(100):
        u = rng.standard_normal(pair.n_u)
        div_pt = tab.field_values(
            "vx", pair.component_coeffs(u, 0).ravel(), 1, 0
        ) + tab.field_values("vy", pair.component_coeffs(u, 1).ravel(), 0, 1)
        dq = divergence_coefficients(pair, u)
        div_rep = tab.field_values("q", dq, 0, 0)
        scale = max(1.0, np.abs(div_pt).max())
        assert np.abs(div_pt - div_rep).max() < 1e-10 * scale


def test_exact_divergence_equals_l2_projection():
    pair = _pair(3, 1)
    tab = ElementTables(pair, npts=pair.k_prime + 2, max_deriv=1)
    rng = np.random.default_rng(7)
    mq = sp.kron(mass_matrix_1d(pair.q.kv_y), mass_matrix_1d(pair.q.kv_x)).tocsc()
    for _ in range(5):
        u = rng.standard_normal(pair.n_u)
        div_pt = tab.field_values(
            "vx", pair.component_coeffs(u, 0).ravel(), 1, 0
        ) + tab.field_values("vy", pair.component_coeffs(u, 1).ravel(), 0, 1)
        rhs = np.zeros(pair.n_p)
        contrib = tab.weights * div_pt
        qb = tab.basis("q", 0, 0)
        np.add.at(rhs, tab.dofs("q").ravel(), np.einsum("eql,eq->el", qb, contrib).ravel())
        proj = sp.linalg.spsolve(mq, rhs)
        assert np.abs(proj - divergence_coefficients(pair, u)).max() < 1e-10


def test_normal_component_continuity_random_states():
    pair = _pair(3, 2)
    rng = np.random.default_rng(2024)
    for seed in range(5):
        state = _random_state(pair, seed=seed)
        for f in pair.mesh.interior_facets:
            t = rng.uniform(f.span[0], f.span[1])
            qp = np.empty(2)
            qp[f.axis] = f.coordinate
            qp[1 - f.axis] = t
            value_jump = facet_normal_derivative_jump(pair, state, f, qp, order=0)
            assert abs(value_jump[f.axis]) < 1e-11 * max(1.0, np.abs(state.u).max())


def test_element_tables_match_pointwise_eval():
    pair = _pair(3, 2)
    state = _random_state(pair, seed=77)
    tab = ElementTables(pair, npts=3, max_deriv=1)
    for eid in (0, 4, 8):
        for q2 in (0, 5):
            x = tab.points[eid, q2]
            v = eval_velocity(pair, state, x)
            u1 = tab.field_values("vx", pair.component_coeffs(state.u, 0).ravel(), 0, 0)
            du1dy = tab.field_values("vx", pair.component_coeffs(state.u, 0).ravel(), 0, 1)
            assert abs(u1[eid, q2] - v.value[0]) < 1e-12 * max(1.0, abs(v.value[0]))
            assert abs(du1dy[eid, q2] - v.gradient[1, 0]) < 1e-11 * max(1.0, abs(v.gradient[1, 0]))


def test_pressure_mean_vector_is_exact():
    pair = _pair(3, 2)
    m = pressure_mean_vector(pair)
    rng = np.random.default_rng(4)
    p = rng.standard_normal(pair.n_p)
    pts_x, w_x = quad_points_1d(pair.q.kv_x, 4)
    pts_y, w_y = quad_points_1d(pair.q.kv_y, 4)
    from divspline.bspline import collocation_matrix

    cx = collocation_matrix(pair.q.kv_x, pts_x)
    cy = collocation_matrix(pair.q.kv_y, pts_y)
    grid = pair.q.to_grid(p)
    vals = cy @ grid @ cx.T
    integral = w_y @ vals @ w_x
    assert abs(m @ p - integral) < 1e-12 * max(1.0, abs(integral))
    assert abs(m.sum() - pair.mesh.area) < 1e-12


# ------------------------------------------------------------------ curl map


@settings(max_examples=30, deadline=None)
@given(pair=random_pairs(), seed=st.integers(0, 2**16))
def test_curl_matrix_spans_the_divergence_free_subspace(pair, seed):
    c = curl_matrix(pair)
    assert c.shape[0] == pair.n_u
    assert abs(assemble_divergence(pair) @ c).max() < 1e-12
    assert c[pair.normal_boundary_dofs.all].nnz == 0
    n_free = pair.n_u - len(pair.normal_boundary_dofs.all)
    assert c.shape[1] == n_free - pair.n_p + 1
    assert np.linalg.matrix_rank(c.toarray()) == c.shape[1]
    # curl_state draws psi over the full (n_y, n_x) grid of the degree-k
    # space and zeroes its boundary ring; redraw the same interior values
    k = pair.k_prime + 1
    n_x = open_knots(k, pair.mesh.unique_knots_x).n_basis
    n_y = open_knots(k, pair.mesh.unique_knots_y).n_basis
    psi = np.random.default_rng(seed).standard_normal((n_y, n_x))[1:-1, 1:-1]
    u_ref = curl_state(pair, seed=seed, zero_boundary_ring=True).u
    assert c @ psi.ravel() == pytest.approx(u_ref, rel=1e-12, abs=1e-12 * np.abs(u_ref).max())
