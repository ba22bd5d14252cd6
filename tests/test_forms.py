"""Tests for the form assembly module."""
import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divspline.bspline import basis_integrals, open_knots
import divspline.forms as forms
from divspline.forms import (
    StabParams,
    assemble_convection,
    assemble_divergence,
    assemble_load,
    assemble_skeleton,
    assemble_strain,
    assemble_velocity_mass,
    assemble_viscous_nitsche,
    compute_eta,
    convection_quad_points,
    convection_residual,
    facet_eta_values,
    facet_tables,
    nitsche_load,
    skeleton_residual,
)
from divspline.mesh import build_mesh, gauss_rule
from divspline.bspline import make_open_uniform
from divspline.space import (
    StateVector,
    TensorSpace,
    build_pair,
    eval_velocity,
    pressure_mean_vector,
)
from divspline.solver import FlowProblem, _SpatialOperator
from util_fields import (
    assemble_boundary_mass,
    boundary_facets,
    curl_state,
    element_boxes,
    facet_normal_derivative_jump,
    facet_quadrature,
    interior_facet_tables,
    interior_facets,
    interpolate_field,
    oracle_operator_data,
    quadrature_boundary_operators,
    quadrature_constant_operators,
    quadrature_convection,
    quadrature_skeleton,
    random_pairs,
    sorted_pattern,
    structural_product_pattern,
    velocity_gradient,
)


def max_abs(mat):
    m = mat.tocsr() if hasattr(mat, "tocsr") else mat
    return np.abs(m.data).max() if m.nnz else 0.0


def make_pair(n, k_prime, interval=(0.0, 1.0)):
    kx = make_open_uniform(k_prime + 1, n, interval)
    ky = make_open_uniform(k_prime + 1, n, interval)
    return build_pair(build_mesh(kx, ky), k_prime)


@pytest.fixture(scope="module")
def pair44():
    return make_pair(4, 1)


@pytest.fixture(scope="module")
def pair33k2():
    return make_pair(3, 2)


@pytest.fixture(scope="module")
def graded_pair_k2():
    bx = np.array([0.0, 0.1, 0.35, 0.5, 1.0])
    by = np.array([0.0, 0.6, 0.7, 1.0])
    return build_pair(build_mesh(open_knots(1, bx), open_knots(1, by)), 2)


def params_for(pair, nu):
    return StabParams.create(pair.k_prime, nu=nu)


# ---------------------------------------------------------------- parameters


def test_stab_params_defaults():
    p1 = StabParams.create(k_prime=1, nu=1e-3)
    assert p1.gamma == pytest.approx(1e-2, rel=1e-15)
    assert p1.c_nit == 10.0
    assert p1.alpha_prime == 0
    p2 = StabParams.create(k_prime=2, nu=1.0)
    assert p2.gamma == pytest.approx(1e-3, rel=1e-15)
    assert p2.c_nit == 15.0
    p3 = StabParams.create(k_prime=1, nu=1e-3, delta=2.0)
    assert p3.gamma == pytest.approx(2e-2, rel=1e-15)
    p4 = StabParams.create(k_prime=1, nu=1e-3, gamma=7e-4)
    assert p4.gamma == 7e-4
    assert StabParams.create(k_prime=3, nu=1.0).gamma == pytest.approx(1e-4)


def test_stab_params_rejects_negative():
    with pytest.raises(ValueError):
        StabParams(nu=-1.0, gamma=0.1, c_nit=10.0, alpha_prime=0)
    with pytest.raises(ValueError):
        StabParams(nu=1.0, gamma=0.1, c_nit=10.0, alpha_prime=-1)


@pytest.mark.parametrize(
    "nu,gamma,c_nit",
    [
        (0.0, 1e-2, 10.0),
        (-0.0, 1e-2, 10.0),
        (np.nan, 1e-2, 10.0),
        (np.inf, 1e-2, 10.0),
        (1.0, np.nan, 10.0),
        (1.0, np.inf, 10.0),
        (1.0, -1e-3, 10.0),
        (1.0, 1e-2, np.nan),
        (1.0, 1e-2, np.inf),
        (1.0, 1e-2, -1.0),
    ],
)
def test_stab_params_rejects_zero_viscosity_and_nonfinite_values(nu, gamma, c_nit):
    # eta divides by nu: nu = 0 or NaN would make eta NaN wherever |u| = 0
    with pytest.raises(ValueError):
        StabParams(nu=nu, gamma=gamma, c_nit=c_nit, alpha_prime=0)
    with pytest.raises(ValueError):
        StabParams.create(1, nu=nu, gamma=gamma, c_nit=c_nit)


def test_stab_params_accept_zero_penalties():
    params = StabParams(nu=1e-300, gamma=0.0, c_nit=0.0, alpha_prime=0)
    assert compute_eta(0.0, 0.0, 0.1, params) == 0.0


def test_eta_hand_values():
    # alpha'=0, gamma=1e-2, h=1/16, |u| = |u.n| = 1
    p = StabParams(nu=1e-3, gamma=1e-2, c_nit=10.0, alpha_prime=0)
    # Re_h = 62.5 clamps to 1: eta = 1e-2 * (1/16)^2
    assert compute_eta(1.0, 1.0, 1.0 / 16.0, p) == pytest.approx(3.90625e-5, rel=1e-14)
    # nu = 0.25 gives Re_h = 0.25 below the clamp
    p2 = p.with_nu(0.25)
    assert compute_eta(1.0, 1.0, 1.0 / 16.0, p2) == pytest.approx(9.765625e-6, rel=1e-14)
    assert compute_eta(0.0, 1.0, 1.0 / 16.0, p) == 0.0
    vals = compute_eta(np.array([1.0, 0.0, -1.0]), np.ones(3), 1.0 / 16.0, p)
    assert vals == pytest.approx([3.90625e-5, 0.0, 3.90625e-5], rel=1e-14)


# ------------------------------------------------------------------- viscous


def shear_state(pair):
    """u = (y, 0), exactly representable for every k'."""
    return interpolate_field(pair, lambda x, y: (y + 0 * x, 0 * x + 0 * y))


def stretch_state(pair):
    """u = (x, -y), exactly divergence-free and representable."""
    return interpolate_field(pair, lambda x, y: (x + 0 * y, -y + 0 * x))


def test_strain_energy_analytic(pair44):
    s = assemble_strain(pair44)
    u = shear_state(pair44).u
    # 2 ||grad_s (y,0)||^2 = (dy u1 + dx u2)^2 = 1 over the unit square
    assert u @ (s @ u) == pytest.approx(1.0, rel=1e-12)
    v = stretch_state(pair44).u
    # 2 [2 e11^2 + 2 e22^2] = 4
    assert v @ (s @ v) == pytest.approx(4.0, rel=1e-12)
    # cross energy: integrand 2 grad_s(y,0) : grad_s(x,-y) = 0
    assert u @ (s @ v) == pytest.approx(0.0, abs=1e-12)


def test_boundary_mass_analytic(pair44):
    p = assemble_boundary_mass(pair44)
    u = shear_state(pair44).u
    # boundary integral of u1^2: top 1, bottom 0, sides 2/3
    assert u @ (p @ u) == pytest.approx(5.0 / 3.0, rel=1e-12)


def boundary_unit_matrices(pair):
    """G, G^T, P and the penalty mass P_h as matrices on the pair's Jacobian pattern."""
    pattern = forms.jacobian_pattern(pair)
    terms = forms._boundary_terms(pair)
    transposed = [(j, i, a_y.T, a_x.T) for i, j, a_y, a_x in terms["G"]]
    return [
        pattern.csr(pattern.kron_data(t)) for t in (terms["G"], transposed, terms["P"], terms["P_h"])
    ]


def test_boundary_consistency_analytic(pair44):
    g = boundary_unit_matrices(pair44)[0]
    u = shear_state(pair44).u
    # (2 n . grad_s u, u) over the boundary: only the top edge contributes 1
    assert u @ (g @ u) == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(pair=random_pairs(), seed=st.integers(0, 2**16))
def test_boundary_terms_match_pointwise_quadrature(pair, seed):
    # u.G.v, u.P.v, u.P_h.v and g.v against per-facet quadrature of pointwise
    # values; the penalty weight h / h_n comes from each facet's element box
    gmat, gtmat, pmat, phmat = boundary_unit_matrices(pair)
    assert np.array_equal(gtmat.toarray(), gmat.T.toarray())
    params = params_for(pair, 0.3)
    coef = 2.0 * params.c_nit / pair.mesh.h
    u_d = lambda x, y: (np.sin(x + 2.0 * y), x * y - 1.0)
    g = nitsche_load(pair, params, u_d)
    rng = np.random.default_rng(seed)
    u, v = (StateVector(rng.standard_normal(pair.n_u), np.zeros(pair.n_p)) for _ in "uv")
    rule = gauss_rule(pair.k_prime + 2)
    sums = np.zeros(4)
    sizes = np.zeros(4)
    boxes = element_boxes(pair.mesh)
    for facet in boundary_facets(pair.mesh):
        pts, wts = facet_quadrature(facet, rule)
        n = np.array(facet.normal)
        box = boxes[facet.plus_element]
        scale = pair.mesh.h / (box[2 * facet.axis + 1] - box[2 * facet.axis])
        for x, w in zip(pts, wts):
            uq = eval_velocity(pair, u, x, deriv_order=1).value
            dv = eval_velocity(pair, v, x, deriv_order=1)
            grad = velocity_gradient(dv)
            traction = n @ grad + grad @ n  # 2 n . grad_s v
            ud = np.array(u_d(x[0], x[1]))
            terms = w * np.array(
                [
                    traction @ uq,
                    dv.value @ uq,
                    scale * dv.value @ uq,
                    params.nu * (coef * scale * dv.value - traction) @ ud,
                ]
            )
            sums += terms
            sizes += np.abs(terms)
    got = np.array([u.u @ (m @ v.u) for m in (gmat, pmat, phmat)] + [g @ v.u])
    assert np.abs(got - sums).max() <= 1e-11 * sizes.max()


def test_viscous_symmetry(pair44, pair33k2):
    for pair in (pair44, pair33k2):
        k = assemble_viscous_nitsche(pair, params_for(pair, 1e-3))
        assert max_abs(k - k.T) < 1e-10 * max_abs(k)


def test_viscous_nu_scaling(pair44):
    k1 = assemble_viscous_nitsche(pair44, params_for(pair44, 1e-3))
    k2 = assemble_viscous_nitsche(pair44, params_for(pair44, 2e-3))
    assert max_abs(2.0 * k1 - k2) < 1e-14 * max_abs(k2)


def test_viscous_without_nitsche_is_pure_strain(pair44):
    params = params_for(pair44, 0.5)
    k = assemble_viscous_nitsche(pair44, params, nitsche=False)
    s = assemble_strain(pair44)
    assert max_abs(k - 0.5 * s) < 1e-14


@settings(max_examples=20, deadline=None)
@given(pair=random_pairs(), seed=st.integers(0, 2**16))
@example(pair=make_pair(4, 1), seed=7)
@example(pair=make_pair(3, 2), seed=7)
def test_coercivity_with_skeleton(pair, seed):
    # A_h(u,u) + J(u;u,u) >= 1/2 |||u|||^2 on the strong-normal-trace kernel,
    # on graded meshes too, where the Nitsche penalty is scaled per side
    params = params_for(pair, 0.01)
    k = assemble_viscous_nitsche(pair, params)
    s = assemble_strain(pair)
    p = assemble_boundary_mass(pair)
    coef = 2.0 * params.nu * params.c_nit / pair.mesh.h
    rng = np.random.default_rng(seed)
    fixed = pair.normal_boundary_dofs.all
    for _ in range(100):
        u = rng.standard_normal(pair.n_u)
        u[fixed] = 0.0
        j = assemble_skeleton(pair, u, params)
        ju = u @ (j @ u)
        lhs = u @ (k @ u) + ju
        norm2 = params.nu * (u @ (s @ u)) + coef * (u @ (p @ u)) + ju
        assert lhs >= 0.5 * norm2 - 1e-12 * norm2


def nitsche_coercivity_constant(pair):
    """Smallest generalized eigenvalue of K on the free DOFs (normal trace
    fixed) against nu S + (2 nu C_nit / h) P, the energy norm with global h."""
    params = params_for(pair, 1.0)
    k = assemble_viscous_nitsche(pair, params).toarray()
    norm = params.nu * assemble_strain(pair).toarray() + (
        2.0 * params.nu * params.c_nit / pair.mesh.h
    ) * assemble_boundary_mass(pair).toarray()
    free = np.setdiff1d(np.arange(pair.n_u), pair.normal_boundary_dofs.all)
    sub = np.ix_(free, free)
    return sla.eigh(k[sub], norm[sub], eigvals_only=True)[0]


@pytest.mark.parametrize("k_prime", [1, 2, 3])
def test_nitsche_penalty_keeps_graded_mesh_coercive(k_prime):
    # boundary elements 10x thinner than the largest edge, where a penalty
    # with the global h leaves K indefinite at k' = 2, 3 (-0.012, -0.147)
    b = np.array([0.0, 1.0, 11.0, 21.0, 31.0]) / 31.0
    pair = build_pair(build_mesh(open_knots(1, b), open_knots(1, b)), k_prime)
    assert nitsche_coercivity_constant(pair) > 0.5


@settings(max_examples=25, deadline=None)
@given(pair=random_pairs())
def test_nitsche_penalty_coercive_on_random_pairs(pair):
    assert nitsche_coercivity_constant(pair) > 0.0


# ---------------------------------------------------------------- divergence


def test_divergence_of_curl_is_zero(pair44, pair33k2):
    for pair in (pair44, pair33k2):
        b = assemble_divergence(pair)
        for seed in range(3):
            st = curl_state(pair, seed=seed)
            scale = np.abs(st.u).max()
            assert np.abs(b @ st.u).max() < 1e-11 * scale


def test_divergence_of_solenoidal_polynomial(pair44):
    b = assemble_divergence(pair44)
    u = stretch_state(pair44).u
    assert np.abs(b @ u).max() < 1e-12


def test_divergence_matches_pressure_integrals(pair44):
    # u = (x, 0) has div u = 1, so (B u)_q = integral of psi_q
    b = assemble_divergence(pair44)
    st = interpolate_field(pair44, lambda x, y: (x + 0 * y, 0 * x + 0 * y))
    m = pressure_mean_vector(pair44)
    assert b @ st.u == pytest.approx(m, abs=1e-12)


# ---------------------------------------------------------------- convection


def test_convection_zero_advector(pair44):
    n1, n2 = assemble_convection(pair44, np.zeros(pair44.n_u))
    assert np.abs(n1.data).max() == 0.0
    assert np.abs(n2.data).max() == 0.0


def test_convection_quad_points():
    assert convection_quad_points(1) == 3
    assert convection_quad_points(2) == 5
    assert convection_quad_points(3) == 6


def test_convection_skew_symmetry(pair44, pair33k2):
    # C(w; v, v) = 0 for discretely solenoidal w with w . n = 0
    for pair in (pair44, pair33k2):
        w = curl_state(pair, seed=3, zero_boundary_ring=True)
        n1, _ = assemble_convection(pair, w)
        rng = np.random.default_rng(11)
        scale = np.abs(w.u).max()
        for _ in range(20):
            v = rng.standard_normal(pair.n_u)
            quad = v @ (n1 @ v)
            assert abs(quad) < 1e-10 * scale * (v @ v)


def test_convection_analytic_value(pair44):
    # C(w; u, v) = -int y * x = -1/4 for w=(y,0), u=(x,-y), v=(x,-y)
    w = shear_state(pair44)
    u = stretch_state(pair44).u
    n1, _ = assemble_convection(pair44, w)
    assert u @ (n1 @ u) == pytest.approx(-0.25, rel=1e-12)


def test_convection_jacobian_directional_derivative(pair44):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(pair44.n_u)
    d = rng.standard_normal(pair44.n_u)

    def residual(vec):
        n1, _ = assemble_convection(pair44, vec)
        return n1 @ vec

    n1, n2 = assemble_convection(pair44, u)
    jac_dir = (n1 + n2) @ d
    eps = 1e-6
    fd = (residual(u + eps * d) - residual(u - eps * d)) / (2 * eps)
    assert np.abs(fd - jac_dir).max() < 1e-6 * max(1.0, np.abs(jac_dir).max())


@settings(max_examples=20, deadline=None)
@given(
    pair=random_pairs(),
    seed=st.integers(0, 2**16),
    nu=st.sampled_from([1.0, 1e-2, 1e-4]),
)
def test_residual_kernels_match_assembled_matrices(pair, seed, nu):
    # N1(u) u and J(u) u without matrices against the assembled products;
    # the viscosities put the facet Reynolds numbers on both sides of 1
    u = np.random.default_rng(seed).standard_normal(pair.n_u)
    params = StabParams.create(pair.k_prime, nu=nu)
    n1, _ = assemble_convection(pair, u)
    j = assemble_skeleton(pair, u, params)
    for kernel, mat in (
        (convection_residual(pair, u), n1),
        (skeleton_residual(pair, u, params), j),
    ):
        scale = (abs(mat) @ np.abs(u)).max(initial=0.0)
        assert np.abs(kernel - mat @ u).max() <= 1e-13 * scale
    energy = u @ skeleton_residual(pair, u, params)
    assert abs(energy - u @ (j @ u)) <= 1e-13 * (np.abs(u) @ (abs(j) @ np.abs(u)))
    galerkin = StabParams(nu, 0.0, params.c_nit, params.alpha_prime)
    assert not skeleton_residual(pair, u, galerkin).any()
    # given a direction v, the same kernels apply the Jacobian at u: the
    # state-derivative (N1 + N2) v of N1(u) u, and J(u) v, eta frozen at u
    v = np.random.default_rng(seed + 1).standard_normal(pair.n_u)
    n1, n2 = assemble_convection(pair, u)
    for kernel, mat in (
        (convection_residual(pair, u, v), n1 + n2),
        (skeleton_residual(pair, u, params, v), j),
    ):
        scale = (abs(mat) @ np.abs(v)).max(initial=0.0)
        assert np.abs(kernel - mat @ v).max() <= 1e-13 * scale


@settings(max_examples=20, deadline=None)
@given(pair=random_pairs(), seed=st.integers(0, 2**16))
def test_parallel_flow_has_no_cross_wind_penalty(pair, seed):
    # u = (U(y), 0): vx's coefficients constant along x give a field of y
    # alone (the x basis sums to 1), so u . n = 0 on the facets normal to y
    # and eta vanishes there exactly. The penalty then acts on no
    # x-component, for any direction v, and J(u) u = 0
    rng = np.random.default_rng(seed)
    u = np.zeros(pair.n_u)
    grid = pair.component_coeffs(u, 0)
    grid[...] = rng.standard_normal((grid.shape[0], 1))
    params = StabParams.create(pair.k_prime, nu=1e-3)
    _, eta_normal_to_y = facet_eta_values(pair, u, params)
    assert not eta_normal_to_y.any()
    v = rng.standard_normal(pair.n_u)
    assert not pair.component_coeffs(skeleton_residual(pair, u, params, v), 0).any()
    assert not skeleton_residual(pair, u, params).any()


@settings(max_examples=20, deadline=None)
@given(pair=random_pairs(), seed=st.integers(0, 2**16))
def test_eta_follows_the_facet_reynolds_number(pair, seed):
    # eta = gamma min(Re_h, 1) h^(2 alpha' + 2) |u . n| with Re_h = |u| h /
    # nu: where diffusion dominates (Re_h < 1 at every facet point) doubling
    # nu halves eta, and where convection dominates (Re_h >= 1 everywhere)
    # eta does not depend on nu. Coefficients in [1/2, 1] keep both
    # components there (the bases sum to 1), so 1/2 <= |u| <= sqrt(2), and
    # Re_h = 2 |u| at nu = h / 2 reaches down to 1
    u = np.random.default_rng(seed).uniform(0.5, 1.0, pair.n_u)
    h = pair.mesh.h

    def eta_at(nu):
        return facet_eta_values(pair, u, StabParams.create(pair.k_prime, nu=nu))

    for eta, eta_doubled in zip(eta_at(4.0 * h), eta_at(8.0 * h)):
        scale = np.abs(eta).max(initial=0.0)
        assert np.abs(eta_doubled - 0.5 * eta).max(initial=0.0) <= 1e-15 * scale
    for eta, eta_doubled in zip(eta_at(0.25 * h), eta_at(0.5 * h)):
        assert np.array_equal(eta_doubled, eta)


def test_per_state_values_are_recomputed_for_a_new_state_or_params(pair44):
    # eta and w at the convection points are kept for the last state, which
    # is compared by value: a copy hits, a change in place or new params miss
    u = np.random.default_rng(3).standard_normal(pair44.n_u)
    params = StabParams.create(1, nu=1e-2)
    eta = facet_eta_values(pair44, u, params)
    wq = forms._convection_values(pair44, u)
    assert facet_eta_values(pair44, u.copy(), params) is eta
    assert forms._convection_values(pair44, u.copy()) is wq
    u[::2] *= 3.0
    for p in (params, params.with_nu(1e-4)):
        for cached, fresh in zip(facet_eta_values(pair44, u, p), forms._facet_eta(pair44, u, p)):
            np.testing.assert_array_equal(cached, fresh)
    for cached, fresh in zip(
        forms._convection_values(pair44, u), forms._convection_point_values(pair44, u)
    ):
        np.testing.assert_array_equal(cached, fresh)


# ------------------------------------------------------------------ skeleton


def test_skeleton_gamma_zero_has_no_entries(pair44):
    params = StabParams(nu=1e-3, gamma=0.0, c_nit=10.0, alpha_prime=0)
    st = curl_state(pair44, seed=0)
    j = assemble_skeleton(pair44, st, params)
    assert j.nnz == 0


def test_skeleton_vanishes_on_global_polynomial(pair44):
    # u1 = x^2 y, u2 = x y^2 are single polynomials: every jump is zero
    poly = interpolate_field(pair44, lambda x, y: (x * x * y, x * y * y))
    w = curl_state(pair44, seed=2)
    j = assemble_skeleton(pair44, w, params_for(pair44, 1e-3))
    scale = max(max_abs(j), 1e-30)
    assert np.abs(j @ poly.u).max() < 1e-10 * scale * np.abs(poly.u).max()


def test_skeleton_symmetric_positive_semidefinite(pair44):
    params = params_for(pair44, 1e-3)
    w = curl_state(pair44, seed=4)
    j = assemble_skeleton(pair44, w, params)
    assert max_abs(j - j.T) < 1e-14 * max_abs(j)
    rng = np.random.default_rng(13)
    scale = max_abs(j)
    for _ in range(100):
        v = rng.standard_normal(pair44.n_u)
        assert v @ (j @ v) >= -1e-12 * scale * (v @ v)


def test_skeleton_ignores_normal_component():
    # On a 3x1 mesh only vertical facets exist; a velocity with u2 = 0 has
    # continuous k'-th x-derivatives in Vx, so the penalty sees nothing.
    kx = make_open_uniform(2, 3, (0.0, 1.0))
    ky = make_open_uniform(2, 1, (0.0, 1.0))
    pair = build_pair(build_mesh(kx, ky), 1)
    rng = np.random.default_rng(3)
    u = np.zeros(pair.n_u)
    u[: pair.vx.n_dofs] = rng.standard_normal(pair.vx.n_dofs)
    j = assemble_skeleton(pair, u, params_for(pair, 1e-3))
    quad = u @ (j @ u)
    assert abs(quad) < 1e-20


@pytest.mark.parametrize("k_prime", [1, 2, 3])
def test_normal_component_jump_table_is_zero_on_uniform_knots(k_prime):
    # the normal component's (alpha'+1)-th normal derivative is continuous
    for n, interval in ((2, (0.0, 1.0)), (5, (0.0, 2.0 * np.pi)), (3, (-1.0, 3.0))):
        pair = make_pair(n, k_prime, interval)
        for axis in (0, 1):
            assert np.all(interior_facet_tables(pair, axis, axis).jump == 0.0)
            assert np.abs(interior_facet_tables(pair, axis, 1 - axis).jump).max() > 0.0


@settings(max_examples=30, deadline=None)
@given(pair=random_pairs())
def test_normal_component_jump_table_is_roundoff_on_graded_knots(pair):
    # graded knots leave roundoff in the normal component's table, which is
    # why the skeleton takes the tangential table by construction
    for axis in (0, 1):
        normal, tangential = (interior_facet_tables(pair, axis, c) for c in (axis, 1 - axis))
        if len(normal.weights):
            scale = np.abs(tangential.jump).max()
            assert np.abs(normal.jump).max() <= 1e-13 * scale


@settings(max_examples=20, deadline=None)
@given(pair=random_pairs(), seed=st.integers(0, 2**16))
def test_skeleton_stores_no_normal_component_facet_coupling(pair, seed):
    # component c is normal to the facets across axis c; a facet block of it
    # would couple basis functions degree + 1 apart along that axis, which no
    # element reaches; the tangential component's blocks do
    u = np.random.default_rng(seed).standard_normal(pair.n_u)
    j = assemble_skeleton(pair, u, params_for(pair, 1e-2)).tocoo()
    for comp, space in enumerate(pair.velocity_spaces):
        lo = pair.component_offset(comp)
        own = (j.row >= lo) & (j.row < lo + space.n_dofs)
        own &= (j.col >= lo) & (j.col < lo + space.n_dofs)
        rows, cols = j.row[own] - lo, j.col[own] - lo
        for axis, (index, kv) in enumerate(
            ((lambda i: i % space.n_x, space.kv_x), (lambda i: i // space.n_x, space.kv_y))
        ):
            reach = np.abs(index(rows) - index(cols))
            if axis == comp:
                assert reach.max(initial=0) <= kv.degree
            elif kv.n_elements > 1:
                assert reach.max() == kv.degree + 1


def test_skeleton_matches_pointwise_quadrature(pair44, pair33k2, graded_pair_k2):
    # independent evaluation per facet from one-sided jumps and eta
    for pair in (pair44, pair33k2, graded_pair_k2):
        params = params_for(pair, 1e-2)
        st = curl_state(pair, seed=8)
        j = assemble_skeleton(pair, st, params)
        quad_form = st.u @ (j @ st.u)
        rule = gauss_rule(pair.k_prime + 2)
        total = 0.0
        for facet in interior_facets(pair.mesh):
            pts, wts = facet_quadrature(facet, rule)
            for q in range(len(wts)):
                val = eval_velocity(pair, st, pts[q], deriv_order=0).value
                eta = compute_eta(
                    val[facet.axis], float(np.hypot(val[0], val[1])), pair.mesh.h, params
                )
                jump = facet_normal_derivative_jump(pair, st, facet, pts[q])
                total += wts[q] * eta * float(jump @ jump)
        assert quad_form == pytest.approx(total, rel=1e-10)


# ---------------------------------------------------------------------- load


def test_load_zero_data(pair44):
    rhs = assemble_load(pair44, params_for(pair44, 1e-3))
    assert np.all(rhs == 0.0)


def test_load_constant_force_matches_basis_integrals(pair44):
    rhs = assemble_load(
        pair44, params_for(pair44, 1e-3), f=lambda x, y: (1.0 + 0 * x, 0 * x)
    )
    vx = pair44.vx
    expect = np.kron(basis_integrals(vx.kv_y), basis_integrals(vx.kv_x))
    assert rhs[: vx.n_dofs] == pytest.approx(expect, abs=1e-12)
    assert np.abs(rhs[vx.n_dofs :]).max() < 1e-15


def test_nitsche_load_penalty_term(pair44):
    # uD = (1, 0) against v = (y, 0): consistency part cancels, penalty gives
    # 2 nu C/h * int_bnd v1 = 2 nu C/h * 2
    params = params_for(pair44, 0.37)
    g = nitsche_load(pair44, params, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    v = shear_state(pair44).u
    expect = 2.0 * params.nu * params.c_nit / pair44.mesh.h * 2.0
    assert g @ v == pytest.approx(expect, rel=1e-12)


def test_nitsche_load_consistency_term(pair44):
    # uD = (0, x) against v = (y, 0): penalty part vanishes, consistency gives
    # -(2 nu n . grad_s v, uD) = -nu (right edge only)
    params = params_for(pair44, 0.37)
    g = nitsche_load(pair44, params, lambda x, y: (np.zeros_like(x), x))
    v = shear_state(pair44).u
    assert g @ v == pytest.approx(-params.nu, rel=1e-12)


def test_load_includes_nitsche_terms(pair44):
    params = params_for(pair44, 0.2)
    ud = lambda x, y: (np.ones_like(x), np.zeros_like(x))
    combined = assemble_load(pair44, params, u_d=ud)
    assert combined == pytest.approx(nitsche_load(pair44, params, ud))
    off = assemble_load(pair44, params, u_d=ud, nitsche=False)
    assert np.all(off == 0.0)


# ---------------------------------------------------------------------- mass


def test_velocity_mass_analytic(pair44):
    m = assemble_velocity_mass(pair44)
    u = shear_state(pair44).u
    assert u @ (m @ u) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert max_abs(m - m.T) < 1e-14


def test_velocity_mass_stores_no_explicit_zeros():
    # the pattern holds component couplings and skeleton entries M does not
    pair = make_pair(2, 1)
    m = assemble_velocity_mass(pair)
    assert m.nnz == np.count_nonzero(m.toarray())
    assert m.nnz < forms.jacobian_pattern(pair).nnz
    # its own arrays, read-only as it is memoized
    assert not np.shares_memory(m.indices, forms.jacobian_pattern(pair).indices)
    assert not any(a.flags.writeable for a in (m.data, m.indices, m.indptr))


# ------------------------------------------------------------------- pattern


def assert_pattern_matches_sort(pair):
    pattern = forms.JacobianPattern(pair)
    indptr, indices, _ = sorted_pattern(pair)
    assert pattern.nnz == len(indices)
    assert np.array_equal(pattern.indptr, indptr)
    assert np.array_equal(pattern.indices, indices)


@settings(max_examples=40, deadline=None)
@given(pair=random_pairs())
def test_pattern_matches_sorted_block_keys_on_random_pairs(pair):
    assert_pattern_matches_sort(pair)


@pytest.mark.parametrize(
    "k_prime,nx,ny",
    [(1, 32, 32), (2, 32, 32), (3, 32, 32), (1, 64, 64), (3, 1, 1), (2, 1, 4), (3, 5, 1)],
)
def test_pattern_matches_sorted_block_keys(k_prime, nx, ny):
    kx = make_open_uniform(k_prime + 1, nx)
    ky = make_open_uniform(k_prime + 1, ny)
    assert_pattern_matches_sort(build_pair(build_mesh(kx, ky), k_prime))


@settings(max_examples=40, deadline=None)
@given(pair=random_pairs())
@example(pair=make_pair(8, 3))
@example(pair=make_pair(5, 4))
@example(  # graded in x, one element in y: W' = 15 along x and 13 along y
    pair=build_pair(build_mesh(open_knots(1, [0.0, 0.1, 0.5, 1.0]), open_knots(1, [0.0, 1.0])), 5)
)
def test_streamfunction_pattern_matches_structural_product(pair):
    # the pattern crossed from 1-D structures is the sparse triple product
    # |C|^T |J| |C|, entry for entry, and every entry lies in the psi bands
    psi = forms.streamfunction_pattern(pair)
    indptr, indices, gather, inside = structural_product_pattern(pair)
    assert inside.all()
    for got, expect in ((psi.indptr, indptr), (psi.indices, indices), (psi._gather, gather)):
        assert got.dtype == expect.dtype and np.array_equal(got, expect)
    assert psi.nnz == len(indices)


def test_streamfunction_pattern_build_transient_within_thrice_retained():
    # the structure is crossed from 1-D products in psi band storage, with
    # no velocity CSR of ones and no sparse triple product (8.1x its
    # retained arrays at (3,32))
    pair = make_pair(32, 3)
    forms.jacobian_pattern(pair)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        psi = forms.StreamfunctionPattern(pair)
        retained, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert retained >= psi._gather.nbytes + psi.indices.nbytes
    assert peak <= 3 * retained


@settings(max_examples=25, deadline=None)
@given(pair=random_pairs())
def test_k_band_gathers_to_assembled_k(pair):
    # the spatial operator's K band buffer is filled by the same assembly as
    # K's CSR, so its gather is K's data bit for bit; it is read-only
    pattern = forms.jacobian_pattern(pair)
    unit = params_for(pair, 0.3).with_nu(1.0)
    for nitsche in (True, False):
        op = _SpatialOperator(FlowProblem(pair, unit, nitsche=nitsche))
        k = assemble_viscous_nitsche(pair, unit, nitsche)
        assert np.array_equal(pattern.gather(op.k_band), k.data)
        assert not op.k_band.flags.writeable


# name: (add the operator into the buffer out, the operator as a matrix)
OUT_ADDERS = {
    "mass": (
        lambda pair, u, params, out: forms.add_velocity_mass(pair, 0.7, out=out),
        lambda pair, u, params: 0.7 * assemble_velocity_mass(pair),
    ),
    "convection": (
        lambda pair, u, params, out: assemble_convection(pair, u, out=out),
        lambda pair, u, params: sum(assemble_convection(pair, u)),  # N1 + N2
    ),
    "skeleton": (
        lambda pair, u, params, out: assemble_skeleton(pair, u, params, out=out),
        lambda pair, u, params: assemble_skeleton(pair, u, params),
    ),
    "viscous_nitsche": (
        lambda pair, u, params, out: assemble_viscous_nitsche(pair, params, out=out),
        lambda pair, u, params: assemble_viscous_nitsche(pair, params),
    ),
}


@pytest.mark.parametrize("name", list(OUT_ADDERS))
@settings(max_examples=10, deadline=None)
@given(pair=random_pairs(), seed=st.integers(0, 2**16))
def test_out_adds_into_a_filled_buffer(name, pair, seed):
    # every adder with out adds its operator to what the buffer holds (+=,
    # not =), and nothing else: the gathered difference is the operator
    add, matrix = OUT_ADDERS[name]
    pattern = forms.jacobian_pattern(pair)
    params = params_for(pair, 1e-2)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(pair.n_u)
    expect = matrix(pair, u, params)
    scale = max_abs(expect)
    before = scale * rng.standard_normal(pattern.buffer().size)
    after = before.copy()
    assert add(pair, u, params, after) is None
    got = pattern.csr(pattern.gather(after) - pattern.gather(before))
    assert max_abs(got - expect) <= 1e-14 * scale
    if name == "skeleton":
        after = before.copy()
        add(pair, u, dataclasses.replace(params, gamma=0.0), after)
        assert np.array_equal(after, before)


def test_pattern_build_transient_within_twice_retained():
    # the pattern keeps its gather index, indices and indptr, one integer an
    # entry each (no per-entry positions: 23.25 MiB at (3,32)), and builds
    # them from 1-D bands without sort keys
    pair = make_pair(32, 3)
    forms.facet_tables(pair)
    forms._convection_tables(pair)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pattern = forms.JacobianPattern(pair)
        retained, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert retained >= pattern._gather.nbytes + pattern.indices.nbytes
    assert retained <= 3.0 * 2**20
    assert peak <= 2 * retained


@pytest.mark.parametrize("kernel", ["convection", "skeleton"])
def test_newton_kernel_transient_is_outputs_plus_a_few_blocks(kernel):
    # the operators are summed in one band buffer, a few temporaries at a
    # time, and gathered into the outputs: no element or facet block list
    pair = make_pair(16, 3)
    params = params_for(pair, 1e-3)
    rng = np.random.default_rng(4)
    u_warm, u = rng.standard_normal(pair.n_u), rng.standard_normal(pair.n_u)
    nnz = forms.jacobian_pattern(pair).nnz
    if kernel == "convection":
        build = lambda v: assemble_convection(pair, v)
        n_outputs = 2
        # the largest local (E, L, M) block: every component has (k' + 2)(k' + 1)
        # functions on an element
        n_local = (pair.k_prime + 2) * (pair.k_prime + 1)
        largest = pair.mesh.nx * pair.mesh.ny * n_local**2 * 8
    else:
        build = lambda v: assemble_skeleton(pair, v, params)
        n_outputs = 1
        jumps = [interior_facet_tables(pair, axis, 1 - axis).jump for axis in (0, 1)]
        largest = max(max(j.nbytes, len(j) * j.shape[-1] ** 2 * 8) for j in jumps)
    build(u_warm)  # tables and pattern
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = build(u)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out is not None
    assert peak <= n_outputs * nnz * 8 + 3 * largest


def test_convection_retains_only_one_dimensional_tables():
    # N1 and N2 are summed from 1-D element rows: the tables and one assembly
    # keep those rows, their collocation and w on the grid of points, and no
    # (E, Q, L) basis table; the pattern, built in between, is not counted
    pair = make_pair(32, 3)
    u = np.random.default_rng(5).standard_normal(pair.n_u)

    def retained_by(build):
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build()
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()

    tables = retained_by(lambda: forms.element_tables(pair, forms.convection_quad_points(3)))
    forms.jacobian_pattern(pair)
    assembly = retained_by(lambda: assemble_convection(pair, u))
    assert tables + assembly <= 2 * 2**20


@settings(max_examples=20, deadline=None)
@given(pair=random_pairs())
def test_facet_tables_match_facet_by_facet_oracle_bit_for_bit(pair):
    # the tangential component's jump on a facet is its tangential
    # collocation times its line's jump row, and the jump products are each
    # line's outer product of that row with itself, in band storage
    for facets in facet_tables(pair).interior:
        a, c = facets.axis, 1 - facets.axis
        oracle = interior_facet_tables(pair, a, c)
        lines, n_n = facets.line_jump.shape  # interior knot lines
        n_t = facets.tang[c].shape[1]
        # (lines, T, n_t, n_n), indexed (tangential, normal) like the grid
        jump = facets.tang[c][None, :, :, None] * facets.line_jump[:, None, None, :]
        grid = jump if a == 0 else jump.swapaxes(2, 3)  # to (n_y, n_x)
        dense = grid.reshape(oracle.weights.shape + (n_t * n_n,))
        local = oracle.dofs - pair.component_offset(c)
        got = np.take_along_axis(dense, local[:, None, :], axis=2)
        assert np.array_equal(got, oracle.jump)
        assert np.count_nonzero(dense) == np.count_nonzero(got)  # none outside the facet's DOFs
        weights = np.tile(facets.line_weights, (lines, 1)).reshape(oracle.weights.shape)
        assert np.array_equal(weights, oracle.weights)
        n_el = lines + 1  # normal elements
        p_n, w_n = forms._band(n_el, n_n - n_el, n_n - n_el, widen=True)
        band = facets.jump_products.reshape(lines, n_n, w_n)
        rows = np.arange(n_n)[:, None]
        cols = rows - p_n + np.arange(w_n)
        inside = (cols >= 0) & (cols < n_n)
        products = np.zeros((lines, n_n, n_n))
        products[:, np.broadcast_to(rows, cols.shape)[inside], cols[inside]] = band[:, inside]
        expect = facets.line_jump[:, :, None] * facets.line_jump[:, None, :]
        assert np.array_equal(products, expect)
        assert np.count_nonzero(band) == np.count_nonzero(products)  # none outside the space


def test_facet_tables_read_tangential_factors_from_the_element_tables(pair33k2):
    # the loads and the facet tables share one k' + 2 point table
    pair = pair33k2
    tab = forms.element_tables(pair, pair.k_prime + 2)
    for facets in facet_tables(pair).interior:
        t = 1 - facets.axis
        assert np.shares_memory(facets.line_weights, tab.weights_1d[t])
        for c in (0, 1):
            assert np.shares_memory(facets.tang[c], tab.colloc[c][t])


def test_facet_tables_retain_only_tangential_jump_tables():
    # with the shared k' + 2 point element table built, the facet tables hold
    # the normal-direction line rows and the tangential component's line
    # jump products; the per-facet jump tables and DOFs were 2.3 MiB at (3,32)
    pair = make_pair(32, 3)
    forms.element_tables(pair, pair.k_prime + 2)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tables = forms.FacetTables(pair)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert tables.interior
    assert retained <= 0.5 * 2**20


@pytest.mark.parametrize("build", [forms.JacobianPattern, forms.FacetTables], ids=lambda b: b.__name__)
def test_pattern_rejects_interior_multiplicity_above_one(pair33k2, build):
    # both build on 1-D bands that need interior knot multiplicity 1; the
    # doubled knots are vx's normal direction on one facet orientation and
    # its tangential direction on the other
    kv = pair33k2.vx.kv_x
    doubled = open_knots(kv.degree, kv.unique_knots, interior_multiplicity=2)
    pair = dataclasses.replace(pair33k2, vx=TensorSpace(kv_x=doubled, kv_y=pair33k2.vx.kv_y))
    with pytest.raises(ValueError, match="multiplicity"):
        build(pair)


@settings(max_examples=30, deadline=None)
@given(
    pair=random_pairs(),
    seed=st.integers(0, 2**16),
    nu=st.sampled_from([1.0, 1e-2, 1e-4]),
)
def test_band_operators_match_oracle_scatter(pair, seed, nu):
    # every operator summed in band storage and gathered equals the same
    # terms and element or facet blocks added with np.add.at at the sorted
    # pattern's positions, to roundoff (the summation order differs)
    u = np.random.default_rng(seed).standard_normal(pair.n_u)
    params = StabParams.create(pair.k_prime, nu=nu)
    pattern = forms.jacobian_pattern(pair)
    n1, n2 = assemble_convection(pair, u)
    oracle = oracle_operator_data(pair, u, params)
    for name, got in (
        ("K", assemble_viscous_nitsche(pair, params)),
        ("K without Nitsche terms", assemble_viscous_nitsche(pair, params, nitsche=False)),
        ("M", pattern.csr(pattern.kron_data(forms._mass_terms(pair)))),
        ("N1", n1),
        ("N2", n2),
        ("J", assemble_skeleton(pair, u, params)),
    ):
        expect = oracle[name]
        assert np.array_equal(got.indices, pattern.indices), name
        assert np.abs(got.data - expect).max() <= 1e-13 * np.abs(expect).max(), name
    # no 1-D Kronecker factor has a nonzero outside its block's band
    terms = forms._boundary_terms(pair)
    masses = forms._mass_terms(pair)
    for i, j, a_y, a_x in forms._strain_terms(pair) + sum(terms.values(), []) + masses:
        for a, (p, w) in zip((a_y, a_x), pattern.bands[i][j]):
            rows, cols = np.nonzero(a)
            assert np.all((cols - rows + p >= 0) & (cols - rows + p < w))


@settings(max_examples=30, deadline=None)
@given(pair=random_pairs())
def test_constant_operators_match_quadrature_oracles(pair):
    # the constant operators are Kronecker products of 1-D Gram matrices and
    # end-point rows, and the loads 1-D contractions, so they match element
    # and boundary-facet quadrature to roundoff, not bit for bit
    params = params_for(pair, 0.05)
    f = lambda x, y: (np.sin(x + y), x * y)
    u_d = lambda x, y: (np.sin(3.0 * x + y), np.cos(x * y))
    s, m, body = quadrature_constant_operators(pair, f)
    g, p, p_h, g_load = quadrature_boundary_operators(pair, params, u_d)
    pattern = forms.jacobian_pattern(pair)
    coef = 2.0 * params.nu * params.c_nit / pair.mesh.h
    got_g, got_gt, got_p, got_p_h = boundary_unit_matrices(pair)
    for name, got, expect in (
        ("S", assemble_strain(pair), s),
        ("K", assemble_viscous_nitsche(pair, params), params.nu * (s - g - g.T) + coef * p_h),
        ("K without Nitsche terms", assemble_viscous_nitsche(pair, params, nitsche=False), params.nu * s),
        ("M", assemble_velocity_mass(pair), m),
        ("M on the pattern", pattern.csr(pattern.kron_data(forms._mass_terms(pair))), m),
        ("G", got_g, g),
        ("G^T", got_gt, g.T),
        ("P", got_p, p),
        ("assemble_boundary_mass", assemble_boundary_mass(pair), p),
        ("P_h", got_p_h, p_h),
    ):
        assert abs(got - expect).max() <= 1e-13 * abs(expect).max(), name
    for name, got, expect in (
        ("Nitsche load", nitsche_load(pair, params, u_d), g_load),
        ("body-force load", assemble_load(pair, params, f=f, nitsche=False), body),
    ):
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max(), name


@settings(max_examples=30, deadline=None)
@given(
    pair=random_pairs(),
    seed=st.integers(0, 2**16),
    nu=st.sampled_from([1.0, 1e-2, 1e-4]),
)
def test_per_state_kernels_match_quadrature_oracles(pair, seed, nu):
    # the per-state kernels contract dense 1-D factors on the tensor grid and
    # on the facet lines, so they match element and facet quadrature to
    # roundoff, not bit for bit; the viscosities put the facet Reynolds
    # numbers on both sides of 1
    u = np.random.default_rng(seed).standard_normal(pair.n_u)
    params = StabParams.create(pair.k_prime, nu=nu)
    n1, n2, conv = quadrature_convection(pair, u)
    etas, j, skel = quadrature_skeleton(pair, u, params)
    got_n1, got_n2 = assemble_convection(pair, u)
    for name, got, expect in (
        ("N1", got_n1, n1),
        ("N2", got_n2, n2),
        ("J", assemble_skeleton(pair, u, params), j),
    ):
        assert abs(got - expect).max() <= 1e-13 * abs(expect).max(), name
    for name, got, expect, mat in (
        ("N1(u) u", convection_residual(pair, u), conv, n1),
        ("J(u) u", skeleton_residual(pair, u, params), skel, j),
    ):
        scale = (abs(mat) @ np.abs(u)).max(initial=0.0)
        assert np.abs(got - expect).max(initial=0.0) <= 1e-13 * scale, name
    for facets, eta in zip(facet_tables(pair).interior, facet_eta_values(pair, u, params)):
        expect = etas[facets.axis]
        got = eta.T.reshape(expect.shape)  # lines to facets
        assert np.abs(got - expect).max(initial=0.0) <= 1e-13 * np.abs(expect).max(initial=0.0)


def test_pattern_matrices_share_read_only_indices(pair33k2):
    # every velocity operator shares the Jacobian pattern's indices, and
    # every streamfunction matrix those of the streamfunction pattern
    pair = pair33k2
    params = params_for(pair, 0.05)
    u = curl_state(pair, seed=3).u
    n1, n2 = assemble_convection(pair, u)
    op = _SpatialOperator(FlowProblem(pair, params, u_d=lambda x, y: (x, 0 * y)))
    for pattern, matrices in (
        (
            forms.jacobian_pattern(pair),
            (
                assemble_strain(pair),
                assemble_viscous_nitsche(pair, params),
                n1,
                n2,
                assemble_skeleton(pair, u, params),
            ),
        ),
        (forms.streamfunction_pattern(pair), (op.linearize(u),)),
    ):
        for mat in matrices:
            for got, shared in ((mat.indices, pattern.indices), (mat.indptr, pattern.indptr)):
                assert np.shares_memory(got, shared)
                assert not got.flags.writeable


def test_shared_operators_reject_in_place_changes():
    pair = make_pair(3, 2)
    params = params_for(pair, 0.5)
    strain = assemble_strain(pair)
    before = strain.data.copy()
    with pytest.raises(ValueError):
        strain.data *= 2.0
    with pytest.raises(ValueError):
        strain.eliminate_zeros()
    with pytest.raises(ValueError):
        assemble_viscous_nitsche(pair, params).eliminate_zeros()
    assert not assemble_velocity_mass(pair).data.flags.writeable
    op = _SpatialOperator(FlowProblem(pair, params, nitsche=False))
    assert np.array_equal(assemble_strain(pair).data, before)
    # K_unit is assembled at nu = 1: without Nitsche terms it is S without
    # its explicit zeros, in arrays of its own
    assert np.array_equal(op.k_unit.toarray(), strain.toarray())
    assert op.k_unit.nnz == np.count_nonzero(before) < strain.nnz
    assert not np.shares_memory(op.k_unit.data, strain.data)
    psi = forms.streamfunction_pattern(pair)
    assert not any(a.flags.writeable for a in (psi.indices, psi.indptr, psi._gather))
