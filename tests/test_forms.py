"""Tests for the form assembly module."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divspline.bspline import basis_integrals, open_knots
from divspline.forms import (
    StabParams,
    _boundary_unit_matrices,
    assemble_boundary_mass,
    assemble_convection,
    assemble_divergence,
    assemble_load,
    assemble_skeleton,
    assemble_strain,
    assemble_velocity_mass,
    assemble_viscous_nitsche,
    compute_eta,
    convection_quad_points,
    nitsche_load,
)
from divspline.mesh import build_mesh, facet_quadrature, gauss_rule
from divspline.bspline import make_open_uniform
from divspline.space import (
    StateVector,
    build_pair,
    eval_velocity,
    facet_normal_derivative_jump,
    interpolate_field,
    pressure_mean_vector,
)
from util_fields import curl_state, random_pairs


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
        StabParams(nu=-1.0, gamma=0.1, delta=1.0, c_nit=10.0, alpha_prime=0)
    with pytest.raises(ValueError):
        StabParams(nu=1.0, gamma=0.1, delta=1.0, c_nit=10.0, alpha_prime=-1)


def test_eta_hand_values():
    # alpha'=0, gamma=1e-2, h=1/16, |u| = |u.n| = 1
    p = StabParams(nu=1e-3, gamma=1e-2, delta=1.0, c_nit=10.0, alpha_prime=0)
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


def test_boundary_consistency_analytic(pair44):
    g, _ = _boundary_unit_matrices(pair44)
    u = shear_state(pair44).u
    # (2 n . grad_s u, u) over the boundary: only the top edge contributes 1
    assert u @ (g @ u) == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(pair=random_pairs(), seed=st.integers(0, 2**16))
def test_boundary_terms_match_pointwise_quadrature(pair, seed):
    # u.G.v, u.P.v and g.v against per-facet quadrature of pointwise values
    gmat, pmat = _boundary_unit_matrices(pair)
    params = params_for(pair, 0.3)
    coef = 2.0 * params.c_nit / pair.mesh.h
    u_d = lambda x, y: (np.sin(x + 2.0 * y), x * y - 1.0)
    g = nitsche_load(pair, params, u_d)
    rng = np.random.default_rng(seed)
    u, v = (StateVector(rng.standard_normal(pair.n_u), np.zeros(pair.n_p)) for _ in "uv")
    rule = gauss_rule(pair.k_prime + 2)
    sums = np.zeros(3)
    sizes = np.zeros(3)
    for facet in pair.mesh.boundary_facets:
        pts, wts = facet_quadrature(facet, rule)
        n = np.array(facet.normal)
        for x, w in zip(pts, wts):
            uq = eval_velocity(pair, u, x, deriv_order=1).value
            dv = eval_velocity(pair, v, x, deriv_order=1)
            grad = dv.gradient
            traction = n @ grad + grad @ n  # 2 n . grad_s v
            ud = np.array(u_d(x[0], x[1]))
            terms = w * np.array(
                [
                    traction @ uq,
                    dv.value @ uq,
                    params.nu * (coef * dv.value - traction) @ ud,
                ]
            )
            sums += terms
            sizes += np.abs(terms)
    got = np.array([u.u @ (gmat @ v.u), u.u @ (pmat @ v.u), g @ v.u])
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


def test_coercivity_with_skeleton(pair44, pair33k2):
    # A_h(u,u) + J(u;u,u) >= 1/2 |||u|||^2 on the strong-normal-trace kernel
    for pair in (pair44, pair33k2):
        params = params_for(pair, 0.01)
        k = assemble_viscous_nitsche(pair, params)
        s = assemble_strain(pair)
        p = assemble_boundary_mass(pair)
        coef = 2.0 * params.nu * params.c_nit / pair.mesh.h
        rng = np.random.default_rng(7)
        fixed = pair.normal_boundary_dofs.all
        for _ in range(100):
            u = rng.standard_normal(pair.n_u)
            u[fixed] = 0.0
            j = assemble_skeleton(pair, u, params)
            ju = u @ (j @ u)
            lhs = u @ (k @ u) + ju
            norm2 = params.nu * (u @ (s @ u)) + coef * (u @ (p @ u)) + ju
            assert lhs >= 0.5 * norm2 - 1e-12 * norm2


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
    assert convection_quad_points(make_pair(1, 1)) == 3
    assert convection_quad_points(make_pair(1, 2)) == 5
    assert convection_quad_points(make_pair(1, 3)) == 6


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


# ------------------------------------------------------------------ skeleton


def test_skeleton_gamma_zero_has_no_entries(pair44):
    params = StabParams(nu=1e-3, gamma=0.0, delta=0.0, c_nit=10.0, alpha_prime=0)
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


def test_skeleton_matches_pointwise_quadrature(pair44, pair33k2, graded_pair_k2):
    # independent evaluation per facet from one-sided jumps and eta
    for pair in (pair44, pair33k2, graded_pair_k2):
        params = params_for(pair, 1e-2)
        st = curl_state(pair, seed=8)
        j = assemble_skeleton(pair, st, params)
        quad_form = st.u @ (j @ st.u)
        rule = gauss_rule(pair.k_prime + 2)
        total = 0.0
        for facet in pair.mesh.interior_facets:
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
