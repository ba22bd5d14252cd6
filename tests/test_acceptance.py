"""End-to-end acceptance checks at their stated tolerances.

Each test is tagged with @pytest.mark.acceptance(num, label); conftest prints
one PASS/FAIL line per criterion after the run.  Expensive sweeps are shared
through session fixtures.  Reference errors are frozen benchmark values for
the manufactured solution at Re=10 (meshes 1/4..1/32, stabilization constant
1e-2, 1e-3, 1e-4 for degrees 1, 2, 3).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from divspline.bspline import collocation_matrix, make_open_uniform, open_knots
from divspline.forms import (
    StabParams,
    assemble_convection,
    assemble_load,
    assemble_skeleton,
    assemble_strain,
    assemble_velocity_mass,
    assemble_viscous_nitsche,
)
from divspline.mesh import gauss_rule
from divspline.solver import ConvergenceError, FlowProblem, NewtonConfig, solve_steady
from divspline.space import StateVector, eval_velocity
from divspline.cases import (
    CavityCase,
    ManufacturedCase,
    max_divergence,
    run_cavity,
    run_convergence_study,
    run_pressure_robustness,
    run_reynolds_robustness,
    run_taylor_green_2d,
    unit_square_pair,
)
from util_fields import (
    assemble_boundary_mass,
    facet_normal_derivative_jump,
    facet_quadrature,
    interior_facets,
)

# Frozen benchmark errors, manufactured solution at Re=10, h = 1/4..1/32.
TABLE_L2 = {
    1: (4.110e-3, 1.048e-3, 2.629e-4, 6.579e-5),
    2: (3.873e-4, 4.444e-5, 5.396e-6, 6.691e-7),
    3: (3.281e-5, 2.354e-6, 1.586e-7, 1.027e-8),
}
TABLE_H1 = {
    1: (5.546e-2, 2.788e-2, 1.395e-2, 6.978e-3),
    2: (9.237e-3, 2.244e-3, 5.556e-4, 1.385e-4),
    3: (9.096e-4, 1.228e-4, 1.619e-5, 2.085e-6),
}


@pytest.fixture(scope="session")
def convergence_tables():
    return {kp: run_convergence_study(kp) for kp in (1, 2, 3)}


@pytest.fixture(scope="session")
def reynolds_tables():
    return {kp: run_reynolds_robustness(kp, n=16) for kp in (1, 2, 3)}


@pytest.fixture(scope="session")
def pressure_result():
    return run_pressure_robustness(1, n=16, re=10.0)


@pytest.fixture(scope="session")
def cavity_runs():
    stabilized = run_cavity(1, n=16, re=7500.0)
    try:
        unstabilized = run_cavity(1, n=16, re=7500.0, gamma=0.0)
    except ConvergenceError:
        unstabilized = None
    return stabilized, unstabilized


@pytest.fixture(scope="session")
def taylor_green_runs():
    return {
        kp: run_taylor_green_2d(kp, n=32, re=100.0, dt=1e-2, t_end=2.0)
        for kp in (1, 2)
    }


def velocity_l2_norm(pair, u):
    m = assemble_velocity_mass(pair)
    return math.sqrt(u @ (m @ u))


# ----------------------------------------------------------------- criterion 1


@pytest.mark.acceptance(1, "convergence errors and orders vs. reference table")
@pytest.mark.parametrize("k_prime", [1, 2, 3])
def test_convergence_table(convergence_tables, k_prime):
    rows = convergence_tables[k_prime]
    assert [row.n for row in rows] == [4, 8, 16, 32]
    for row, l2_ref, h1_ref in zip(rows, TABLE_L2[k_prime], TABLE_H1[k_prime]):
        assert l2_ref / 1.5 <= row.l2 <= l2_ref * 1.5
        assert h1_ref / 1.5 <= row.h1 <= h1_ref * 1.5
    # observed orders at the finest mesh pair
    l2_order = math.log2(rows[-2].l2 / rows[-1].l2)
    h1_order = math.log2(rows[-2].h1 / rows[-1].h1)
    assert l2_order >= k_prime + 1 - 0.1
    assert h1_order >= k_prime - 0.1


# ----------------------------------------------------------------- criterion 2


@pytest.mark.acceptance(2, "velocity unchanged by irrotational forcing shift")
def test_pressure_robustness(pressure_result):
    assert pressure_result.abs_diff_l2 < 1e-9
    assert pressure_result.rel_coeff_change < 1e-8


# ----------------------------------------------------------------- criterion 3


@pytest.mark.acceptance(3, "L2 error flat across Re in {1,10,100,1000}")
@pytest.mark.parametrize("k_prime", [1, 2, 3])
def test_reynolds_robustness(reynolds_tables, k_prime):
    rows = reynolds_tables[k_prime]
    assert [row.re for row in rows] == [1.0, 10.0, 100.0, 1000.0]
    l2 = [row.l2 for row in rows]
    assert max(l2) / min(l2) <= 2.0


@pytest.mark.parametrize("k_prime", [1, 2, 3])
def test_reynolds_robustness_past_re_1000(reynolds_tables, k_prime):
    # the Re 1e4 and 2e4 solves, each on the default ladder, keep the L2
    # error within 2x of criterion 3's Re <= 1000 errors
    rows = run_reynolds_robustness(k_prime, n=16, re_list=(1e4, 2e4))
    l2 = [row.l2 for row in reynolds_tables[k_prime] + rows]
    assert max(l2) / min(l2) <= 2.0
    assert max(row.div_max for row in rows) < 1e-10


@pytest.mark.parametrize("k_prime", [1, 2, 3])
def test_reynolds_robustness_at_re_4e4(reynolds_tables, k_prime):
    # every ladder step solves the manufactured problem at its own Re (the
    # forcing's -nu lap u part follows nu), so the default ladder reaches Re
    # 4e4 and, at k' = 1 and 2, 1e5 on the manufactured branch: L2 within 2x
    # of criterion 3's errors (measured 1.11x and 1.36x at k' = 1, 1.07x and
    # 1.25x at k' = 2). k' = 3 at 1e5 is not asserted: its L2 of 1.58e-7
    # passes only because Newton's absolute stopping test accepts a state
    # near Re 1e4's; converged to 1e-14 it is 7.62e-7, 4.8x its Re 1e3 error
    re_list = (4e4, 1e5) if k_prime < 3 else (4e4,)
    rows = run_reynolds_robustness(k_prime, n=16, re_list=re_list)
    l2 = [r.l2 for r in reynolds_tables[k_prime] + rows]
    assert max(l2) / min(l2) <= 2.0
    assert max(row.div_max for row in rows) < 1e-10


# ----------------------------------------------------------------- criterion 4


@pytest.mark.acceptance(4, "pointwise mass conservation of converged states")
def test_mass_conservation_everywhere(
    convergence_tables, reynolds_tables, pressure_result, cavity_runs,
    taylor_green_runs,
):
    checked = 0
    for k_prime, rows in convergence_tables.items():
        for row in rows:
            pair = unit_square_pair(row.n, k_prime)
            assert max_divergence(pair, row.state.u) < 1e-10 * velocity_l2_norm(
                pair, row.state.u
            )
            checked += 1
    for k_prime, rows in reynolds_tables.items():
        pair = unit_square_pair(16, k_prime)
        for row in rows:
            assert max_divergence(pair, row.state.u) < 1e-10 * velocity_l2_norm(
                pair, row.state.u
            )
            checked += 1
    pair = unit_square_pair(16, 1)
    u = pressure_result.state_base.u
    assert max_divergence(pair, u) < 1e-10 * velocity_l2_norm(pair, u)
    checked += 1
    stabilized, unstabilized = cavity_runs
    for result in (stabilized, unstabilized):
        if result is None:
            continue
        u = result.state.u
        assert max_divergence(result.pair, u) < 1e-10 * velocity_l2_norm(
            result.pair, u
        )
        checked += 1
    for result in taylor_green_runs.values():
        norm0 = velocity_l2_norm(result.pair, result.history[0].u)
        for state in result.history:
            assert max_divergence(result.pair, state.u) < 1e-10 * norm0
            checked += 1
    assert checked > 400


# ----------------------------------------------------------------- criterion 5


@pytest.mark.acceptance(5, "coercivity of viscous + penalty + jump energy")
@pytest.mark.parametrize("k_prime", [1, 2])
def test_coercivity_random_states(k_prime):
    pair = unit_square_pair(8, k_prime)
    params = StabParams.create(k_prime, nu=0.01)
    assert params.c_nit == 5.0 * (k_prime + 1)
    k = assemble_viscous_nitsche(pair, params)
    s = assemble_strain(pair)
    p = assemble_boundary_mass(pair)
    coef = 2.0 * params.nu * params.c_nit / pair.mesh.h
    rng = np.random.default_rng(5)
    fixed = pair.normal_boundary_dofs.all
    for _ in range(100):
        u = rng.standard_normal(pair.n_u)
        u[fixed] = 0.0
        j = assemble_skeleton(pair, u, params)
        ju = u @ (j @ u)
        lhs = u @ (k @ u) + ju
        norm2 = params.nu * (u @ (s @ u)) + coef * (u @ (p @ u)) + ju
        assert lhs >= 0.5 * norm2 - 1e-12 * norm2


# ----------------------------------------------------------------- criterion 6


@pytest.mark.acceptance(6, "stabilized jumps act on tangential traces only")
def test_normal_component_jump_vanishes():
    rng = np.random.default_rng(6)
    for k_prime, n_states in ((1, 100), (2, 30)):
        pair = unit_square_pair(8, k_prime)
        rule = gauss_rule(2)
        facets = [(f, facet_quadrature(f, rule)[0]) for f in interior_facets(pair.mesh)]
        worst = 0.0
        for _ in range(n_states):
            state = StateVector(
                u=rng.standard_normal(pair.n_u), p=np.zeros(pair.n_p)
            )
            for facet, pts in facets:
                jump = facet_normal_derivative_jump(pair, state, facet, pts)
                worst = max(worst, np.abs(jump[:, facet.axis]).max())
        assert worst < 1e-11


def _facet_jump_energy(pair, state, facet, rule):
    pts, w = facet_quadrature(facet, rule)
    total = 0.0
    for qp, wq in zip(pts, w):
        jump = facet_normal_derivative_jump(pair, state, facet, qp)
        total += wq * (jump @ jump)
    return total


@pytest.mark.acceptance(6, "stabilized jumps act on tangential traces only")
def test_facet_contribution_zero_without_tangential_dofs():
    pair = unit_square_pair(4, 1)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(pair.n_u)
    facet = next(f for f in interior_facets(pair.mesh) if f.axis == 0)
    rule = gauss_rule(3)
    state = StateVector(u=u.copy(), p=np.zeros(pair.n_p))
    before = _facet_jump_energy(pair, state, facet, rule)
    assert before > 1e-6
    # zero the tangential-component DOFs whose support crosses the facet
    vy = pair.vy
    off = pair.component_offset(1)
    nx = pair.mesh.nx
    for eid in (facet.plus_element, facet.minus_element):
        span = int(vy.kv_x.element_spans[eid % nx])
        for ix in range(span - vy.kv_x.degree, span + 1):
            for iy in range(vy.n_y):
                u[off + iy * vy.n_x + ix] = 0.0
    state = StateVector(u=u, p=np.zeros(pair.n_p))
    after = _facet_jump_energy(pair, state, facet, rule)
    assert after < 1e-24


# ----------------------------------------------------------------- criterion 7


@pytest.mark.acceptance(7, "energy decay and dissipation balance (decaying vortex)")
@pytest.mark.parametrize("k_prime", [1, 2])
def test_energy_stability(taylor_green_runs, k_prime):
    records = taylor_green_runs[k_prime].records
    ek = np.array([r.e_k for r in records])
    assert len(ek) == 201
    assert np.all(np.diff(ek) <= 1e-12 * ek[0])
    eps = np.array([r.eps_total for r in records])
    bal = np.array([r.eps_resolved + r.eps_model for r in records])
    inner = ~np.isnan(eps)
    assert inner.sum() == 199  # centered differencing drops the endpoints
    defect = np.abs(eps[inner] - bal[inner]).max()
    assert defect < 0.02 * eps[inner].max()
    # the stabilization contributes a strictly positive model dissipation
    eps_m = np.array([r.eps_model for r in records])
    assert np.all(eps_m > 0.0)


@pytest.mark.parametrize("rho_inf", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("k_prime, n, re", [(1, 16, 100.0), (2, 8, 1000.0)])
def test_generalized_alpha_is_second_order(k_prime, n, re, rho_inf):
    """Generalized-alpha in first-order form is second order in time
    (Jansen, Whiting & Hulbert, CMAME 190 (2000)): self-convergence of the
    vortex's final coefficients against dt = 0.005. A first-order scheme
    would read log2 rates of about 1.2 and 1.6 on the two pairs."""
    final = {
        dt: run_taylor_green_2d(k_prime, n, re=re, dt=dt, t_end=0.08, rho_inf=rho_inf).history[-1]
        for dt in (0.04, 0.02, 0.01, 0.005)
    }
    errors = np.array([np.linalg.norm(final[dt].u - final[0.005].u) for dt in (0.04, 0.02, 0.01)])
    rates = np.log2(errors[:-1] / errors[1:])
    assert np.all(rates >= 1.8), rates


@pytest.mark.parametrize("k_prime", [1, 2, 3])
def test_skeleton_dissipation_vanishes_at_its_predicted_rate(k_prime):
    """eps_model / eps_resolved of the vortex falls like h^(2k'+1) (Evans &
    Hughes, JCP 241 (2013)): eta ~ h^(2k'), the squared jumps ~ h^2 and the
    total facet length ~ 1/h. The finest pair, n = 16 to 32, reads 2.95,
    5.00 and 6.94 at k' = 1, 2, 3."""
    ratios = []
    for n in (8, 16, 32):
        last = run_taylor_green_2d(k_prime, n, re=100.0, dt=1e-2, t_end=0.05).records[-1]
        assert last.eps_model > 0.0
        ratios.append(last.eps_model / last.eps_resolved)
    rate = math.log2(ratios[1] / ratios[2])
    assert rate >= 2 * k_prime + 0.5, ratios


# ----------------------------------------------------------------- criterion 8


@pytest.mark.acceptance(8, "linearization and spline derivatives match FD")
def test_newton_linearization_matches_fd():
    pair = unit_square_pair(8, 1)
    case = ManufacturedCase(re=100.0)
    params = StabParams.create(1, nu=case.nu)
    problem = FlowProblem(pair, params, f=case.forcing)
    k = assemble_viscous_nitsche(pair, params)
    load = assemble_load(pair, params, f=problem.f)
    rng = np.random.default_rng(88)
    u0 = rng.standard_normal(pair.n_u) * 0.1
    j0 = assemble_skeleton(pair, u0, params)

    def residual(u):
        n1, _ = assemble_convection(pair, u)
        return k @ u + n1 @ u + j0 @ u - load

    n1, n2 = assemble_convection(pair, u0)
    jac = k + n1 + n2 + j0
    eps = 1e-7
    for seed in range(5):
        v = np.random.default_rng(seed).standard_normal(pair.n_u)
        jv = jac @ v
        fd = (residual(u0 + eps * v) - residual(u0)) / eps
        assert np.linalg.norm(fd - jv) / np.linalg.norm(jv) < 1e-5


@pytest.mark.acceptance(8, "linearization and spline derivatives match FD")
def test_spline_derivatives_match_fd():
    rng = np.random.default_rng(3)
    eps = 1e-6
    cases = [
        make_open_uniform(2, 5, (0.0, 1.0)),
        make_open_uniform(3, 4, (0.0, 2.0)),
        open_knots(4, np.array([0.0, 0.3, 0.45, 0.8, 1.0])),
    ]
    for kv in cases:
        a, b = kv.domain
        pts = rng.uniform(a + 0.01, b - 0.01, 60)
        # keep the centered stencil inside one polynomial piece
        dist = np.abs(pts[:, None] - kv.unique_knots[None, :]).min(axis=1)
        pts = pts[dist > 1e-5]
        d1 = collocation_matrix(kv, pts, max_deriv=1)[1]
        fd = (
            collocation_matrix(kv, pts + eps)[0] - collocation_matrix(kv, pts - eps)[0]
        ) / (2.0 * eps)
        scale = np.abs(d1).max()
        assert np.abs(fd - d1).max() < 1e-6 * scale


# ----------------------------------------------------------------- criterion 9


@pytest.mark.acceptance(9, "stabilization enables the Re=7500 cavity solve")
def test_stabilization_effect_high_re_cavity(cavity_runs):
    """Whether Galerkin converges here depends on the solver path: on the
    default ladder it fails at (1, 16), so unstabilized is None and no
    contrast is checked; the ladder test below gives one."""
    stabilized, unstabilized = cavity_runs
    assert stabilized.residual_norm < 1e-9
    assert stabilized.j_energy > 0.0
    assert stabilized.div_max < 1e-10
    # unstabilized run: if it converges at all, its resolved-gradient norm
    # is strictly larger (spurious oscillations carry extra strain energy)
    if unstabilized is not None:
        assert unstabilized.strain_energy > stabilized.strain_energy


# (3, 64) stabilized Re=7500 centerline; tests/data/README.md has its command
REFERENCE_CENTERLINE = Path(__file__).parent / "data" / "cavity_k3_n64_centerline.csv"
# 10 steps: 100, 400, 1000, 2000, ..., 7000, then the target 7500
DENSE_LADDER = (100.0, 400.0) + tuple(1000.0 * i for i in range(1, 8))


def centerline_h1_error(k_prime, n, gamma, ref):
    """H1 seminorm of the Re=7500 centerline profiles' error against ref.

    Trapezoid weights and central differences on ref's samples, with u1
    along x = 1/2 and u2 along y = 1/2, solved on DENSE_LADDER.
    """
    pair = unit_square_pair(n, k_prime)
    params = StabParams.create(k_prime, nu=1.0 / 7500.0, gamma=gamma)
    problem = FlowProblem(pair, params, u_d=CavityCase.lid_velocity)
    state = solve_steady(problem, 7500.0, NewtonConfig(continuation_re=DENSE_LADDER)).state
    t = ref[:, 0]
    mid = np.full_like(t, 0.5)
    u1 = eval_velocity(pair, state, np.stack([mid, t], axis=-1), 0).value[:, 0]
    u2 = eval_velocity(pair, state, np.stack([t, mid], axis=-1), 0).value[:, 1]
    w = np.zeros_like(t)
    w[:-1] += 0.5 * np.diff(t)
    w[1:] += 0.5 * np.diff(t)
    grads = [np.gradient(e, t) for e in (u1 - ref[:, 1], u2 - ref[:, 3])]
    return math.sqrt(sum(float(np.sum(w * g**2)) for g in grads))


@pytest.mark.acceptance(9, "stabilization enables the Re=7500 cavity solve")
def test_stabilized_centerline_closer_in_h1_than_galerkin():
    # on a ladder where Galerkin converges too, the penalty's removal of
    # spurious small scales shows in the profile gradients
    ref = np.loadtxt(REFERENCE_CENTERLINE, delimiter=",", skiprows=1)
    assert np.array_equal(ref[:, 0], ref[:, 2])
    stabilized = centerline_h1_error(2, 16, None, ref)
    galerkin = centerline_h1_error(2, 16, 0.0, ref)
    assert stabilized < galerkin
