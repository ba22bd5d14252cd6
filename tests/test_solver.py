"""Tests for the streamfunction Newton solve, pressure recovery, and time stepping."""
import numpy as np
import pytest
import scipy.sparse as sp

from divspline.bspline import make_open_uniform
from divspline.forms import (
    StabParams,
    assemble_convection,
    assemble_divergence,
    assemble_load,
    assemble_skeleton,
    assemble_viscous_nitsche,
)
from divspline.mesh import build_mesh
from divspline.solver import (
    ConvergenceError,
    FlowProblem,
    NewtonConfig,
    TimeConfig,
    TimeStepper,
    _newton,
    newton_steady,
    solve_steady,
)
from divspline.space import StateVector, pressure_mean_vector
from divspline.cases import ManufacturedCase, CavityCase, error_norms, max_divergence, unit_square_pair
from util_fields import curl_state


@pytest.fixture(scope="module")
def pair8():
    return unit_square_pair(8, 1)


def manufactured_problem(pair, re, convection=True, delta=1.0):
    case = ManufacturedCase(re=re, convection=convection)
    params = StabParams.create(pair.k_prime, nu=case.nu, delta=delta)
    return FlowProblem(pair, params, f=case.forcing, convection=convection), case


# -------------------------------------------------------------- linear solve


def _saddle_newton_step(pair, problem, u, p):
    """Dense oracle: one Newton step of the bordered saddle system.

    [J_ff  -B_f^T  0] [du]     [(r - B^T p)_f]
    [B_f    0      m] [dp] = - [     B u     ]
    [0      m^T    0] [dl]     [    m . p    ]
    """
    params = problem.params
    k = assemble_viscous_nitsche(pair, params)
    n1, n2 = assemble_convection(pair, u)
    j = assemble_skeleton(pair, u, params)
    r = (k + n1 + j) @ u - assemble_load(pair, params, f=problem.f)
    jac = (k + n1 + n2 + j).toarray()
    b = assemble_divergence(pair).toarray()
    m = pressure_mean_vector(pair)
    free = np.setdiff1d(np.arange(pair.n_u), pair.normal_boundary_dofs.all)
    nf, n_p = len(free), pair.n_p
    a = np.zeros((nf + n_p + 1, nf + n_p + 1))
    a[:nf, :nf] = jac[np.ix_(free, free)]
    a[:nf, nf:-1] = -b[:, free].T
    a[nf:-1, :nf] = b[:, free]
    a[nf:-1, -1] = m
    a[-1, nf:-1] = m
    rhs = -np.concatenate([(r - b.T @ p)[free], b @ u, [m @ p]])
    x = np.linalg.solve(a, rhs)
    du = np.zeros(pair.n_u)
    du[free] = x[:nf]
    return du, x[nf:-1]


@pytest.mark.parametrize("k_prime", [1, 2, 3])
def test_streamfunction_newton_step_matches_dense_saddle(k_prime):
    pair = unit_square_pair(8, k_prime)
    problem, _ = manufactured_problem(pair, re=100.0)
    u = 0.01 * curl_state(pair, seed=k_prime, zero_boundary_ring=True).u
    p = np.random.default_rng(k_prime).standard_normal(pair.n_p)
    du_ref, dp_ref = _saddle_newton_step(pair, problem, u, p)
    # the first full step more than halves the residual, so Newton stops there
    result = newton_steady(
        problem, NewtonConfig(max_iter=1, rel_tol=0.5), initial=StateVector(u=u, p=p)
    )
    assert result.iterations == 1 and result.stalled_steps == 0
    du, dp = result.state.u - u, result.state.p - p
    assert np.linalg.norm(du - du_ref) < 1e-10 * np.linalg.norm(du_ref)
    assert np.linalg.norm(dp - dp_ref) < 1e-10 * np.linalg.norm(dp_ref)


def test_stokes_manufactured_convergence_order():
    case = ManufacturedCase(re=10.0, convection=False)
    errors = []
    for n in (4, 8, 16):
        pair = unit_square_pair(n, 1)
        params = StabParams.create(1, nu=case.nu)
        problem = FlowProblem(pair, params, f=case.forcing, convection=False)
        result = newton_steady(problem)
        l2, _ = error_norms(pair, result.state, case.velocity, case.velocity_gradient)
        errors.append(l2)
        assert result.iterations <= 2
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert orders[-1] >= 1.9  # L2 order k'+1 for the Stokes limit


# -------------------------------------------------------------------- newton


def test_newton_zero_data_converges_immediately(pair8):
    params = StabParams.create(1, nu=0.1)
    for convection in (False, True):
        problem = FlowProblem(pair8, params, convection=convection)
        result = newton_steady(problem)
        assert result.iterations <= 1
        assert np.abs(result.state.u).max() == 0.0
        assert np.abs(result.state.p).max() == 0.0


def test_newton_manufactured_residual_and_divergence(pair8):
    problem, case = manufactured_problem(pair8, re=10.0)
    result = solve_steady(problem, re=10.0)
    assert result.residual_norm < 1e-10
    assert result.stalled_steps == 0
    # strong mass conservation and zero pressure mean
    l2, _ = error_norms(pair8, result.state, case.velocity)
    unorm = np.linalg.norm(result.state.u)
    assert max_divergence(pair8, result.state.u) < 1e-10 * unorm
    from divspline.space import pressure_mean_vector

    m = pressure_mean_vector(pair8)
    assert abs(m @ result.state.p) < 1e-12 * max(np.abs(result.state.p).max(), 1.0)
    # tight error anchors are covered in the acceptance suite
    assert l2 < 5e-3


def test_newton_projects_non_solenoidal_start(pair8):
    problem, _ = manufactured_problem(pair8, re=10.0, convection=False)
    ref = newton_steady(problem)
    rng = np.random.default_rng(4)
    start = StateVector(u=rng.standard_normal(pair8.n_u), p=np.zeros(pair8.n_p))
    assert max_divergence(pair8, start.u) > 1.0
    result = newton_steady(problem, initial=start)
    scale = np.linalg.norm(ref.state.u)
    assert result.residual_norm < 1e-10
    assert np.linalg.norm(result.state.u - ref.state.u) < 1e-8 * scale
    assert max_divergence(pair8, result.state.u) < 1e-10 * scale


class _NeverDecreasingOperator:
    """Residual (1 + |u|) g along a divergence-free g with an identity Jacobian.

    Each Newton direction is -r, which grows |u| and with it the residual, so
    no step length decreases the residual.
    """

    def __init__(self, pair):
        self.pair = pair
        self.g = curl_state(pair, seed=3, zero_boundary_ring=True).u

    def linearize(self, u):
        return (1.0 + np.linalg.norm(u)) * self.g, sp.identity(self.pair.n_u, format="csr")


def test_newton_counts_line_search_stalls(pair8):
    op = _NeverDecreasingOperator(pair8)
    zero = np.zeros(pair8.n_u)
    with pytest.raises(ConvergenceError, match="after 3 iterations, 3 of them line-search stalls"):
        _newton(op, zero, np.zeros(pair8.n_p), NewtonConfig(max_iter=3), "fake")


def test_newton_jacobian_matches_frozen_eta_fd(pair8):
    # R(u) = K u + N1(u) u + J0 u with J0 frozen at the base state
    problem, _ = manufactured_problem(pair8, re=100.0)
    params = problem.params
    k = assemble_viscous_nitsche(pair8, params)
    load = assemble_load(pair8, params, f=problem.f)
    rng = np.random.default_rng(21)
    u0 = rng.standard_normal(pair8.n_u) * 0.1
    j0 = assemble_skeleton(pair8, u0, params)

    def residual(u):
        n1, _ = assemble_convection(pair8, u)
        return k @ u + n1 @ u + j0 @ u - load

    n1, n2 = assemble_convection(pair8, u0)
    jac = k + n1 + n2 + j0
    eps = 1e-7
    for seed in range(3):
        v = np.random.default_rng(seed).standard_normal(pair8.n_u)
        jv = jac @ v
        fd = (residual(u0 + eps * v) - residual(u0)) / eps
        assert np.linalg.norm(fd - jv) / np.linalg.norm(jv) < 1e-5


def test_continuation_failure_names_re_step(pair8):
    problem = FlowProblem(
        pair8, StabParams.create(1, nu=1.0 / 7500.0), u_d=CavityCase.lid_velocity
    )
    config = NewtonConfig(max_iter=1)
    with pytest.raises(ConvergenceError, match="Re=100"):
        solve_steady(problem, re=7500.0, config=config)


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(damping=1.0)
    with pytest.raises(ValueError):
        TimeConfig(dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        TimeConfig(dt=0.1, t_end=1.0, rho_inf=1.5)


# ------------------------------------------------------------- time stepping


def test_time_config_parameters():
    cfg = TimeConfig(dt=0.01, t_end=1.0, rho_inf=0.5)
    assert cfg.alpha_m == pytest.approx(5.0 / 6.0)
    assert cfg.alpha_f == pytest.approx(2.0 / 3.0)
    assert cfg.gamma_t == pytest.approx(0.5 + 5.0 / 6.0 - 2.0 / 3.0)
    assert cfg.n_steps == 100
    # rho_inf = 1 gives the midpoint-like undamped limit alpha_m = alpha_f
    cfg1 = TimeConfig(dt=0.01, t_end=1.0, rho_inf=1.0)
    assert cfg1.alpha_m == pytest.approx(0.5)
    assert cfg1.alpha_f == pytest.approx(0.5)
    assert cfg1.gamma_t == pytest.approx(0.5)


def test_generalized_alpha_steady_fixed_point(pair8):
    problem, _ = manufactured_problem(pair8, re=10.0)
    steady = solve_steady(problem, re=10.0)
    cfg = TimeConfig(dt=0.01, t_end=0.1)
    stepper = TimeStepper(problem, cfg)
    stepper.initialize(steady.state)
    scale = np.linalg.norm(steady.state.u)
    for _ in range(10):
        st = stepper.step()
    assert np.linalg.norm(st.u - steady.state.u) < 1e-8 * scale
    assert st.time == pytest.approx(0.1)


def test_constrained_projection_is_divergence_free(pair8):
    problem, _ = manufactured_problem(pair8, re=10.0)
    stepper = TimeStepper(problem, TimeConfig(dt=0.01, t_end=0.02))

    def u0(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y), np.cos(np.pi * x) * np.sin(
            np.pi * y
        )

    st = stepper.initialize(u0)
    unorm = np.linalg.norm(st.u)
    assert unorm > 0.1
    assert max_divergence(pair8, st.u) < 1e-10 * unorm
    assert np.abs(st.u[pair8.normal_boundary_dofs.all]).max() == 0.0


def test_step_requires_initialize(pair8):
    problem, _ = manufactured_problem(pair8, re=10.0)
    stepper = TimeStepper(problem, TimeConfig(dt=0.01, t_end=0.02))
    with pytest.raises(RuntimeError, match="initialize"):
        stepper.step()
