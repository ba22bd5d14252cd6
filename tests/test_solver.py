"""Tests for the streamfunction Newton solve, pressure recovery, and time stepping."""
import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divspline.bspline import make_open_uniform, open_knots
from divspline.forms import (
    StabParams,
    assemble_convection,
    assemble_divergence,
    assemble_load,
    assemble_skeleton,
    assemble_velocity_mass,
    assemble_viscous_nitsche,
)
from divspline.mesh import build_mesh
import divspline.forms as forms
import divspline.solver as solver
from divspline.solver import (
    ConvergenceError,
    FlowProblem,
    NewtonConfig,
    TimeConfig,
    TimeStepper,
    _LaggedLU,
    _SpatialOperator,
    _factor,
    _gmres,
    _newton,
    newton_steady,
    solve_steady,
)
from divspline.space import StateVector, build_pair, pressure_mean_vector
from divspline.cases import (
    CavityCase,
    ManufacturedCase,
    error_norms,
    max_divergence,
    run_cavity,
    taylor_green_pair,
    taylor_green_velocity,
    unit_square_pair,
)
from util_fields import curl_state, quadrature_divergence, random_pairs


@pytest.fixture(scope="module")
def pair8():
    return unit_square_pair(8, 1)


def _stage(spatial, cfg, u_n, udot_n):
    """spatial's generalized-alpha stage operator for the step from (u_n,
    udot_n), in the alpha_f state, with the weight and shift of TimeStepper.step."""
    weight = cfg.alpha_m / (cfg.gamma_t * cfg.dt * cfg.alpha_f)
    hist = (1.0 - cfg.alpha_m / cfg.gamma_t) * udot_n - weight * u_n
    return spatial.stage(weight, assemble_velocity_mass(spatial.pair) @ hist)


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
        self.lagged = _LaggedLU()

    def residual(self, u):
        return (1.0 + np.linalg.norm(u)) * self.g

    def linearize(self, u):
        curl = self.pair.curl
        return (curl.T @ curl).tocsr()

    def jacobian_product(self, u, v):
        return v


def test_newton_counts_line_search_stalls(pair8):
    op = _NeverDecreasingOperator(pair8)
    zero = np.zeros(pair8.n_u)
    with pytest.raises(ConvergenceError, match="after 3 iterations, 3 of them line-search stalls"):
        _newton(op, zero, np.zeros(pair8.n_p), NewtonConfig(max_iter=3), "fake")


def test_convergence_error_names_factorizations(pair8):
    # the identity Jacobian gives one streamfunction matrix, factorized once
    op = _NeverDecreasingOperator(pair8)
    zero = np.zeros(pair8.n_u)
    with pytest.raises(ConvergenceError, match=r"1 streamfunction factorizations, [1-9]\d* Krylov"):
        _newton(op, zero, np.zeros(pair8.n_p), NewtonConfig(max_iter=3), "fake")


@settings(max_examples=15, deadline=None)
@given(pair=random_pairs())
def test_newton_jacobian_matches_frozen_eta_fd(pair):
    # R(u) = K u + N1(u) u + J0 u - f with J0 frozen at the base state, on
    # uniform and graded meshes with the Nitsche terms on. f is bounded: the
    # manufactured forcing grows off the unit square (a load of 1e5 on
    # [0, 2] x [0, 3]), and its cancellation would swamp the difference
    params = StabParams.create(pair.k_prime, nu=1e-2)
    k = assemble_viscous_nitsche(pair, params)
    load = assemble_load(pair, params, f=lambda x, y: (np.sin(x + y), x * y))
    rng = np.random.default_rng(21)
    u0 = rng.standard_normal(pair.n_u) * 0.1
    j0 = assemble_skeleton(pair, u0, params)

    def residual(u):
        n1, _ = assemble_convection(pair, u)
        return k @ u + n1 @ u + j0 @ u - load

    n1, n2 = assemble_convection(pair, u0)
    jac = k + n1 + n2 + j0
    eps = 1e-7
    for seed in range(3):
        v = np.random.default_rng(seed).standard_normal(pair.n_u)
        jv = jac @ v
        fd = (residual(u0 + eps * v) - residual(u0)) / eps
        assert np.linalg.norm(fd - jv) / np.linalg.norm(jv) < 1e-5


def _same_pattern(a, b):
    return np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


@settings(max_examples=15, deadline=None)
@given(
    pair=random_pairs(),
    seed=st.integers(0, 2**16),
    nitsche=st.booleans(),
    convection=st.booleans(),
    skeleton=st.booleans(),
    rho_inf=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_fused_jacobian_matches_dense_sum(pair, seed, nitsche, convection, skeleton, rho_inf):
    # one band buffer holds the whole J and is reduced to the streamfunction:
    # A matches curl_t @ (J @ curl), and jacobian_product, from K's CSR and
    # the residual kernels, matches J @ v, for the J summed from the public
    # assemble_* matrices, for the spatial and the stage operator (m M in
    # the buffer, m = alpha_m / (gamma_t dt alpha_f) with alpha_f = 1 at
    # rho_inf = 0 and 1/2 at rho_inf = 1); residual assembles no matrix, the
    # reference sums dense arrays
    params = StabParams.create(pair.k_prime, nu=0.05, gamma=None if skeleton else 0.0)
    f = lambda x, y: (np.sin(x + y), x * y)
    u_d = lambda x, y: (np.cos(x) * y, x - y)
    problem = FlowProblem(pair, params, f=f, u_d=u_d, nitsche=nitsche, convection=convection)
    op = _SpatialOperator(problem)
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal(pair.n_u), rng.standard_normal(pair.n_u)
    curl, curl_t = pair.curl, pair.curl_transpose
    psi = forms.streamfunction_pattern(pair)

    def jacobian(w):
        jac = assemble_viscous_nitsche(pair, params, nitsche=nitsche)
        if convection:
            jac = jac + sum(assemble_convection(pair, w))
        if skeleton:
            jac = jac + assemble_skeleton(pair, w, params)
        return jac

    def assert_matches(operator, state, jac):
        a, expect = operator.linearize(state), curl_t @ (jac @ curl)
        assert _same_pattern(a, psi) and a.nnz == psi.nnz
        assert abs(a - expect).max() <= 1e-13 * abs(expect).max()
        jv = jac @ v
        got = operator.jacobian_product(state, v)
        assert np.abs(got - jv).max() <= 1e-13 * np.abs(jv).max()

    jac = jacobian(u)
    assert_matches(op, u, jac)
    if not skeleton:
        assert assemble_skeleton(pair, u, params).nnz == 0
    k = assemble_viscous_nitsche(pair, params, nitsche=nitsche).toarray()
    load = assemble_load(pair, params, f=f, u_d=u_d, nitsche=nitsche)
    n1 = assemble_convection(pair, u)[0].toarray() if convection else 0.0 * k
    jd = assemble_skeleton(pair, u, params).toarray()
    r_scale = (np.abs(k) + np.abs(n1) + np.abs(jd)) @ np.abs(u) + np.abs(load)
    assert np.all(np.abs(op.residual(u) - ((k + n1 + jd) @ u - load)) <= 1e-13 * r_scale.max())

    # the stage in the alpha_f state w: Jacobian m M + J_sp(w) and residual
    # r_sp(w) + m M w + s, here at w = u
    cfg = TimeConfig(dt=0.1, t_end=1.0, rho_inf=rho_inf)
    mass = assemble_velocity_mass(pair).toarray()
    u_n, udot_n = rng.standard_normal(pair.n_u), rng.standard_normal(pair.n_u)
    stage = _stage(op, cfg, u_n, udot_n)
    assert stage.weight == cfg.alpha_m / (cfg.gamma_t * cfg.dt * cfg.alpha_f)
    assert_matches(stage, u, stage.weight * sp.csr_matrix(mass) + jac)
    s = mass @ ((1.0 - cfg.alpha_m / cfg.gamma_t) * udot_n - stage.weight * u_n)
    expect = (k + n1 + jd + stage.weight * mass) @ u - load + s
    r_scale = r_scale + stage.weight * (np.abs(mass) @ np.abs(u)) + np.abs(s)
    assert np.all(np.abs(stage.residual(u) - expect) <= 1e-13 * r_scale.max())


@pytest.mark.parametrize("n,nnz", [(16, 9_324), (24, 22_572)])
def test_streamfunction_pattern_is_the_structural_product(n, nnz):
    # A keeps the pattern of the sparse product C^T J C at a generic state
    # (SuperLU's ordering sees the same matrix), held in the psi band
    pair = unit_square_pair(n, 1)
    psi = forms.streamfunction_pattern(pair)
    assert psi.nnz == nnz and psi.bands == [(3, 7), (3, 7)]
    u = curl_state(pair, seed=1).u
    op = _SpatialOperator(_cavity_problem(pair, 1000.0))
    jac = assemble_viscous_nitsche(pair, op.params) + sum(assemble_convection(pair, u))
    jac = jac + assemble_skeleton(pair, u, op.params)
    expect = pair.curl_transpose @ (jac @ pair.curl)
    assert expect.nnz == nnz
    assert _same_pattern(expect.sorted_indices(), psi)
    for k_prime, width in ((2, 9), (3, 11), (4, 13), (5, 15)):
        assert forms.streamfunction_pattern(unit_square_pair(4, k_prime)).bands == [(width // 2, width)] * 2


def test_k_unit_stores_no_explicit_zeros(pair8):
    # K on the Jacobian pattern stores zeros where only J reaches; the
    # operator keeps its nonzeros alone, and the residual does not change
    problem = _cavity_problem(pair8, 1000.0)
    op = _SpatialOperator(problem)
    k = assemble_viscous_nitsche(pair8, problem.params.with_nu(1.0))
    assert op.k_unit.nnz == np.count_nonzero(op.k_unit.data) == np.count_nonzero(k.data) < k.nnz
    u = curl_state(pair8, seed=2).u
    expect = problem.params.nu * (k @ u) - op.load
    expect += forms.convection_residual(pair8, u) + forms.skeleton_residual(pair8, u, op.params)
    assert np.abs(op.residual(u) - expect).max() <= 1e-15 * np.abs(expect).max()


def test_newton_builds_no_velocity_matrix(monkeypatch):
    # a Newton iteration reduces the band buffer to A and applies J from it:
    # no CSR on the Jacobian pattern is built inside _newton
    built, inside = [], []
    real_csr, real_newton = forms.JacobianPattern.csr, solver._newton

    def counted_csr(self, data):
        built.append(bool(inside))
        return real_csr(self, data)

    def flagged_newton(*args, **kwargs):
        inside.append(1)
        try:
            return real_newton(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(forms.JacobianPattern, "csr", counted_csr)
    monkeypatch.setattr(solver, "_newton", flagged_newton)
    _vortex_steps([], n_steps=3)
    solve_steady(_cavity_problem(unit_square_pair(6, 2), 1000.0), re=1000.0)
    assert built and not any(built)


def test_one_reduction_per_linearization(monkeypatch):
    # K and M reach A inside the linearization's one band buffer: building
    # the spatial operator or a stepper reduces nothing to the streamfunction,
    # and a spatial and a stage linearization reduce once each
    calls = []
    real_reduce = forms.StreamfunctionPattern.reduce

    def counted_reduce(self, blocks):
        calls.append(1)
        return real_reduce(self, blocks)

    monkeypatch.setattr(forms.StreamfunctionPattern, "reduce", counted_reduce)
    pair = unit_square_pair(4, 2)
    problem = _cavity_problem(pair, 1000.0)
    op = _SpatialOperator(problem)
    stepper = TimeStepper(replace(problem, nitsche=False), TimeConfig(dt=1e-2, t_end=1e-2))
    assert len(calls) == 0
    rng = np.random.default_rng(4)
    u, u_n, udot_n = (rng.standard_normal(pair.n_u) for _ in range(3))
    op.linearize(u)
    assert len(calls) == 1
    _stage(stepper.spatial, stepper.cfg, u_n, udot_n).linearize(u)
    assert len(calls) == 2


def test_linearizations_in_a_row_match_fresh_operators():
    # every linearization overwrites the operator's one scratch band buffer,
    # which at_nu and stage copies share: each A of a run of
    # linearizations at different states and viscosities equals the A of a
    # fresh operator, bit for bit
    pair = unit_square_pair(4, 2)
    problem = _cavity_problem(pair, 1000.0)
    op = _SpatialOperator(problem)
    cfg = TimeConfig(dt=1e-2, t_end=1e-2)
    rng = np.random.default_rng(5)
    u_1, u_2, u_n, udot_n = (rng.standard_normal(pair.n_u) for _ in range(4))

    def stage(spatial):
        return _stage(spatial, cfg, u_n, udot_n)

    runs = [
        (op, lambda: _SpatialOperator(problem), u_1),
        (op, lambda: _SpatialOperator(problem), u_2),
        (op.at_nu(1e-2), lambda: _SpatialOperator(problem).at_nu(1e-2), u_1),
        (stage(op), lambda: stage(_SpatialOperator(problem)), u_2),
        (op, lambda: _SpatialOperator(problem), u_2),
    ]
    for operator, fresh, u in runs:
        a, expect = operator.linearize(u), fresh().linearize(u)
        assert np.array_equal(a.data, expect.data)


@pytest.mark.parametrize(
    "make_pair,bound_mb",
    [(lambda: taylor_green_pair(24, 1), 1.2), (lambda: unit_square_pair(32, 3), 7.0)],
    ids=["taylor-green-24-k1", "unit-square-32-k3"],
)
def test_stage_linearization_transient(make_pair, bound_mb):
    # one band buffer for N1 + N2 + J, reduced block by block to the psi
    # band: the whole linearization, its returned matrix included, peaks at
    # a few velocity-pattern arrays (2.05 and 13.07 MB with the velocity
    # Jacobian CSR and two sparse products)
    pair = make_pair()
    problem = FlowProblem(pair, StabParams.create(pair.k_prime, nu=1e-2), nitsche=False)
    stepper = TimeStepper(problem, TimeConfig(dt=1e-2, t_end=1e-2))
    rng = np.random.default_rng(3)
    u_n, udot_n, u_warm, u = (rng.standard_normal(pair.n_u) for _ in range(4))
    stage = _stage(stepper.spatial, stepper.cfg, u_n, udot_n)
    stage.residual(u_warm)
    stage.linearize(u_warm)  # tables and patterns
    stage.residual(u)  # eta and w at the points, as in a Newton iteration
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        a = stage.linearize(u)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert a.nnz == forms.streamfunction_pattern(pair).nnz
    assert peak <= bound_mb * 2**20


class _CountingNumpy:
    """numpy for divspline.forms, counting its calls of the named functions
    (by default numpy's sorting functions)."""

    SORTS = ("unique", "sort", "argsort", "lexsort", "searchsorted")

    def __init__(self, names=SORTS):
        self.calls = dict.fromkeys(names, 0)

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.calls:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


def test_one_sparsity_pattern_per_pair(monkeypatch):
    # a steady ladder with Nitsche terms and time steps with and without them
    # on one fresh pair all assemble on one JacobianPattern, and it is built
    # by arithmetic on 1-D bands: divspline.forms sorts nothing
    counting = _CountingNumpy()
    monkeypatch.setattr(forms, "np", counting)
    builds = []
    build = forms.JacobianPattern.__init__

    def counted_build(self, pair):
        builds.append(pair)
        build(self, pair)

    monkeypatch.setattr(forms.JacobianPattern, "__init__", counted_build)
    pair = unit_square_pair(4, 2)
    problem = FlowProblem(pair, StabParams.create(2, nu=1e-3), u_d=CavityCase.lid_velocity)
    steady = solve_steady(problem, re=1000.0).state
    cfg = TimeConfig(dt=1e-2, t_end=2e-2)
    TimeStepper(problem, cfg).run(steady)
    TimeStepper(replace(problem, nitsche=False), cfg).run(steady)
    assert len(builds) == 1 and builds[0] is pair
    assert counting.calls == dict.fromkeys(_CountingNumpy.SORTS, 0)


@pytest.mark.parametrize("k_prime", [1, 2, 3])
def test_newton_step_kernels_neither_concatenate_nor_bincount(monkeypatch, k_prime):
    # with the tables and the pattern built, the kernels of a Newton step
    # scatter each local array in place: no index or value array is joined
    pair = unit_square_pair(4, k_prime)
    params = StabParams.create(k_prime, nu=1e-3)
    rng = np.random.default_rng(k_prime)
    u_warm, u = rng.standard_normal(pair.n_u), rng.standard_normal(pair.n_u)
    kernels = (
        lambda v: assemble_convection(pair, v),
        lambda v: assemble_skeleton(pair, v, params),
        lambda v: forms.convection_residual(pair, v),
        lambda v: forms.skeleton_residual(pair, v, params),
    )
    for kernel in kernels:
        kernel(u_warm)
    counting = _CountingNumpy(("bincount", "concatenate"))
    monkeypatch.setattr(forms, "np", counting)
    for kernel in kernels:
        kernel(u)  # a new state: eta and w at the points are recomputed too
    assert counting.calls == {"bincount": 0, "concatenate": 0}


@pytest.mark.parametrize("nu", [1.0, 1e-2, 1.0 / 7500.0])
def test_nu_scaled_operator_matches_assembly(pair8, nu):
    # K and the loads are assembled at nu = 1 and scaled, the body force
    # f + nu f_nu included; without convection and skeleton the
    # linearization is C^T K C, jacobian_product gives K v, the residual is
    # K u - load, and dr/dnu is K_unit u minus the nu-linear load
    f = lambda x, y: (np.sin(x + y), x * y)
    f_nu = lambda x, y: (x * x, np.cos(y))
    params = StabParams.create(1, nu=0.05, gamma=0.0)
    lid = CavityCase.lid_velocity
    problem = FlowProblem(pair8, params, f=f, u_d=lid, convection=False, f_nu=f_nu)
    op = _SpatialOperator(problem).at_nu(nu)
    u = np.random.default_rng(7).standard_normal(pair8.n_u)
    r, linearization = op.residual(u), op.linearize(u)
    k = assemble_viscous_nitsche(pair8, params.with_nu(nu))
    force = lambda x, y: tuple(a + nu * b for a, b in zip(f(x, y), f_nu(x, y)))
    load = assemble_load(pair8, params.with_nu(nu), f=force, u_d=lid)
    k_unit = assemble_viscous_nitsche(pair8, params.with_nu(1.0))
    d_nu = k_unit @ u - assemble_load(pair8, params.with_nu(1.0), f=f_nu, u_d=lid)
    assert np.abs(op.nu_derivative(u) - d_nu).max() <= 1e-14 * np.abs(d_nu).max()
    a = (pair8.curl.T @ k @ pair8.curl).toarray()
    assert np.abs(linearization.toarray() - a).max() <= 1e-14 * np.abs(a).max()
    ku = k @ u
    v = np.random.default_rng(8).standard_normal(pair8.n_u)
    kv = k @ v
    assert np.abs(op.jacobian_product(u, v) - kv).max() <= 1e-14 * np.abs(kv).max()
    assert np.abs(op.load - load).max() <= 1e-14 * np.abs(load).max()
    scale = (abs(k) @ np.abs(u) + np.abs(load)).max()
    assert np.abs(r - (ku - load)).max() <= 1e-14 * scale


# ------------------------------------------------------------- lagged LU


def _streamfunction_system(op, u):
    r, a = op.residual(u), op.linearize(u)
    return a, -(op.pair.curl.T @ r)


def _refined_solve(a: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Reference solution of a x = rhs: one LU solve and two steps of
    iterative refinement with the residuals in long double. On graded pairs
    a's condition number reaches 1e7, and a plain solve is then off by more
    than 1e-10."""
    lu = spla.splu(a.tocsc())
    x = lu.solve(rhs)
    dense = a.toarray().astype(np.longdouble)
    for _ in range(2):
        x = x + lu.solve((rhs - dense @ x.astype(np.longdouble)).astype(float))
    return x


@settings(max_examples=25, deadline=None)
@given(pair=random_pairs(), seed=st.integers(0, 2**16))
@example(  # condition number 1.1e7; spsolve's x is off by 1.3e-10 here
    pair=build_pair(build_mesh(open_knots(1, [0.0, 0.0625, 0.125]), open_knots(1, [0.0, 1.0])), 3),
    seed=0,
)
def test_lagged_lu_correction_matches_direct_solve(pair, seed):
    # the held LU comes from the stage Jacobian at another random state
    params = StabParams.create(pair.k_prime, nu=0.05)
    f = lambda x, y: (np.sin(x + y), x * y)
    op = _SpatialOperator(FlowProblem(pair, params, f=f, nitsche=False))
    rng = np.random.default_rng(seed)
    u_n, udot_n, u_a, u_b = (rng.standard_normal(pair.n_u) for _ in range(4))
    stage = _stage(op, TimeConfig(dt=0.01, t_end=1.0), u_n, udot_n)
    lagged = _LaggedLU()
    lagged.solve(*_streamfunction_system(stage, u_a))
    a, rhs = _streamfunction_system(stage, u_b)
    x = lagged.solve(a, rhs)
    assert lagged.krylov_iterations > 0 and lagged.factorizations in (1, 2)
    ref = _refined_solve(a, rhs)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_useless_lagged_lu_falls_back_to_refactorizing(pair8):
    # an LU of the Stokes Jacobian cannot precondition the Re=7500 one
    u = 0.5 * curl_state(pair8, seed=5, zero_boundary_ring=True).u
    stokes = _SpatialOperator(FlowProblem(pair8, StabParams.create(1, nu=1.0), convection=False))
    lagged = _LaggedLU()
    lagged.solve(*_streamfunction_system(stokes, u))
    high_re = _SpatialOperator(
        FlowProblem(pair8, StabParams.create(1, nu=1.0 / 7500.0), u_d=CavityCase.lid_velocity)
    )
    a, rhs = _streamfunction_system(high_re, u)
    x = lagged.solve(a, rhs)
    assert lagged.factorizations == 2 and lagged.krylov_iterations > 0
    ref = spla.spsolve(a.tocsc(), rhs)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def _cavity_operator(pair, nu):
    return _SpatialOperator(
        FlowProblem(pair, StabParams.create(1, nu=nu), u_d=CavityCase.lid_velocity)
    )


def test_symmetric_mode_factorization_has_less_fill(pair8):
    # the Re=7500 streamfunction matrix at the converged cavity state
    problem = FlowProblem(
        pair8, StabParams.create(1, nu=1.0 / 7500.0), u_d=CavityCase.lid_velocity
    )
    state = solve_steady(problem, re=7500.0).state
    a, rhs = _streamfunction_system(_SpatialOperator(problem), state.u)
    lu = _factor(a, "test")
    partial = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A")
    assert lu.L.nnz + lu.U.nnz < partial.L.nnz + partial.U.nnz
    x = lu.solve(rhs)
    assert np.linalg.norm(rhs - a @ x) <= 1e-12 * np.linalg.norm(rhs)


def test_gmres_exact_lu_and_zero_rhs(pair8):
    u = 0.5 * curl_state(pair8, seed=5, zero_boundary_ring=True).u
    a, rhs = _streamfunction_system(_cavity_operator(pair8, 1.0 / 7500.0), u)
    lu = _factor(a, "test")
    x, iterations = _gmres(a, lu, rhs)
    assert iterations == 1
    assert np.linalg.norm(x - lu.solve(rhs)) <= 1e-12 * np.linalg.norm(x)
    x, iterations = _gmres(a, lu, np.zeros_like(rhs))
    assert iterations == 0 and not np.any(x)


@pytest.mark.parametrize("limit", [1, 3, 10])
def test_gmres_returns_only_solutions_within_the_bound(pair8, monkeypatch, limit):
    monkeypatch.setattr(solver, "_KRYLOV_LIMIT", limit)
    u = 0.5 * curl_state(pair8, seed=5, zero_boundary_ring=True).u
    a, rhs = _streamfunction_system(_cavity_operator(pair8, 1.0 / 7500.0), u)
    # preconditioners from worst to exact: the Stokes LU, the Re=7500 LU at
    # a perturbed state, the LU of a itself
    held = [
        _streamfunction_system(_cavity_operator(pair8, 1.0), u)[0],
        _streamfunction_system(_cavity_operator(pair8, 1.0 / 7500.0), 1.1 * u)[0],
        a,
    ]
    kept = []
    for h in held:
        x, iterations = _gmres(a, _factor(h, "test"), rhs)
        assert 1 <= iterations <= limit
        if x is not None:
            assert np.all(np.isfinite(x))
            assert np.linalg.norm(rhs - a @ x) <= solver._KRYLOV_RTOL * np.linalg.norm(rhs)
        kept.append(x is not None)
    assert kept[0] is False and kept[-1] is True


def _vortex_steps(splu_calls, n_steps=10):
    """States of n_steps n=8 vortex steps and the LUs the steps factorized."""
    pair = taylor_green_pair(8, 1)
    problem = FlowProblem(pair, StabParams.create(1, nu=1e-2), nitsche=False)
    stepper = TimeStepper(problem, TimeConfig(dt=1e-2, t_end=n_steps * 1e-2))
    stepper.initialize(taylor_green_velocity)
    start = len(splu_calls)
    states = [stepper.step().copy() for _ in range(n_steps)]
    return states, len(splu_calls) - start


def test_time_steps_share_one_streamfunction_lu(monkeypatch):
    calls = []
    real_splu = solver.spla.splu
    monkeypatch.setattr(solver.spla, "splu", lambda *a, **k: calls.append(1) or real_splu(*a, **k))
    lagged, factorizations = _vortex_steps(calls)
    assert factorizations == 1
    monkeypatch.setattr(solver, "_KRYLOV_LIMIT", 0)
    direct, factorizations = _vortex_steps(calls)
    assert factorizations == 20  # two Newton iterations per step at n=8
    for st_lag, st_dir in zip(lagged, direct):
        assert np.linalg.norm(st_lag.u - st_dir.u) <= 1e-12 * np.linalg.norm(st_dir.u)
        assert np.linalg.norm(st_lag.p - st_dir.p) <= 1e-12 * np.linalg.norm(st_dir.p)


def _count_calls(monkeypatch, module, name):
    """Patch module.name with a wrapper; returns the list it appends to per call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _newton_iterations(monkeypatch):
    """Patch solver._newton to record the iterations of every solve."""
    iterations = []
    real = solver._newton

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(solver, "_newton", recorded)
    return iterations


def test_one_jacobian_per_newton_iteration(monkeypatch):
    # residuals (initial, line-search trials, initialize) assemble no matrix,
    # so convection is assembled only for the Jacobian of a Newton step
    builds = _count_calls(monkeypatch, solver, "assemble_convection")
    iterations = _newton_iterations(monkeypatch)
    pair = taylor_green_pair(8, 1)
    problem = FlowProblem(pair, StabParams.create(1, nu=1e-2), nitsche=False)
    stepper = TimeStepper(problem, TimeConfig(dt=1e-2, t_end=5e-2))
    stepper.initialize(taylor_green_velocity)
    assert builds == []
    for _ in range(5):
        stepper.step()
    assert len(iterations) == 5 and min(iterations) >= 1
    assert len(builds) == sum(iterations)

    del builds[:], iterations[:]
    run_cavity(1, 16, 7500.0)
    assert len(builds) == sum(iterations) == 29


def test_one_eta_and_convection_evaluation_per_jacobian_state(monkeypatch):
    # the residual, the Jacobian and the Jacobian product at one iterate
    # share eta and u at the convection points, so each is computed once per
    # residual evaluation; the product's direction v is evaluated at the
    # convection points once per Newton iteration
    etas = _count_calls(monkeypatch, forms, "_facet_eta")
    conv_values = _count_calls(monkeypatch, forms, "_convection_point_values")
    residuals = _count_calls(monkeypatch, _SpatialOperator, "residual")
    products = _count_calls(monkeypatch, _SpatialOperator, "jacobian_product")
    jacobians = _count_calls(monkeypatch, solver, "assemble_skeleton")
    _vortex_steps([], n_steps=5)
    assert len(jacobians) >= 5 and len(products) == len(jacobians)
    assert len(etas) == len(residuals)
    assert len(conv_values) == len(residuals) + len(products)


def test_newton_result_counts_factorizations_and_krylov_iterations(pair8):
    problem, _ = manufactured_problem(pair8, re=100.0)
    result = newton_steady(problem)
    assert result.iterations >= 2
    assert 1 <= result.factorizations <= result.iterations
    # every iteration after the first tries the held LU first
    assert result.krylov_iterations >= result.iterations - 1


def _cavity_problem(pair, re):
    return FlowProblem(
        pair, StabParams.create(pair.k_prime, nu=1.0 / re), u_d=CavityCase.lid_velocity
    )


def _oracle_ladder(problem, re, config=NewtonConfig()):
    """solve_steady's ladder without its predictor or loose steps: every step
    solved to full tolerance from the previous step's solution as it is."""
    state = None
    for re_step in [r for r in config.continuation_re if r < re] + [re]:
        params = problem.params.with_nu(problem.params.nu * re / re_step)
        state = newton_steady(replace(problem, params=params), config, initial=state).state
    return state


@pytest.mark.parametrize("case", ["cavity", "manufactured"])
def test_predicted_ladder_matches_oracle_ladder(pair8, case):
    # abs_tol 1e-12: at 1e-10 the Re=1000 manufactured oracle is itself about
    # 1e-7 (relative) from the exact discrete solution, so the comparison
    # would measure the oracle's error; the steps below the target Re stop on
    # their relative bound either way
    config = NewtonConfig(abs_tol=1e-12)
    if case == "cavity":
        re, problem = 7500.0, _cavity_problem(pair8, 7500.0)
    else:
        re, (problem, _) = 1000.0, manufactured_problem(pair8, re=1000.0)
    result = solve_steady(problem, re=re, config=config)
    oracle = _oracle_ladder(problem, re, config)
    assert np.linalg.norm(result.state.u - oracle.u) <= 1e-8 * np.linalg.norm(oracle.u)


def test_ladder_steps_below_target_stop_at_loose_tolerance(pair8):
    config = NewtonConfig()
    result = solve_steady(_cavity_problem(pair8, 7500.0), re=7500.0, config=config)
    assert [step.re for step in result.ladder] == [100, 400, 1000, 2500, 5000, 7500]
    *below, final = result.ladder
    loose = [max(config.abs_tol, math.sqrt(config.rel_tol) * s.initial_residual) for s in below]
    full = [max(config.abs_tol, config.rel_tol * s.initial_residual) for s in result.ladder]
    assert all(s.iterations >= 1 and s.residual_norm <= tol for s, tol in zip(below, loose))
    # the loose bound does stop steps short of the full one
    assert any(s.residual_norm > tol for s, tol in zip(below, full))
    assert final.residual_norm <= full[-1]
    assert (final.iterations, final.factorizations, final.krylov_iterations) == (
        result.iterations, result.factorizations, result.krylov_iterations
    )


def test_direct_solve_steady_has_one_ladder_step(pair8):
    problem, _ = manufactured_problem(pair8, re=10.0)
    result = solve_steady(problem)
    assert result.ladder == (solver._ladder_step(None, result),)
    assert result.residual_norm <= NewtonConfig().abs_tol


def test_tangent_predictor_uses_the_held_lu_and_releases_it(pair8, monkeypatch):
    problem = _cavity_problem(pair8, 100.0)
    op = _SpatialOperator(problem)
    solved = newton_steady(problem, operator=op).state
    next_op = op.at_nu(1.0 / 110.0)
    # a solve that holds no LU predicts no change
    assert solver._tangent_predictor(next_op, solved, 1.0 / 1000.0) is solved
    factorizations = _count_calls(monkeypatch, solver.spla, "splu")
    predicted = solver._tangent_predictor(op, solved, next_op.params.nu)
    assert factorizations == [] and op.lagged.lu is None
    # the streamfunction residual the predictor targets (B^T p drops out)
    curl_t = pair8.curl.T
    before, after = (
        np.linalg.norm(curl_t @ next_op.residual(state.u)) for state in (solved, predicted)
    )
    assert after < 0.2 * before
    # the step C dpsi keeps the divergence and the normal trace
    assert max_divergence(pair8, predicted.u) < 1e-12
    assert not predicted.u[pair8.normal_boundary_dofs.all].any()


def test_continuation_failure_names_re_step(pair8):
    problem = FlowProblem(
        pair8, StabParams.create(1, nu=1.0 / 7500.0), u_d=CavityCase.lid_velocity
    )
    config = NewtonConfig(max_iter=1)
    with pytest.raises(ConvergenceError, match="Re=100"):
        solve_steady(problem, re=7500.0, config=config)


def test_solve_steady_rejects_re_that_does_not_match_nu(pair8):
    # every ladder step runs at nu re / re_step, so an re other than 1 / nu
    # would solve other Reynolds numbers than the ladder records
    problem = _cavity_problem(pair8, 7500.0)
    with pytest.raises(ValueError, match=r"re=1000 .* nu=0\.000133333"):
        solve_steady(problem, re=1000.0)


# (field, value) pairs NewtonConfig rejects, naming the field
MALFORMED_NEWTON_CONFIG = [
    ("abs_tol", 0.0),
    ("abs_tol", math.nan),
    ("abs_tol", math.inf),
    ("rel_tol", math.nan),
    ("max_iter", -1),
    ("continuation_re", (math.nan,)),
    ("continuation_re", (-5.0,)),
]


def test_newton_config_validation():
    for field, value in MALFORMED_NEWTON_CONFIG:
        with pytest.raises(ValueError, match=field):
            NewtonConfig(**{field: value})
    assert NewtonConfig(max_iter=0).max_iter == 0
    with pytest.raises(ValueError):
        TimeConfig(dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        TimeConfig(dt=0.1, t_end=1.0, rho_inf=1.5)
    # t_end must be a positive whole number of steps
    for t_end, dt in ((0.015, 0.01), (0.0, 0.01), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="whole number"):
            TimeConfig(dt=dt, t_end=t_end)
    assert TimeConfig(dt=0.01, t_end=0.01).n_steps == 1
    assert TimeConfig(dt=0.1, t_end=0.3).n_steps == 3


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


@pytest.mark.parametrize("rho_inf", [0.0, 0.5, 1.0])
def test_step_solves_the_stage_equations_in_u_new(rho_inf):
    # Newton solves for the alpha_f state; the step it returns solves the
    # stage equations written in u_{n+1}, from assembled matrices:
    # c M u_{n+1} + M [(1 - alpha_m/gamma_t) udot_n - c u_n] + r_sp(w) - B^T p
    # on the free rows and B u_{n+1}, c = alpha_m / (gamma_t dt) and
    # w = u_n + alpha_f (u_{n+1} - u_n)
    pair = taylor_green_pair(8, 2)
    params = StabParams.create(2, nu=1e-2)
    cfg = TimeConfig(dt=2e-2, t_end=4e-2, rho_inf=rho_inf)
    stepper = TimeStepper(FlowProblem(pair, params, nitsche=False), cfg)
    stepper.initialize(taylor_green_velocity)
    stepper.step()  # so that udot_n comes from a step's update
    u_n, udot_n = stepper.state.u.copy(), stepper.udot.copy()
    new = stepper.step()
    w = u_n + cfg.alpha_f * (new.u - u_n)
    k = assemble_viscous_nitsche(pair, params, nitsche=False)
    r_sp = (k + assemble_convection(pair, w)[0] + assemble_skeleton(pair, w, params)) @ w
    mass, b = assemble_velocity_mass(pair).toarray(), assemble_divergence(pair).toarray()
    c = cfg.alpha_m / (cfg.gamma_t * cfg.dt)
    hist = mass @ ((1.0 - cfg.alpha_m / cfg.gamma_t) * udot_n - c * u_n)
    momentum = c * (mass @ new.u) + hist + r_sp - b.T @ new.p
    free = np.setdiff1d(np.arange(pair.n_u), pair.normal_boundary_dofs.all)
    residual = np.concatenate([momentum[free], b @ new.u])
    assert np.linalg.norm(residual) <= NewtonConfig().abs_tol
    assert len(stepper.newton_iterations) == 2 and min(stepper.newton_iterations) >= 1


@settings(max_examples=30, deadline=None)
@given(pair=random_pairs(), seed=st.integers(0, 2**16))
def test_divergence_and_pressure_space_match_dense_oracles(pair, seed):
    b = quadrature_divergence(pair).toarray()
    assert np.abs(assemble_divergence(pair).toarray() - b).max() <= 1e-13 * np.linalg.norm(b)
    ps = solver._pressure_space(pair)
    m = pressure_mean_vector(pair)
    b_f = b.copy()
    b_f[:, pair.normal_boundary_dofs.all] = 0.0
    rng = np.random.default_rng(seed)
    # pressure: the zero-mean least-squares solution of B_f^T p = r_f
    r = rng.standard_normal(pair.n_u)
    p_ref = np.linalg.lstsq(b_f.T, r, rcond=None)[0]
    p_ref -= (m @ p_ref) / m.sum()
    p = ps.pressure(r)
    assert np.abs(p - p_ref).max() <= 1e-10 * np.abs(p_ref).max()
    assert abs(m @ p) <= 1e-14 * np.abs(m).sum() * np.abs(p).max()
    # solenoidal: u minus the smallest free-DOF correction d with B_f d = B u
    u = rng.standard_normal(pair.n_u)
    u[pair.normal_boundary_dofs.all] = 0.0
    u_ref = u - np.linalg.lstsq(b_f, b @ u, rcond=None)[0]
    assert np.abs(ps.solenoidal(u) - u_ref).max() <= 1e-12 * np.abs(u).max()


def test_a_run_factorizes_only_streamfunction_matrices(monkeypatch):
    # pressure recovery and the initial projection solve their constant
    # systems in 1-D modes, so every splu of a run is a streamfunction LU
    calls = _count_calls(monkeypatch, solver.spla, "splu")
    pair = taylor_green_pair(8, 1)
    problem = FlowProblem(pair, StabParams.create(1, nu=1e-2), nitsche=False)
    stepper = TimeStepper(problem, TimeConfig(dt=1e-2, t_end=0.1))
    stepper.run(taylor_green_velocity)
    assert len(calls) == stepper.spatial.lagged.factorizations == 1
    del calls[:]
    result = solve_steady(_cavity_problem(unit_square_pair(8, 1), 7500.0), re=7500.0)
    assert len(calls) == sum(step.factorizations for step in result.ladder)


@settings(max_examples=30, deadline=None)
@given(pair=random_pairs(), seed=st.integers(0, 2**16))
def test_streamfunction_mass_solve_matches_dense_oracle(pair, seed):
    # C^T M C = K_y (x) M_x + M_y (x) K_x, solved by fast diagonalization
    curl = pair.curl
    a = (curl.T @ assemble_velocity_mass(pair) @ curl).toarray()
    rhs = np.random.default_rng(seed).standard_normal(len(a))
    expect = np.linalg.solve(a, rhs)
    got = solver._streamfunction_mass(pair).solve(rhs)
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


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
