"""Tests for the benchmark cases and diagnostics."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divspline.cases import (
    CavityCase,
    ManufacturedCase,
    energy_and_dissipation,
    error_norms,
    max_divergence,
    run_cavity,
    run_convergence_study,
    run_pressure_robustness,
    run_taylor_green_2d,
    streamfunction,
    taylor_green_pair,
    taylor_green_velocity,
    unit_square_pair,
)
from divspline.forms import StabParams
from divspline.mesh import gauss_rule
from divspline.solver import FlowProblem, TimeConfig, TimeStepper
from divspline.space import StateVector, zero_state
from util_fields import (
    curl_state,
    derivative_coefficients,
    interpolate_field,
    quadrature_error_norms,
    random_pairs,
)


# ------------------------------------------------------- manufactured fields


def fd1(f, x, y, axis, h=1e-3):
    dx = h if axis == 0 else 0.0
    dy = h if axis == 1 else 0.0
    return (
        -f(x + 2 * dx, y + 2 * dy)
        + 8 * f(x + dx, y + dy)
        - 8 * f(x - dx, y - dy)
        + f(x - 2 * dx, y - 2 * dy)
    ) / (12 * h)


def fd2(f, x, y, axis, h=1e-3):
    dx = h if axis == 0 else 0.0
    dy = h if axis == 1 else 0.0
    return (
        -f(x + 2 * dx, y + 2 * dy)
        + 16 * f(x + dx, y + dy)
        - 30 * f(x, y)
        + 16 * f(x - dx, y - dy)
        - f(x - 2 * dx, y - 2 * dy)
    ) / (12 * h * h)


def test_manufactured_momentum_residual_fd():
    # independent finite-difference check of f = (u.grad)u + grad p - nu lap u
    case = ManufacturedCase(re=10.0)
    comp = [lambda x, y: case.velocity(x, y)[0], lambda x, y: case.velocity(x, y)[1]]
    rng = np.random.default_rng(1)
    pts = 0.1 + 0.8 * rng.random((20, 2))
    for x, y in pts:
        u = np.array([comp[0](x, y), comp[1](x, y)])
        f = case.forcing(x, y)
        for i in (0, 1):
            conv = u[0] * fd1(comp[i], x, y, 0) + u[1] * fd1(comp[i], x, y, 1)
            lap = fd2(comp[i], x, y, 0) + fd2(comp[i], x, y, 1)
            dp = fd1(case.pressure, x, y, i)
            assert abs(conv + dp - case.nu * lap - f[i]) < 1e-6


def sympy_manufactured_fields():
    """Reference fields derived symbolically from the original expressions."""
    sy = pytest.importorskip("sympy")
    x, y, nu = sy.symbols("x y nu", real=True)
    u1 = 2 * sy.exp(x) * (x - 1) ** 2 * x**2 * (y**2 - y) * (2 * y - 1)
    u2 = -sy.exp(x) * (x - 1) * x * (x**2 + 3 * x - 2) * (y - 1) ** 2 * y**2
    p = -424 + 156 * sy.E + (y**2 - y) * (
        -456
        + sy.exp(x)
        * (
            456
            + x**2 * (228 - 5 * (y**2 - y))
            + 2 * x * (-228 + (y**2 - y))
            + 2 * x**3 * (-36 + (y**2 - y))
            + x**4 * (12 + y**2 - y)
        )
    )
    grads = [sy.diff(u1, x), sy.diff(u1, y), sy.diff(u2, x), sy.diff(u2, y)]
    conv = [u1 * grads[0] + u2 * grads[1], u1 * grads[2] + u2 * grads[3]]
    visc = [
        sy.diff(u1, x, 2) + sy.diff(u1, y, 2),
        sy.diff(u2, x, 2) + sy.diff(u2, y, 2),
    ]
    dp = [sy.diff(p, x), sy.diff(p, y)]
    f_st = [dp[i] - nu * visc[i] for i in (0, 1)]
    f_ns = [conv[i] + f_st[i] for i in (0, 1)]

    def lam(exprs):
        return sy.lambdify((x, y, nu), exprs, modules="numpy")

    # the forcings are keyed by ManufacturedCase.convection
    return {
        "velocity": lam([u1, u2]),
        "gradient": lam(grads),
        "pressure": lam([p]),
        True: lam(f_ns),
        False: lam(f_st),
    }


def test_manufactured_fields_match_sympy():
    ref = sympy_manufactured_fields()
    rng = np.random.default_rng(3)
    x, y = rng.random(10_000), rng.random(10_000)

    def assert_close(got, want, rtol):
        for g, w in zip(got, want, strict=True):
            w = np.broadcast_to(w, x.shape)
            assert np.abs(g - w).max() <= rtol * np.abs(w).max()

    for re in (1.0, 10.0, 1000.0):
        case = ManufacturedCase(re=re)
        assert_close(case.velocity(x, y), ref["velocity"](x, y, case.nu), 1e-13)
        assert_close(case.velocity_gradient(x, y), ref["gradient"](x, y, case.nu), 1e-13)
        assert_close([case.pressure(x, y)], ref["pressure"](x, y, case.nu), 1e-11)
        for convection in (True, False):
            got = ManufacturedCase(re=re, convection=convection).forcing(x, y)
            assert_close(got, ref[convection](x, y, case.nu), 1e-11)


def test_manufactured_study_runs_without_sympy():
    # a None entry in sys.modules makes every "import sympy" raise ImportError
    code = (
        "import sys; sys.modules['sympy'] = None\n"
        "from divspline.cases import run_convergence_study\n"
        "rows = run_convergence_study(1, meshes=(4, 8))\n"
        "assert rows[1].l2 < rows[0].l2\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_manufactured_velocity_divergence_free():
    case = ManufacturedCase(re=10.0)
    rng = np.random.default_rng(2)
    x, y = rng.random(100), rng.random(100)
    g11, _, _, g22 = case.velocity_gradient(x, y)
    assert np.abs(g11 + g22).max() < 1e-12


def test_manufactured_velocity_vanishes_on_boundary():
    case = ManufacturedCase(re=10.0)
    t = np.linspace(0.0, 1.0, 50)
    for xx, yy in [(t, 0 * t), (t, 0 * t + 1), (0 * t, t), (0 * t + 1, t)]:
        u1, u2 = case.velocity(xx, yy)
        assert np.abs(u1).max() < 1e-14
        assert np.abs(u2).max() < 1e-14


def test_forcing_stokes_drops_convection():
    case_ns = ManufacturedCase(re=10.0)
    case_st = ManufacturedCase(re=10.0, convection=False)
    x, y = 0.3, 0.7
    f_ns = case_ns.forcing(x, y)
    f_st = case_st.forcing(x, y)
    g = case_ns.velocity_gradient(x, y)
    u = case_ns.velocity(x, y)
    conv = (u[0] * g[0] + u[1] * g[1], u[0] * g[2] + u[1] * g[3])
    assert f_ns[0] - f_st[0] == pytest.approx(conv[0], rel=1e-12)
    assert f_ns[1] - f_st[1] == pytest.approx(conv[1], rel=1e-12)


# ----------------------------------------------------------------- the norms


def test_error_norms_zero_for_representable_field():
    pair = unit_square_pair(4, 1)
    st = interpolate_field(pair, lambda x, y: (x + 0 * y, -y + 0 * x))
    l2, h1 = error_norms(
        pair,
        st,
        lambda x, y: (x + 0 * y, -y + 0 * x),
        lambda x, y: (1 + 0 * x, 0 * x, 0 * x, -1 + 0 * x),
    )
    assert l2 < 1e-13
    assert h1 < 1e-12


def test_error_norms_interpolant_below_solver_error():
    case = ManufacturedCase(re=10.0)
    pair = unit_square_pair(8, 1)
    interp = interpolate_field(pair, case.velocity)
    l2_i, _ = error_norms(pair, interp, case.velocity, case.velocity_gradient)
    from divspline.solver import solve_steady

    params = StabParams.create(1, nu=case.nu)
    result = solve_steady(FlowProblem(pair, params, f=case.forcing), re=case.re)
    l2_s, _ = error_norms(pair, result.state, case.velocity, case.velocity_gradient)
    assert 0.0 < l2_i <= l2_s * (1.0 + 1e-10)


# --------------------------------------------------------------- diagnostics


@settings(max_examples=30, deadline=None)
@given(pair=random_pairs(), seed=st.integers(0, 2**16))
def test_error_norms_match_element_quadrature_oracle(pair, seed):
    # C_y G C_x^T on the tensor grid of points against the 2-D element tables
    state = StateVector(np.random.default_rng(seed).standard_normal(pair.n_u), np.zeros(pair.n_p))

    def velocity(x, y):
        return np.sin(3.0 * x) * y, np.cos(x - 2.0 * y)

    def gradient(x, y):
        s = np.sin(x - 2.0 * y)
        return 3.0 * np.cos(3.0 * x) * y, np.sin(3.0 * x), -s, 2.0 * s

    got = error_norms(pair, state, velocity, gradient)
    expect = quadrature_error_norms(pair, state, velocity, gradient)
    for name, g, e in zip(("L2", "H1"), got, expect):
        assert abs(g - e) <= 1e-13 * e, name


def test_gauss_rule_runs_once_per_size_in_a_cavity_run(monkeypatch):
    # one memoized rule per size serves the Grams and every table
    sizes = []
    legendre = np.polynomial.legendre
    real = legendre.leggauss
    monkeypatch.setattr(legendre, "leggauss", lambda n: sizes.append(n) or real(n))
    gauss_rule.cache_clear()
    run_cavity(1, 16, 7500)
    assert sizes and len(sizes) == len(set(sizes))


def test_energy_zero_state():
    pair = unit_square_pair(4, 1)
    params = StabParams.create(1, nu=0.1)
    history = [StateVector(np.zeros(pair.n_u), np.zeros(pair.n_p), time=0.01 * i) for i in range(3)]
    records = energy_and_dissipation(pair, history, params)
    for rec in records[1:-1]:
        assert rec.e_k == 0.0
        assert rec.eps_total == 0.0
        assert rec.eps_resolved == 0.0
        assert rec.eps_model == 0.0
        assert rec.div_max == 0.0
    assert math.isnan(records[0].eps_total)
    assert math.isnan(records[-1].eps_total)


def test_energy_requires_three_points():
    pair = unit_square_pair(4, 1)
    params = StabParams.create(1, nu=0.1)
    history = [zero_state(pair), zero_state(pair, time=0.01)]
    with pytest.raises(ValueError, match="3 history points"):
        energy_and_dissipation(pair, history, params)


def test_taylor_green_initial_energy_quarter():
    pair = taylor_green_pair(24, 2)
    params = StabParams.create(2, nu=1e-2)
    problem = FlowProblem(pair, params, nitsche=False)
    stepper = TimeStepper(problem, TimeConfig(dt=0.01, t_end=0.02))
    st = stepper.initialize(taylor_green_velocity)
    from divspline.forms import assemble_velocity_mass

    m = assemble_velocity_mass(pair)
    e_k = 0.5 * float(st.u @ (m @ st.u)) / pair.mesh.area
    assert e_k == pytest.approx(0.25, abs=1e-4)
    assert max_divergence(pair, st.u) < 1e-10 * np.linalg.norm(st.u)


@pytest.mark.parametrize(
    "t_end, message", [(0.01, "at least 2 time steps"), (0.015, "whole number")]
)
def test_taylor_green_rejects_horizon_before_stepping(t_end, message, monkeypatch):
    # one step is too few for the diagnostics; 1.5 steps is no whole number
    def step(self):
        raise AssertionError("stepped")

    monkeypatch.setattr(TimeStepper, "step", step)
    with pytest.raises(ValueError, match=message):
        run_taylor_green_2d(k_prime=1, n=4, dt=0.01, t_end=t_end)


def test_taylor_green_unstabilized_eps_matches_resolved():
    res = run_taylor_green_2d(k_prime=1, n=16, re=100.0, dt=0.01, t_end=0.06, gamma=0.0)
    inner = res.records[1:-1]
    assert all(rec.eps_model == 0.0 for rec in res.records)
    peak = max(rec.eps_resolved for rec in inner)
    for rec in inner:
        assert abs(rec.eps_total - rec.eps_resolved) < 0.05 * peak


# ------------------------------------------------------------ streamfunction


def test_streamfunction_reconstructs_curl_potential():
    pair = unit_square_pair(4, 2)
    st = curl_state(pair, seed=5, zero_boundary_ring=True)
    space, psi = streamfunction(pair, st.u)
    # d psi / dy recovers the u1 coefficients column by column
    u1 = pair.component_coeffs(st.u, 0)
    for ix in range(space.n_x):
        _, dcol = derivative_coefficients(space.kv_y, psi[:, ix])
        assert dcol == pytest.approx(u1[:, ix], abs=1e-12)
    # -d psi / dx recovers u2 (valid because u2 vanishes at the bottom edge)
    u2 = pair.component_coeffs(st.u, 1)
    minus_dx = -np.stack(
        [derivative_coefficients(space.kv_x, psi[iy, :])[1] for iy in range(space.n_y)],
        axis=0,
    )
    assert minus_dx == pytest.approx(u2, abs=1e-12)


# -------------------------------------------------------------------- sweeps


def test_convergence_study_schema_and_decay():
    rows = run_convergence_study(k_prime=1, meshes=(4, 8), re=10.0)
    assert [r.n for r in rows] == [4, 8]
    assert rows[0].h == pytest.approx(0.25)
    assert math.isnan(rows[0].l2_order)
    assert rows[1].l2 < rows[0].l2
    assert rows[1].l2_order > 1.5
    assert rows[1].h1_order > 0.8
    assert max(r.div_max for r in rows) < 1e-10


def test_pressure_robustness_smoke():
    res = run_pressure_robustness(k_prime=1, n=8, re=10.0)
    assert res.abs_diff_l2 < 5e-8
    assert res.rel_coeff_change < 5e-7
    assert res.l2_base == pytest.approx(res.l2_perturbed, rel=1e-4)


def test_cavity_stokes_symmetry():
    res = run_cavity(k_prime=1, n=8, re=0.0)
    # mirror symmetry about x = 1/2: u2(x, 1/2) is antisymmetric
    assert np.abs(res.profile_u2 + res.profile_u2[::-1]).max() < 1e-8
    assert res.div_max < 1e-10
    assert len(res.profile_y) == 257
    # no-slip edges: weakly imposed u1 is small on the bottom centerline point
    assert abs(res.profile_u1[0]) < 0.05


def test_cavity_lid_data_tangential():
    x = np.linspace(0.0, 1.0, 7)
    u1, u2 = CavityCase.lid_velocity(x, np.ones_like(x))
    assert np.all(u1 == 1.0)
    assert np.all(u2 == 0.0)
    u1, u2 = CavityCase.lid_velocity(x, np.zeros_like(x))
    assert np.all(u1 == 0.0)
