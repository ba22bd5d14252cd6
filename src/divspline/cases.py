"""Benchmark cases and diagnostics.

Provides the smooth manufactured solution on the unit square with its
Navier-Stokes forcing, the lid-driven cavity, and the 2D Taylor-Green vortex
on [0, 2 pi]^2, together with error norms, kinetic-energy/dissipation
diagnostics, and the sweep drivers used by the command-line interface.

The manufactured velocity is the curl of one streamfunction,

    psi = e^x a(x) a(y),  a(t) = t^2 (t-1)^2,
    u1 = e^x a(x) a'(y),  u2 = -e^x c(x) a(y),  c = a + a',

so it is divergence-free and vanishes on the boundary. With s = y^2 - y the
smooth pressure is

    p = p0 - 456 s + e^x (s Q(x) + s^2 c(x)),
    Q = 12x^4 - 72x^3 + 228x^2 - 456x + 456,  p0 = -424 + 156 e,

which has zero mean. The forcing f = (u . grad) u + grad p - nu lap u is
written in the same closed form, differentiating e^x g(x) as e^x (g + g').
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
import numpy as np
from numpy.polynomial import Polynomial

from .bspline import basis_integrals, make_open_uniform, open_knots
from .forms import (
    StabParams,
    assemble_strain,
    assemble_velocity_mass,
    skeleton_residual,
)
from .mesh import build_mesh
from .solver import (
    ConvergenceError,
    FlowProblem,
    LadderStep,
    TimeConfig,
    TimeStepper,
    solve_steady,
)
from .space import (
    DivConformingPair,
    StateVector,
    TensorSpace,
    build_pair,
    divergence_coefficients,
    element_tables,
    eval_velocity,
)

__all__ = [
    "ManufacturedCase",
    "CavityCase",
    "DiagnosticsRecord",
    "ConvergenceRow",
    "CavityResult",
    "TaylorGreenResult",
    "PressureRobustnessResult",
    "unit_square_pair",
    "taylor_green_pair",
    "error_norms",
    "error_quad_points",
    "energy_and_dissipation",
    "streamfunction",
    "run_convergence_study",
    "run_reynolds_robustness",
    "run_pressure_robustness",
    "run_cavity",
    "run_taylor_green_2d",
]


# Polynomial factors of the manufactured fields (see the module docstring):
# _DA[m] = a^(m), and d^m/dx^m (e^x a) = e^x _X[m] since d/dx (e^x g) = e^x (g + g').
_A = Polynomial([0, 0, 1, -2, 1])  # a(t) = t^2 (t-1)^2
_DA = [_A.deriv(m) for m in range(4)]
_X = [_A]
for _ in range(3):
    _X.append(_X[-1] + _X[-1].deriv())
_S = Polynomial([0, -1, 1])
_Q = Polynomial([456, -456, 228, -72, 12])
_P0 = -424 + 156 * math.e


@dataclass(frozen=True)
class ManufacturedCase:
    """Manufactured steady solution on the unit square at one Reynolds number."""

    re: float
    convection: bool = True

    @property
    def nu(self) -> float:
        return 1.0 / self.re

    def velocity(self, x, y):
        ex = np.exp(x)
        return ex * _X[0](x) * _DA[1](y), -ex * _X[1](x) * _DA[0](y)

    def velocity_gradient(self, x, y):
        """(d u1/dx, d u1/dy, d u2/dx, d u2/dy)."""
        ex = np.exp(x)
        return (
            ex * _X[1](x) * _DA[1](y),
            ex * _X[0](x) * _DA[2](y),
            -ex * _X[2](x) * _DA[0](y),
            -ex * _X[1](x) * _DA[1](y),
        )

    def pressure(self, x, y):
        s = _S(y)
        return _P0 - 456 * s + np.exp(x) * (s * _Q(x) + s * s * _X[1](x))

    def forcing(self, x, y):
        """f = (u . grad) u + grad p - nu lap u; without convection if disabled."""
        ex = np.exp(x)
        s, ds = _S(y), 2 * y - 1
        x0, x1, x2 = (p(x) for p in _X[:3])
        a0, a1, a2 = (p(y) for p in _DA[:3])
        # d/dx (e^x Q) = 12 e^x a, since Q + Q' = 12 a
        f1 = ex * s * (12 * x0 + s * x2)
        f2 = ds * (ex * (_Q(x) + 2 * s * x1) - 456)
        if self.convection:
            u1, u2 = ex * x0 * a1, -ex * x1 * a0
            f1 = f1 + ex * (u1 * x1 * a1 + u2 * x0 * a2)
            f2 = f2 - ex * (u1 * x2 * a0 + u2 * x1 * a1)
        lap1, lap2 = self._minus_laplacian(x, y)
        return f1 + self.nu * lap1, f2 + self.nu * lap2

    def _minus_laplacian(self, x, y):
        """-lap u, the forcing's part linear in nu divided by nu."""
        ex = np.exp(x)
        x0, x1, x2, x3 = (p(x) for p in _X)
        a0, a1, a2, a3 = (p(y) for p in _DA)
        return -ex * (x2 * a1 + x0 * a3), ex * (x3 * a0 + x1 * a2)


@dataclass(frozen=True)
class CavityCase:
    """Lid-driven cavity: u = (1, 0) on the top edge, no-slip elsewhere."""

    re: float

    @staticmethod
    def lid_velocity(x, y):
        on_lid = np.asarray(y) >= 1.0 - 1e-12
        return np.where(on_lid, 1.0, 0.0), np.zeros_like(np.asarray(x, dtype=float))


def unit_square_pair(n: int, k_prime: int) -> DivConformingPair:
    """Uniform n x n mesh of [0,1]^2 with the order-k' conforming pair."""
    kx = make_open_uniform(k_prime + 1, n, (0.0, 1.0))
    ky = make_open_uniform(k_prime + 1, n, (0.0, 1.0))
    return build_pair(build_mesh(kx, ky), k_prime)


def taylor_green_pair(n: int, k_prime: int) -> DivConformingPair:
    two_pi = 2.0 * math.pi
    kx = make_open_uniform(k_prime + 1, n, (0.0, two_pi))
    ky = make_open_uniform(k_prime + 1, n, (0.0, two_pi))
    return build_pair(build_mesh(kx, ky), k_prime)


def taylor_green_velocity(x, y):
    return np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)


def error_quad_points(k_prime: int) -> int:
    """Gauss points per direction in error_norms, k'+3."""
    return k_prime + 3


def error_norms(pair: DivConformingPair, state: StateVector, velocity, gradient=None):
    """L2 and H1-seminorm velocity errors by elevated Gauss quadrature.

    velocity maps (x, y) arrays to (u1, u2); gradient, when given, maps them
    to (d u1/dx, d u1/dy, d u2/dx, d u2/dy). Uses error_quad_points(k')
    points per direction so the quadrature error stays below the
    discretization error. Each component and derivative is C_y G C_x^T on
    the tensor grid of points, G its coefficient grid and C the 1-D
    collocation of `element_tables`.
    """
    tab = element_tables(pair, error_quad_points(pair.k_prime))
    x, y = np.meshgrid(*tab.points_1d)
    w = np.outer(tab.weights_1d[1], tab.weights_1d[0])

    def values(c, dx, dy):
        c_x, c_y = tab.colloc[c]
        return c_y[dy] @ pair.component_coeffs(state.u, c) @ c_x[dx].T

    ex1, ex2 = velocity(x, y)
    d1 = values(0, 0, 0) - ex1
    d2 = values(1, 0, 0) - ex2
    l2 = math.sqrt(float(np.sum(w * (d1 * d1 + d2 * d2))))
    if gradient is None:
        return l2, None
    g11, g12, g21, g22 = gradient(x, y)
    e11 = values(0, 1, 0) - g11
    e12 = values(0, 0, 1) - g12
    e21 = values(1, 1, 0) - g21
    e22 = values(1, 0, 1) - g22
    h1 = math.sqrt(float(np.sum(w * (e11**2 + e12**2 + e21**2 + e22**2))))
    return l2, h1


@dataclass
class DiagnosticsRecord:
    """Energy/dissipation diagnostics of one state in a time series."""

    time: float
    e_k: float
    eps_total: float
    eps_resolved: float
    eps_model: float
    div_max: float


def max_divergence(pair: DivConformingPair, u: np.ndarray) -> float:
    """Sup-norm bound of div u_h via its exact pressure-space coefficients.

    B-spline coefficients bound the spline sup-norm (convex-hull property),
    so this dominates the maximum over any quadrature point set.
    """
    d = divergence_coefficients(pair, u)
    return float(np.abs(d).max())


def energy_and_dissipation(
    pair: DivConformingPair, history: list[StateVector], params: StabParams
) -> list[DiagnosticsRecord]:
    """Diagnostics series: E_k, resolved/model dissipation, total eps.

    E_k = ||u||^2 / (2V); eps_r = (2 nu / V) (grad_s u, grad_s u);
    eps_m = (1/V) J(u; u, u); eps = -dE_k/dt by centered differences (NaN at
    the series endpoints). Requires at least 3 uniformly spaced states.
    """
    if len(history) < 3:
        raise ValueError("need at least 3 history points for the eps differencing")
    times = np.array([st.time for st in history])
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-10, atol=1e-14):
        raise ValueError("history must be uniformly spaced in time")
    dt = float(steps[0])
    vol = pair.mesh.area
    mass = assemble_velocity_mass(pair)
    strain = assemble_strain(pair)
    e_k = np.array([0.5 * st.u @ (mass @ st.u) / vol for st in history])
    eps = np.full(len(history), np.nan)
    eps[1:-1] = -(e_k[2:] - e_k[:-2]) / (2.0 * dt)
    records = []
    for i, st in enumerate(history):
        eps_r = params.nu / vol * float(st.u @ (strain @ st.u))
        eps_m = float(st.u @ skeleton_residual(pair, st.u, params)) / vol
        records.append(
            DiagnosticsRecord(
                time=float(times[i]),
                e_k=float(e_k[i]),
                eps_total=float(eps[i]),
                eps_resolved=eps_r,
                eps_model=eps_m,
                div_max=max_divergence(pair, st.u),
            )
        )
    return records


def streamfunction(pair: DivConformingPair, u: np.ndarray):
    """Streamfunction spline (space, coefficient grid) with psi(x, 0) = 0.

    psi is the exact y-antiderivative of u1; when u is discretely
    divergence-free and u2 vanishes on the bottom edge, -d psi/dx = u2.
    """
    vx = pair.vx
    w = basis_integrals(vx.kv_y)
    g1 = pair.component_coeffs(u, 0)
    coeffs = np.zeros((vx.n_y + 1, vx.n_x))
    coeffs[1:, :] = np.cumsum(w[:, None] * g1, axis=0)
    kv_y = open_knots(vx.kv_y.degree + 1, pair.mesh.unique_knots_y)
    return TensorSpace(kv_x=vx.kv_x, kv_y=kv_y), coeffs


@dataclass
class ConvergenceRow:
    n: int
    h: float
    l2: float
    l2_order: float
    h1: float
    h1_order: float
    div_max: float
    state: StateVector | None = None


def _steady_manufactured(
    pair: DivConformingPair,
    case: ManufacturedCase,
    gamma: float | None,
    c_nit: float | None,
    forcing=None,
):
    """The manufactured problem at case.re, its force split into a nu-free f
    (forcing, or case.forcing at nu = 0) and f_nu = -lap u."""
    params = StabParams.create(pair.k_prime, nu=case.nu, gamma=gamma, c_nit=c_nit)
    problem = FlowProblem(
        pair,
        params,
        f=forcing if forcing is not None else replace(case, re=math.inf).forcing,
        f_nu=case._minus_laplacian,
        convection=case.convection,
    )
    return solve_steady(problem, re=case.re if case.convection else None)


def _manufactured_point(pair, case: ManufacturedCase, gamma, c_nit, label: str):
    """(state, L2 error, H1 error, div max) of the manufactured solve at
    case.re; a ConvergenceError is raised again with label in front."""
    try:
        state = _steady_manufactured(pair, case, gamma, c_nit).state
    except ConvergenceError as exc:
        raise ConvergenceError(f"{label}: {exc}") from exc
    l2, h1 = error_norms(pair, state, case.velocity, case.velocity_gradient)
    return state, l2, h1, max_divergence(pair, state.u)


def run_convergence_study(
    k_prime: int,
    meshes=(4, 8, 16, 32),
    re: float = 10.0,
    gamma: float | None = None,
    c_nit: float | None = None,
) -> list[ConvergenceRow]:
    """Manufactured-solution refinement sweep; orders from successive rows,
    log(e_prev / e) / log(n / n_prev), so the meshes must increase strictly."""
    if any(b <= a for a, b in zip(meshes, meshes[1:])):
        raise ValueError(f"convergence meshes must increase strictly, got {tuple(meshes)}")
    case = ManufacturedCase(re=re)
    rows: list[ConvergenceRow] = []
    for n in meshes:
        pair = unit_square_pair(n, k_prime)
        state, l2, h1, div_max = _manufactured_point(pair, case, gamma, c_nit, f"mesh {n}x{n}")
        if rows:
            refinement = math.log2(n / rows[-1].n)  # exactly 1 when n doubles
            l2_order = math.log2(rows[-1].l2 / l2) / refinement
            h1_order = math.log2(rows[-1].h1 / h1) / refinement
        else:
            l2_order = h1_order = math.nan
        rows.append(
            ConvergenceRow(
                n=n,
                h=pair.mesh.h,
                l2=l2,
                l2_order=l2_order,
                h1=h1,
                h1_order=h1_order,
                div_max=div_max,
                state=state,
            )
        )
    return rows


@dataclass
class RobustnessRow:
    re: float
    l2: float
    h1: float
    div_max: float
    state: StateVector | None = None


def run_reynolds_robustness(
    k_prime: int,
    n: int = 16,
    re_list=(1.0, 10.0, 100.0, 1000.0),
    gamma: float | None = None,
    c_nit: float | None = None,
) -> list[RobustnessRow]:
    """Fixed-mesh Reynolds sweep of manufactured-solution errors."""
    pair = unit_square_pair(n, k_prime)
    rows = []
    for re in re_list:
        state, l2, h1, div_max = _manufactured_point(
            pair, ManufacturedCase(re=re), gamma, c_nit, f"Re={re:g}"
        )
        rows.append(RobustnessRow(re=re, l2=l2, h1=h1, div_max=div_max, state=state))
    return rows


@dataclass
class PressureRobustnessResult:
    l2_base: float
    l2_perturbed: float
    h1_base: float
    h1_perturbed: float
    abs_diff_l2: float
    rel_coeff_change: float
    state_base: StateVector | None = None


def run_pressure_robustness(
    k_prime: int = 1,
    n: int = 16,
    re: float = 10.0,
    gamma: float | None = None,
    c_nit: float | None = None,
) -> PressureRobustnessResult:
    """Compare solves with f and f + grad(sin(pi x y)) (irrotational shift)."""
    pair = unit_square_pair(n, k_prime)
    case = ManufacturedCase(re=re)
    inviscid = replace(case, re=math.inf)

    def perturbed(x, y):
        f1, f2 = inviscid.forcing(x, y)
        c = np.pi * np.cos(np.pi * x * y)
        return f1 + y * c, f2 + x * c

    base = _steady_manufactured(pair, case, gamma, c_nit)
    pert = _steady_manufactured(pair, case, gamma, c_nit, forcing=perturbed)
    l2_b, h1_b = error_norms(pair, base.state, case.velocity, case.velocity_gradient)
    l2_p, h1_p = error_norms(pair, pert.state, case.velocity, case.velocity_gradient)
    du = np.linalg.norm(pert.state.u - base.state.u)
    return PressureRobustnessResult(
        l2_base=l2_b,
        l2_perturbed=l2_p,
        h1_base=h1_b,
        h1_perturbed=h1_p,
        abs_diff_l2=abs(l2_p - l2_b),
        rel_coeff_change=du / np.linalg.norm(base.state.u),
        state_base=base.state,
    )


# Samples per cavity centerline profile; centerline.csv has one row per sample.
CAVITY_PROFILE_POINTS = 257


@dataclass
class CavityResult:
    """Cavity solution and diagnostics.

    iterations counts the Newton iterations of the final (target-Re) solve
    only; ladder has one LadderStep per Reynolds ladder step.
    """

    pair: DivConformingPair
    state: StateVector
    residual_norm: float
    iterations: int
    ladder: tuple[LadderStep, ...]
    profile_y: np.ndarray
    profile_u1: np.ndarray
    profile_x: np.ndarray
    profile_u2: np.ndarray
    j_energy: float
    strain_energy: float
    div_max: float


def run_cavity(
    k_prime: int,
    n: int,
    re: float,
    gamma: float | None = None,
    c_nit: float | None = None,
) -> CavityResult:
    """Steady lid-driven cavity with CAVITY_PROFILE_POINTS-point centerline profiles.

    re = 0 requests the Stokes limit (convection dropped, unit viscosity).
    """
    pair = unit_square_pair(n, k_prime)
    stokes = re == 0.0
    nu = 1.0 if stokes else 1.0 / re
    params = StabParams.create(k_prime, nu=nu, gamma=gamma, c_nit=c_nit)
    problem = FlowProblem(
        pair, params, u_d=CavityCase.lid_velocity, convection=not stokes
    )
    result = solve_steady(problem, re=None if stokes else re)
    samples = np.linspace(0.0, 1.0, CAVITY_PROFILE_POINTS)
    mid = np.full_like(samples, 0.5)
    u1 = eval_velocity(pair, result.state, np.stack([mid, samples], axis=-1), 0).value[:, 0]
    u2 = eval_velocity(pair, result.state, np.stack([samples, mid], axis=-1), 0).value[:, 1]
    strain = assemble_strain(pair)
    u = result.state.u
    return CavityResult(
        pair=pair,
        state=result.state,
        residual_norm=result.residual_norm,
        iterations=result.iterations,
        ladder=result.ladder,
        profile_y=samples,
        profile_u1=u1,
        profile_x=samples,
        profile_u2=u2,
        j_energy=float(u @ skeleton_residual(pair, u, params)),
        strain_energy=float(u @ (strain @ u)),
        div_max=max_divergence(pair, u),
    )


@dataclass
class TaylorGreenResult:
    """Vortex states and diagnostics, with the work of the time steps:
    newton_iterations has one entry per step, and factorizations and
    krylov_iterations count the run's streamfunction LUs and GMRES
    iterations."""

    pair: DivConformingPair
    history: list[StateVector]
    records: list[DiagnosticsRecord]
    params: StabParams
    newton_iterations: list[int]
    factorizations: int
    krylov_iterations: int


def run_taylor_green_2d(
    k_prime: int,
    n: int,
    re: float = 100.0,
    dt: float = 1e-2,
    t_end: float = 1.0,
    gamma: float | None = None,
    c_nit: float | None = None,
    rho_inf: float = 0.5,
) -> TaylorGreenResult:
    """Unforced 2D Taylor-Green vortex on [0, 2 pi]^2 with free-slip walls.

    The normal trace is fixed strongly and no tangential Nitsche terms are
    applied, which the initial vortex satisfies exactly.
    """
    pair = taylor_green_pair(n, k_prime)
    params = StabParams.create(k_prime, nu=1.0 / re, gamma=gamma, c_nit=c_nit)
    problem = FlowProblem(pair, params, nitsche=False, convection=True)
    cfg = TimeConfig(dt=dt, t_end=t_end, rho_inf=rho_inf)
    if cfg.n_steps < 2:
        raise ValueError(
            "the dissipation diagnostics need at least 2 time steps; "
            f"got t_end/dt = {cfg.n_steps}"
        )
    stepper = TimeStepper(problem, cfg)
    history = stepper.run(taylor_green_velocity)
    records = energy_and_dissipation(pair, history, params)
    lagged = stepper.spatial.lagged
    return TaylorGreenResult(
        pair=pair,
        history=history,
        records=records,
        params=params,
        newton_iterations=stepper.newton_iterations,
        factorizations=lagged.factorizations,
        krylov_iterations=lagged.krylov_iterations,
    )
