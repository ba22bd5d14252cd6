"""Nonlinear and time-dependent solvers for the stabilized discretization.

The pair is an exact sequence, so a velocity with u . n = 0 on the boundary
is discretely divergence-free exactly when u = C psi, where C is the curl map
from the interior coefficients of a degree-(k, k) streamfunction spline (see
space.curl_matrix). Every linear solve therefore works on psi: a Newton
correction solves

    C^T J C dpsi = -C^T r,   du = C dpsi,

with J the momentum Jacobian and r the momentum residual over all velocity
DOFs. The square matrix C^T J C has no pressure block, no mean-constraint
border and no normal-DOF elimination; the pressure gradient drops out since
B C = 0. Strong normal-trace Dirichlet conditions (u . n = 0 on the box
boundary) hold by construction; tangential conditions enter weakly through
the operator.

The pressure is recovered on the pressure space. With B_f the divergence
matrix restricted to the velocity DOFs free of the normal-trace condition,
p solves the normal equations of B_f^T p = (r + J du)_f,

    B_f B_f^T p = B_f (r + J du)_f,   m . p = 0,

where m is the pressure-integral vector. B_f^T annihilates only the
constants, so the factorization pins one pressure DOF and the solution is
shifted to zero mean. The pair (du, p) equals the solution of the bordered
saddle Newton system

    [ J_ff  -B_f^T  0 ] [du]     [(r - B^T p_old)_f]
    [ B_f    0      m ] [dp] = - [       B u       ]
    [ 0      m^T    0 ] [dl]     [    m . p_old    ]

with p = p_old + dp, and the stopping test and line search use its full
residual [(r - B^T p)_f, B u, m . p]. Corrections C dpsi keep B u fixed, so
Newton first removes the divergent part of its starting velocity with the
same pressure factorization. Every factorization goes through this module's
spla.splu; the pressure one is built once per pair.

The steady problem is solved by damped Newton with optional Reynolds
warm-start continuation. The unsteady problem uses the generalized-alpha
method in its first-order-system form, parameterized by the spectral radius
rho_inf:

    alpha_m = (3 - rho_inf) / (2 (1 + rho_inf)),  alpha_f = 1 / (1 + rho_inf),
    gamma_t = 1/2 + alpha_m - alpha_f,

with the stage residual evaluated at (t_{n+alpha_m}, t_{n+alpha_f}) and the
reported pressure being the alpha_f-stage pressure. The skeleton penalty
density eta is evaluated at the current iterate and frozen during each
linearization; the jump arguments are linearized exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable
from weakref import WeakKeyDictionary

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import (
    StabParams,
    assemble_convection,
    assemble_divergence,
    assemble_load,
    assemble_skeleton,
    assemble_velocity_mass,
    assemble_viscous_nitsche,
)
from .space import DivConformingPair, StateVector, pressure_mean_vector, zero_state

__all__ = [
    "NewtonConfig",
    "TimeConfig",
    "FlowProblem",
    "NewtonResult",
    "SingularSystemError",
    "ConvergenceError",
    "newton_steady",
    "solve_steady",
    "TimeStepper",
]


class SingularSystemError(RuntimeError):
    """Sparse factorization failed or produced a non-finite solution."""


class ConvergenceError(RuntimeError):
    """Newton iteration failed to reach the requested tolerance."""


@dataclass(frozen=True)
class NewtonConfig:
    """Tolerances and continuation ladder for the nonlinear solves."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_iter: int = 50
    damping: float = 0.5
    continuation_re: tuple = (100.0, 400.0, 1000.0, 2500.0, 5000.0, 7500.0, 10000.0)

    def __post_init__(self):
        if min(self.abs_tol, self.rel_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.damping < 1:
            raise ValueError("damping must lie in (0, 1)")


@dataclass(frozen=True)
class TimeConfig:
    """Generalized-alpha step size, horizon, and spectral radius."""

    dt: float
    t_end: float
    rho_inf: float = 0.5
    newton: NewtonConfig = NewtonConfig()

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 <= self.rho_inf <= 1:
            raise ValueError("rho_inf must lie in [0, 1]")

    @property
    def alpha_m(self) -> float:
        return 0.5 * (3.0 - self.rho_inf) / (1.0 + self.rho_inf)

    @property
    def alpha_f(self) -> float:
        return 1.0 / (1.0 + self.rho_inf)

    @property
    def gamma_t(self) -> float:
        return 0.5 + self.alpha_m - self.alpha_f

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class FlowProblem:
    """One flow configuration: spaces, parameters, data, and active terms.

    f and u_d are callables mapping coordinate arrays (x, y) to component
    pairs; u_d supplies the tangential Dirichlet data imposed weakly when
    nitsche is set. nitsche=False leaves the tangential traction free
    (free-slip walls with the normal trace fixed strongly).
    """

    pair: DivConformingPair
    params: StabParams
    f: Callable | None = None
    u_d: Callable | None = None
    nitsche: bool = True
    convection: bool = True


@dataclass
class NewtonResult:
    """Converged state plus iteration diagnostics.

    stalled_steps counts line searches that reached the smallest step
    length without decreasing the residual and accepted that step anyway.
    """

    state: StateVector
    iterations: int
    residual_norm: float
    initial_residual: float
    stalled_steps: int


def _factor(a: sp.spmatrix, what: str):
    try:
        return spla.splu(sp.csc_matrix(a))
    except RuntimeError as exc:
        raise SingularSystemError(
            f"{what} factorization failed (n={a.shape[0]}, nnz={a.nnz}): {exc}"
        ) from exc


def _solve(lu, rhs: np.ndarray, what: str) -> np.ndarray:
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"{what} solve produced non-finite values")
    return x


class _PressureSpace:
    """Per-pair divergence data and the factorized pressure normal equations."""

    def __init__(self, pair: DivConformingPair):
        self.b = assemble_divergence(pair)
        self.bt = self.b.T.tocsr()
        self.m = pressure_mean_vector(pair)
        self.normal = pair.normal_boundary_dofs.all
        keep = np.ones(pair.n_u)
        keep[self.normal] = 0.0
        self.b_f = (self.b @ sp.diags(keep)).tocsr()
        self.b_f.eliminate_zeros()
        # B_f^T annihilates exactly the constants (u . n = 0 on the boundary),
        # so pinning p_0 = 0 makes B_f B_f^T nonsingular without a dense border
        self._lu = _factor((self.b_f @ self.b_f.T).tocsc()[1:, 1:], "pressure")

    def _solve(self, rhs_p: np.ndarray) -> np.ndarray:
        """Zero-mean p with B_f B_f^T p = rhs_p, for rhs_p orthogonal to constants."""
        p = np.concatenate([[0.0], _solve(self._lu, rhs_p[1:], "pressure")])
        return p - (self.m @ p) / self.m.sum()

    def pressure(self, r_u: np.ndarray) -> np.ndarray:
        """Zero-mean p closest to B_f^T p = r_f in the least-squares sense."""
        return self._solve(self.b_f @ r_u)

    def solenoidal(self, u: np.ndarray) -> np.ndarray:
        """u minus its smallest free-DOF correction making B u vanish."""
        return u - self.b_f.T @ self._solve(self.b @ u)

    def residual_norm(self, r_u: np.ndarray, u: np.ndarray, p: np.ndarray) -> float:
        """Norm of the saddle residual [(r - B^T p)_f, B u, m . p]."""
        res_u = r_u - self.bt @ p
        res_u[self.normal] = 0.0
        return float(np.linalg.norm(np.concatenate([res_u, self.b @ u, [self.m @ p]])))


_PRESSURE_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def _pressure_space(pair: DivConformingPair) -> _PressureSpace:
    if pair not in _PRESSURE_CACHE:
        _PRESSURE_CACHE[pair] = _PressureSpace(pair)
    return _PRESSURE_CACHE[pair]


class _SpatialOperator:
    """Steady residual and frozen-eta Jacobian over all velocity DOFs."""

    def __init__(self, problem: FlowProblem):
        pair, params = problem.pair, problem.params
        self.pair = pair
        self.params = params
        self.convection = problem.convection
        self.k = assemble_viscous_nitsche(pair, params, nitsche=problem.nitsche)
        self.load = assemble_load(
            pair, params, f=problem.f, u_d=problem.u_d, nitsche=problem.nitsche
        )

    def linearize(self, u: np.ndarray):
        """Momentum residual (without -B^T p) and its Jacobian at u."""
        r = self.k @ u - self.load
        jac = self.k
        if self.convection:
            n1, n2 = assemble_convection(self.pair, u)
            r = r + n1 @ u
            jac = jac + n1 + n2
        if self.params.gamma > 0.0:
            j = assemble_skeleton(self.pair, u, self.params)
            r = r + j @ u
            jac = jac + j
        return r, jac


class _StageOperator:
    """Generalized-alpha stage residual/Jacobian as a function of u_{n+1}."""

    def __init__(self, spatial, mass, u_n, udot_n, cfg: TimeConfig):
        self.pair = spatial.pair
        self.spatial = spatial
        self.mass = mass
        self.u_n = u_n
        self.alpha_f = cfg.alpha_f
        self.c_mass = cfg.alpha_m / (cfg.gamma_t * cfg.dt)
        # M udot_am = c_mass M u_new + M [ (1 - alpha_m/gamma_t) udot_n - c_mass u_n ]
        self.hist = mass @ ((1.0 - cfg.alpha_m / cfg.gamma_t) * udot_n - self.c_mass * u_n)

    def linearize(self, u_new: np.ndarray):
        u_af = self.u_n + self.alpha_f * (u_new - self.u_n)
        r_sp, jac_sp = self.spatial.linearize(u_af)
        r = self.c_mass * (self.mass @ u_new) + self.hist + r_sp
        jac = self.c_mass * self.mass + self.alpha_f * jac_sp
        return r, jac


def _newton(op, u0, p0, config: NewtonConfig, context: str) -> NewtonResult:
    curl = op.pair.curl
    ps = _pressure_space(op.pair)
    u, p = ps.solenoidal(u0), p0.copy()
    r_u, jac = op.linearize(u)
    norm = ps.residual_norm(r_u, u, p)
    norm0 = norm
    stalled = 0
    for it in range(config.max_iter + 1):
        if norm <= config.abs_tol or norm <= config.rel_tol * norm0:
            return NewtonResult(
                state=StateVector(u=u, p=p),
                iterations=it,
                residual_norm=norm,
                initial_residual=norm0,
                stalled_steps=stalled,
            )
        if it == config.max_iter:
            break
        lu = _factor(curl.T @ jac @ curl, "streamfunction")
        du = curl @ _solve(lu, -(curl.T @ r_u), "streamfunction")
        dp = ps.pressure(r_u + jac @ du) - p
        s = 1.0
        while True:
            u_t = u + s * du
            p_t = p + s * dp
            r_t, jac_t = op.linearize(u_t)
            norm_t = ps.residual_norm(r_t, u_t, p_t)
            decreased = norm_t < norm
            if decreased or s <= config.damping**8:
                stalled += not decreased
                u, p, r_u, jac, norm = u_t, p_t, r_t, jac_t, norm_t
                break
            s *= config.damping
    raise ConvergenceError(
        f"{context}: residual {norm:.3e} (target {config.abs_tol:.1e}) "
        f"after {config.max_iter} iterations, {stalled} of them line-search "
        f"stalls accepting a step that did not decrease the residual"
    )


def newton_steady(
    problem: FlowProblem,
    config: NewtonConfig | None = None,
    initial: StateVector | None = None,
    context: str = "steady solve",
) -> NewtonResult:
    """Damped Newton for the steady problem from a given (or zero) state."""
    config = config or NewtonConfig()
    op = _SpatialOperator(problem)
    state = initial.copy() if initial is not None else zero_state(problem.pair)
    state.u[problem.pair.normal_boundary_dofs.all] = 0.0
    return _newton(op, state.u, state.p, config, context)


def solve_steady(
    problem: FlowProblem, re: float | None = None, config: NewtonConfig | None = None
) -> NewtonResult:
    """Steady solve with Reynolds warm-start continuation.

    re is the Reynolds number matching problem.params.nu; ladder steps below
    re are solved first, each warm-starting the next. re=None solves the
    problem directly.
    """
    config = config or NewtonConfig()
    # per-pair set-up (the pressure factorization), shared by every ladder
    # step, before the first Newton iteration
    _pressure_space(problem.pair)
    if re is None:
        return newton_steady(problem, config)
    ladder = [r for r in config.continuation_re if r < re] + [re]
    nu_target = problem.params.nu
    state = None
    result = None
    for i, re_step in enumerate(ladder):
        prob = replace(problem, params=problem.params.with_nu(nu_target * re / re_step))
        result = newton_steady(
            prob,
            config,
            initial=state,
            context=f"continuation step {i + 1}/{len(ladder)} at Re={re_step:g}",
        )
        state = result.state
    return result


class TimeStepper:
    """Generalized-alpha integrator with steady forcing data.

    initialize() accepts either a callable initial field, which is projected
    onto the discretely divergence-free subspace by the L2 projection onto
    the streamfunction (one LU of C^T M C), or an existing StateVector used
    as given. The consistent initial acceleration C a solves
    C^T M C a = -C^T r at t0, and the initial pressure is recovered from
    M udot + r. Each step runs the streamfunction Newton on the stage
    residual.
    """

    def __init__(self, problem: FlowProblem, cfg: TimeConfig):
        self.problem = problem
        self.cfg = cfg
        self.spatial = _SpatialOperator(problem)
        self.mass = assemble_velocity_mass(problem.pair)
        self.state: StateVector | None = None
        self.udot: np.ndarray | None = None

    def initialize(self, u0, t0: float = 0.0) -> StateVector:
        pair = self.problem.pair
        curl = pair.curl
        lu = _factor(curl.T @ self.mass @ curl, "streamfunction mass")
        if callable(u0):
            rhs = assemble_load(pair, self.problem.params, f=u0, nitsche=False)
            u = curl @ _solve(lu, curl.T @ rhs, "streamfunction mass")
        else:
            u = u0.u.copy()
            u[pair.normal_boundary_dofs.all] = 0.0
        r_u, _ = self.spatial.linearize(u)
        self.udot = curl @ _solve(lu, -(curl.T @ r_u), "streamfunction mass")
        p0 = _pressure_space(pair).pressure(self.mass @ self.udot + r_u)
        self.state = StateVector(u=u, p=p0, time=t0)
        return self.state

    def step(self) -> StateVector:
        if self.state is None:
            raise RuntimeError("call initialize() before stepping")
        cfg = self.cfg
        t_new = self.state.time + cfg.dt
        op = _StageOperator(self.spatial, self.mass, self.state.u, self.udot, cfg)
        # same-order predictor: udot is divergence-free with zero normal
        # trace, so the start state satisfies the constraints exactly
        u_start = self.state.u + cfg.dt * self.udot
        try:
            res = _newton(
                op, u_start, self.state.p, cfg.newton, context=f"time step to t={t_new:g}"
            )
        except ConvergenceError as exc:
            raise ConvergenceError(f"{exc}; consider reducing dt") from exc
        u_new = res.state.u
        g = cfg.gamma_t
        self.udot = (u_new - self.state.u) / (g * cfg.dt) + (1.0 - 1.0 / g) * self.udot
        self.state = StateVector(u=u_new, p=res.state.p, time=t_new)
        return self.state

    def run(self, u0, t0: float = 0.0) -> list[StateVector]:
        """Initialize and advance to t_end; returns all states including t0."""
        history = [self.initialize(u0, t0).copy()]
        for _ in range(self.cfg.n_steps):
            history.append(self.step().copy())
        return history
