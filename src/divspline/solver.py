"""Nonlinear and time-dependent solvers for the stabilized discretization.

The pair is an exact sequence, so a velocity with u . n = 0 on the boundary
is discretely divergence-free exactly when u = C psi, where C is the curl map
from the interior coefficients of a degree-(k, k) streamfunction spline (see
space.curl_matrix). Every linear solve therefore works on psi: a Newton
correction solves

    C^T J C dpsi = -C^T r,   du = C dpsi,

with J the momentum Jacobian and r the momentum residual over all velocity
DOFs. J = K + N1 + N2 + J_h (plus m M in a time step, below), and only
A = C^T J C is formed, as a CSR on the pair's `forms.streamfunction_pattern`
(Evans & Hughes, JCP 241 (2013), on the streamfunction view of
divergence-conforming B-splines). C's component blocks are Kronecker
products of 1-D factors, so a band buffer on the pair's
`forms.jacobian_pattern` is reduced to A's data by 1-D sparse products
(row-wise formation after Calabro, Sangalli & Tani, CMAME 316 (2017)).
Each linearization overwrites the spatial operator's one scratch buffer
with the whole J: nu times K's band buffer, then m M, N1 + N2 and J_h
added into it, and A is its one reduction. No velocity Jacobian is
gathered or multiplied. Residuals are formed without matrices
(forms.convection_residual and forms.skeleton_residual), and so is J du,
the pressure recovery's one product with J, from K and the same two
kernels given the direction du (jacobian_product). Newton builds one
linearization per step, at the current iterate, only once it has decided to
take another step. The square matrix A has no pressure block, no
mean-constraint border and no normal-DOF elimination; the pressure gradient
drops out since B C = 0. Strong normal-trace Dirichlet conditions (u . n =
0 on the box boundary) hold by construction; tangential conditions enter
weakly through the operator.

The pressure is recovered on the pressure space. B = M_p D, with M_p the
pressure mass matrix and D = pair.divergence the exact map from u to div u_h
in Q. With D_f the columns of D at the velocity DOFs free of the normal-trace
condition, the normal equations of B_f^T p = (r + J du)_f read

    D_f D_f^T q = D_f (r + J du)_f,   p = M_p^-1 q + c,   m . p = 0,

m the pressure-integral vector. D_f D_f^T = I (x) A_x + A_y (x) I is a
Kronecker sum of 1-D matrices with kernel M_p 1, so it is solved by fast
diagonalization (Lynch, Rice & Thomas, Numer. Math. 6 (1964); _KroneckerSum)
with that one mode dropped, and M_p^-1 = M_y^-1 (x) M_x^-1 is folded into the
1-D modes; the dropped mode adds a constant to p, which the zero-mean shift
removes. The pair (du, p) equals the solution of the bordered saddle Newton
system

    [ J_ff  -B_f^T  0 ] [du]     [(r - B^T p_old)_f]
    [ B_f    0      m ] [dp] = - [       B u       ]
    [ 0      m^T    0 ] [dl]     [    m . p_old    ]

with p = p_old + dp, and the stopping test and line search use its full
residual [(r - B^T p)_f, B u, m . p]. Corrections C dpsi keep B u fixed, so
Newton first removes the divergent part of its starting velocity with the
same modal solve. The initial L2 projection of a time stepper solves
C^T M C = K_y (x) M_x + M_y (x) K_x the same way (_streamfunction_mass), so
the streamfunction matrix A is the only matrix a run factorizes.

That factorization goes through this module's spla.splu in SuperLU's
symmetric mode: the MMD_AT_PLUS_A column ordering (minimum degree on
A^T + A) and diagonal pivots unless one is below _PIVOT_THRESHOLD of its
column's largest entry. A is structurally symmetric, so the ordering
applies to rows and columns alike and partial pivoting does not undo it; at
Re=7500 on the 16x16 cavity this roughly halves the fill of the
streamfunction LU. The pressure modes are computed once per pair.

The streamfunction matrix drifts slowly between Newton iterations and time
steps, so its LU is lagged (Knoll & Keyes, JCP 193 (2004), on lagged
preconditioners). Each spatial operator holds the last streamfunction LU; a
TimeStepper shares it across all its steps and each newton_steady call has
its own (on solve_steady's ladder the next step's predictor uses it last).
A Newton correction first runs one cycle of at most _KRYLOV_LIMIT GMRES
iterations (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7 (1986); _gmres)
on A dpsi = -C^T r, right-preconditioned by the held LU, and keeps an
iterate only if its residual and its estimated error are within
_KRYLOV_RTOL; otherwise (and when no LU is held yet) the current matrix is
factorized and its LU replaces the held one. The corrections therefore
match direct solves to that tolerance.

The steady problem is solved by damped Newton with optional
predictor-corrector Reynolds continuation (Allgower & Georg, Introduction to
Numerical Continuation Methods, SIAM (2003)). K, the Nitsche load and the
load of FlowProblem.f_nu are linear in nu and f does not depend on it, so
the spatial operator assembles them once at nu = 1 and every ladder step
scales the same arrays by its own nu. The same arrays give dr/dnu = K_unit
u - g_unit (g_unit the nu-linear load at nu = 1; the penalty's
nu-dependence through min(Re_h, 1) is left out), and each ladder step
after the first starts from the Euler tangent predictor

    u + (nu_next - nu) C dpsi,   C^T J C dpsi = -C^T dr/dnu,

with J the (lagged) Jacobian whose LU the previous step's Newton solve
holds: one back-substitution, no new Jacobian and no new factorization.
That LU is then released, so one streamfunction LU is alive at a time. The
steps below the target Re only seed the next one, so each stops once its
saddle residual is sqrt(rel_tol) of its initial value (or abs_tol); the step
at the target Re meets the full tolerances.

The unsteady problem uses the generalized-alpha method in its
first-order-system form, parameterized by the spectral radius rho_inf:

    alpha_m = (3 - rho_inf) / (2 (1 + rho_inf)),  alpha_f = 1 / (1 + rho_inf),
    gamma_t = 1/2 + alpha_m - alpha_f,

with the stage residual evaluated at (t_{n+alpha_m}, t_{n+alpha_f}) and
the reported pressure being the alpha_f-stage pressure. Newton solves for
the alpha_f state w = u_n + alpha_f (u_{n+1} - u_n) (Jansen, Whiting &
Hulbert, CMAME 190 (2000)), whose stage residual is the spatial one plus a
mass term and a constant,

    r_sp(w) + m M w + s,  m = alpha_m / (gamma_t dt alpha_f),
    s = M [(1 - alpha_m / gamma_t) udot_n - m u_n],

with Jacobian m M + J_sp(w); then u_{n+1} = u_n + (w - u_n) / alpha_f. The
skeleton penalty density eta is evaluated at the current iterate and frozen
during each linearization; the jump arguments are linearized exactly.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import (
    StabParams,
    add_velocity_mass,
    assemble_convection,
    assemble_divergence,
    assemble_load,
    assemble_skeleton,
    assemble_velocity_mass,
    assemble_viscous_nitsche,
    convection_residual,
    jacobian_pattern,
    skeleton_residual,
    streamfunction_pattern,
)
from .space import (
    DivConformingPair,
    StateVector,
    curl_factors,
    per_pair,
    pressure_mean_vector,
    zero_state,
)

__all__ = [
    "NewtonConfig",
    "TimeConfig",
    "FlowProblem",
    "NewtonResult",
    "LadderStep",
    "SingularSystemError",
    "ConvergenceError",
    "newton_steady",
    "solve_steady",
    "TimeStepper",
]


# the line search's step-length factor, down to DAMPING**8
DAMPING = 0.5


class SingularSystemError(RuntimeError):
    """Sparse factorization failed or produced a non-finite solution."""


class ConvergenceError(RuntimeError):
    """Newton iteration failed to reach the requested tolerance."""


@dataclass(frozen=True)
class NewtonConfig:
    """Tolerances and continuation ladder for the nonlinear solves.

    A Newton solve stops once its saddle residual is at most abs_tol or
    rel_tol times its initial value; the line search multiplies the step
    length by DAMPING, down to DAMPING^8. solve_steady passes through the
    continuation_re values below its target Re, and those steps stop at
    sqrt(rel_tol) of their initial residual (or abs_tol) instead.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_iter: int = 50
    continuation_re: tuple = (100.0, 400.0, 1000.0, 2500.0, 5000.0, 7500.0, 10000.0)

    def __post_init__(self):
        if min(self.abs_tol, self.rel_tol) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class TimeConfig:
    """Generalized-alpha step size, horizon, and spectral radius."""

    dt: float
    t_end: float
    rho_inf: float = 0.5

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        steps = self.t_end / self.dt
        if not (
            math.isfinite(steps)
            and round(steps) >= 1
            and abs(steps - round(steps)) <= 1e-9 * steps
        ):
            raise ValueError(
                "t_end must be a positive whole number of dt steps; "
                f"got t_end/dt = {steps:g}"
            )
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

    f, f_nu and u_d are callables mapping coordinate arrays (x, y) to
    component pairs: the body force is f + nu f_nu, and u_d supplies the
    tangential Dirichlet data imposed weakly when nitsche is set.
    nitsche=False leaves the tangential traction free (free-slip walls with
    the normal trace fixed strongly).
    """

    pair: DivConformingPair
    params: StabParams
    f: Callable | None = None
    u_d: Callable | None = None
    nitsche: bool = True
    convection: bool = True
    f_nu: Callable | None = None


class LadderStep(NamedTuple):
    """What one Newton solve of solve_steady's Reynolds ladder did.

    re is None for a solve_steady call without continuation.
    """

    re: float | None
    iterations: int
    factorizations: int
    krylov_iterations: int
    initial_residual: float
    residual_norm: float


@dataclass
class NewtonResult:
    """Converged state plus iteration diagnostics.

    stalled_steps counts line searches that reached the smallest step
    length without decreasing the residual and accepted that step anyway.
    The counts describe this solve alone; solve_steady returns the result
    of its last ladder step, with ladder holding one LadderStep per step
    (empty for a newton_steady result).
    """

    state: StateVector
    iterations: int
    residual_norm: float
    initial_residual: float
    stalled_steps: int
    factorizations: int
    krylov_iterations: int
    ladder: tuple[LadderStep, ...] = ()


# SuperLU keeps the diagonal pivot of a column unless it is smaller than
# this fraction of the column's largest entry, so the symmetric MMD ordering
# survives pivoting on these structurally symmetric matrices
_PIVOT_THRESHOLD = 0.1


def _factor(a: sp.spmatrix, what: str):
    try:
        return spla.splu(
            sp.csc_matrix(a),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=_PIVOT_THRESHOLD,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise SingularSystemError(
            f"{what} factorization failed (n={a.shape[0]}, nnz={a.nnz}): {exc}"
        ) from exc


def _solve(lu, rhs: np.ndarray, what: str) -> np.ndarray:
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(f"{what} solve produced non-finite values")
    return x


# GMRES iterations (one restart cycle) tried on the held streamfunction LU
# before refactorizing; 0 refactorizes at every Newton iteration
_KRYLOV_LIMIT = 10
# bound on ||rhs - A x|| / ||rhs|| and on the estimated relative error
# ||lu^-1 (rhs - A x)|| / ||x|| for keeping a Krylov solution
_KRYLOV_RTOL = 1e-12


def _gmres(a: sp.spmatrix, lu, rhs: np.ndarray):
    """x solving a x = rhs to _KRYLOV_RTOL, or None; and the iterations run.

    One cycle of at most _KRYLOV_LIMIT GMRES iterations from x = 0, with lu
    applied on the right: iteration j minimizes ||rhs - a lu^-1 y|| over the
    Krylov space and x = lu^-1 y, so the Givens estimate of the residual is
    ||rhs - a x|| itself. Once it is at most _KRYLOV_RTOL ||rhs||, x is kept
    if it is finite, its explicit residual meets that bound and so does the
    correction lu^-1 (rhs - a x) relative to x, which estimates its error
    (a small residual alone allows a large error when a is ill-conditioned).
    """
    beta = math.sqrt(rhs @ rhs)
    if beta == 0.0:
        return np.zeros_like(rhs), 0
    tol = _KRYLOV_RTOL * beta
    basis = np.empty((_KRYLOV_LIMIT + 1, rhs.size))
    basis[0] = rhs / beta
    # upper triangle of the Hessenberg matrix after the Givens rotations,
    # the rotations, and the rotated right-hand side beta e_1
    tri = np.zeros((_KRYLOV_LIMIT, _KRYLOV_LIMIT))
    rotations = []
    g = [beta]
    for j in range(_KRYLOV_LIMIT):
        w = a @ lu.solve(basis[j])
        # classical Gram-Schmidt, twice, keeps the basis orthogonal to roundoff
        col = np.zeros(j + 1)
        for _ in range(2):
            proj = basis[: j + 1] @ w
            w -= basis[: j + 1].T @ proj
            col += proj
        col = col.tolist()
        w_norm = math.sqrt(w @ w)
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        diag = math.hypot(col[j], w_norm)
        if diag == 0.0:  # singular a lu^-1
            break
        c, s = col[j] / diag, w_norm / diag
        rotations.append((c, s))
        col[j] = diag
        tri[: j + 1, j] = col
        g[j], g_next = c * g[j], -s * g[j]
        g.append(g_next)
        if abs(g_next) <= tol:
            y = np.zeros(j + 1)  # back-substitution in the triangle
            for i in reversed(range(j + 1)):
                y[i] = (g[i] - tri[i, i + 1 : j + 1] @ y[i + 1 :]) / tri[i, i]
            x = lu.solve(basis[: j + 1].T @ y)
            r = rhs - a @ x
            if (
                np.all(np.isfinite(x))
                and np.linalg.norm(r) <= tol
                and np.linalg.norm(lu.solve(r)) <= _KRYLOV_RTOL * np.linalg.norm(x)
            ):
                return x, j + 1
        if w_norm == 0.0:  # the Krylov space is exhausted
            break
        basis[j + 1] = w / w_norm
    return None, j + 1


class _LaggedLU:
    """The last streamfunction LU, reused as a GMRES preconditioner.

    factorizations and krylov_iterations count the work of every solve.
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0
        self.krylov_iterations = 0

    def solve(self, a: sp.spmatrix, rhs: np.ndarray) -> np.ndarray:
        """x with a x = rhs: GMRES on the held LU, else a new LU of a."""
        if self.lu is not None and _KRYLOV_LIMIT > 0:
            x, iterations = _gmres(a, self.lu, rhs)
            self.krylov_iterations += iterations
            if x is not None:
                return x
        self.lu = None  # freed first, so that two LUs are never held at once
        self.lu = _factor(a, "streamfunction")
        self.factorizations += 1
        return _solve(self.lu, rhs, "streamfunction")


def _modes(a: np.ndarray, b: np.ndarray | None = None):
    """(lam, V) with a V = b V diag(lam), V^T b V = I, lam ascending; b = None
    is the identity.

    numpy's LAPACK, through the Cholesky factor b = L L^T: scipy.linalg.eigh
    pages in LAPACK code of its own, which alone raised the peak RSS of a
    16x16 cavity run by about 0.7 MB.
    """
    if b is None:
        return np.linalg.eigh(a)
    l_inv = np.linalg.inv(np.linalg.cholesky(b))
    lam, w = np.linalg.eigh(l_inv @ a @ l_inv.T)
    return lam, l_inv.T @ w


class _KroneckerSum:
    """Solver of (A_y (x) B_x + B_y (x) A_x) x = r by fast diagonalization.

    Lynch, Rice & Thomas, Numer. Math. 6 (1964): with the 1-D generalized
    eigendecompositions A V = B V diag(lam), V^T B V = I, of each direction
    (B = None is the identity), and x, r as grids (y rows, x columns),

        x = V_y [(V_y^T r V_x) / (lam_y (+) lam_x)] V_x^T.

    singular marks a sum with the one zero eigenvalue lam_y[0] + lam_x[0]
    (each A positive semidefinite with a one-dimensional kernel), whose mode
    is dropped: the least-squares solution for r orthogonal to the kernel.
    """

    def __init__(self, a_y, a_x, b_y=None, b_x=None, singular: bool = False):
        lam_y, self.v_y = _modes(a_y, b_y)
        lam_x, self.v_x = _modes(a_x, b_x)
        total = lam_y[:, None] + lam_x[None, :]
        if singular:
            total[0, 0] = np.inf
        self._inverse = 1.0 / total

    def solve(self, rhs: np.ndarray, left=None, right=None) -> np.ndarray:
        """x for the flat right-hand side rhs, flat; left and right replace
        V_y and V_x in the back-transformation."""
        grid = rhs.reshape(len(self.v_y), len(self.v_x))
        modal = (self.v_y.T @ grid @ self.v_x) * self._inverse
        left = self.v_y if left is None else left
        right = self.v_x if right is None else right
        return (left @ modal @ right.T).ravel()


class _PressureSpace:
    """Per-pair divergence data and the pressure equations in 1-D modes.

    Zeroing the normal-trace columns of D = [I (x) D_x, D_y (x) I] gives
    D_f D_f^T = I (x) A_x + A_y (x) I, A_x = D_x' D_x'^T with D_x' = D_x
    without its two end columns, and A_y likewise: tridiagonal, each with
    one zero eigenvalue (D_y' = Y_0 and D_x' = -X_1 of `curl_factors`). The
    kernel M_p 1 of D_f D_f^T is dropped, and p = M_p^-1 q with M_p =
    M_y (x) M_x is folded into the modes.
    """

    def __init__(self, pair: DivConformingPair):
        self.b = assemble_divergence(pair)
        self.m = pressure_mean_vector(pair)
        self.normal = pair.normal_boundary_dofs.all
        self.d = pair.divergence
        keep = np.ones(pair.n_u)
        keep[self.normal] = 0.0
        self.d_f = self.d @ sp.diags(keep)
        (d_y, _), (_, minus_d_x) = curl_factors(pair)
        d_x = -minus_d_x
        self._modes = _KroneckerSum(d_y @ d_y.T, d_x @ d_x.T, singular=True)
        self._to_pressure = (
            np.linalg.solve(pair.q.kv_y.mass, self._modes.v_y),
            np.linalg.solve(pair.q.kv_x.mass, self._modes.v_x),
        )

    def pressure(self, r_u: np.ndarray) -> np.ndarray:
        """Zero-mean p closest to B_f^T p = r_f in the least-squares sense."""
        p = self._modes.solve(self.d_f @ r_u, *self._to_pressure)
        return p - (self.m @ p) / self.m.sum()

    def solenoidal(self, u: np.ndarray) -> np.ndarray:
        """u minus its smallest free-DOF correction making D u vanish."""
        return u - self.d_f.T @ self._modes.solve(self.d @ u)

    def residual_norm(self, r_u: np.ndarray, u: np.ndarray, p: np.ndarray) -> float:
        """Norm of the saddle residual [(r - B^T p)_f, B u, m . p]."""
        res_u = r_u - self.b.T @ p
        res_u[self.normal] = 0.0
        return float(np.linalg.norm(np.concatenate([res_u, self.b @ u, [self.m @ p]])))


_pressure_space = per_pair(_PressureSpace)


def _streamfunction_mass(pair: DivConformingPair) -> _KroneckerSum:
    """C^T M C on the interior streamfunction coefficients, as a Kronecker sum.

    u = C psi = (d psi/dy, -d psi/dx) and both velocity masses are tensor
    products of 1-D masses, so with C_c = Y_c (x) X_c (`curl_factors`)
    C_c^T kron(M_y, M_x) C_c = (Y_c^T M_y Y_c) (x) (X_c^T M_x X_c) and
    C^T M C = K_y (x) M_x + M_y (x) K_x: M_x is the mass of psi's x knot
    vector (that of vx) without its two end functions, K_x = D_x'^T
    M(vy.kv_x) D_x' with D_x' the derivative matrix of psi's x knot vector
    without its two end columns, and K_y, M_y likewise in y.
    """
    (y_0, x_0), (y_1, x_1) = curl_factors(pair)
    vx, vy = pair.velocity_spaces
    k_y, m_x = y_0.T @ vx.kv_y.mass @ y_0, x_0.T @ vx.kv_x.mass @ x_0
    m_y, k_x = y_1.T @ vy.kv_y.mass @ y_1, x_1.T @ vy.kv_x.mass @ x_1
    return _KroneckerSum(k_y, k_x, m_y, m_x)


class _SpatialOperator:
    """Residual weight M u + nu K u + N1(u) u + J_h(u) u - load, its
    frozen-eta linearization and J v over all velocity DOFs.

    weight is 0 but in the generalized-alpha stage operators of `stage`.
    residual(u) and jacobian_product(u, v) assemble no matrix. K and the
    loads of the Nitsche data and of f_nu are linear in nu, and f does not
    depend on it, so they are assembled once at nu = 1 (k_unit, nu_load,
    body) and scaled by params.nu; at_nu gives the operator at another
    viscosity on the same arrays. k_band is K_unit in a read-only band
    buffer of the pair's `jacobian_pattern`; k_unit is its gather without
    zeros. scratch, the band buffer each linearization overwrites, is shared
    with the operators at_nu and stage build from this one. lagged holds
    the last streamfunction LU of the Newton solves on this operator and on
    its stages.
    """

    def __init__(self, problem: FlowProblem):
        pair, unit = problem.pair, problem.params.with_nu(1.0)
        self.pair, self.weight = pair, 0.0
        self.convection = problem.convection
        self.psi = streamfunction_pattern(pair)
        pattern = jacobian_pattern(pair)
        self.k_band = pattern.buffer()
        assemble_viscous_nitsche(pair, unit, nitsche=problem.nitsche, out=self.k_band)
        self.k_band.flags.writeable = False
        # indices of its own, so that its zeros can be removed
        self.k_unit = pattern.csr(pattern.gather(self.k_band)).copy()
        self.k_unit.eliminate_zeros()
        self.scratch = pattern.buffer()
        self.body = assemble_load(pair, unit, f=problem.f, nitsche=False)
        self.nu_load = assemble_load(
            pair, unit, f=problem.f_nu, u_d=problem.u_d, nitsche=problem.nitsche
        )
        self._set_params(problem.params)

    def _set_params(self, params: StabParams):
        self.params = params
        self.load = self.body + params.nu * self.nu_load
        self.lagged = _LaggedLU()

    def at_nu(self, nu: float) -> "_SpatialOperator":
        """This operator at viscosity nu, with its own lagged LU."""
        op = copy.copy(self)
        op._set_params(self.params.with_nu(nu))
        return op

    def stage(self, weight: float, shift: np.ndarray) -> "_SpatialOperator":
        """This operator with weight M u added and load - shift, sharing its
        lagged LU: a generalized-alpha stage in the alpha_f state."""
        op = copy.copy(self)
        op.weight, op.load = weight, self.load - shift
        op.mass = assemble_velocity_mass(self.pair)
        return op

    def residual(self, u: np.ndarray) -> np.ndarray:
        """Momentum residual (without -B^T p) at u, assembling no matrix."""
        r = self.params.nu * (self.k_unit @ u) - self.load
        if self.weight:
            r += self.weight * (self.mass @ u)
        if self.convection:
            r += convection_residual(self.pair, u)
        if self.params.gamma > 0.0:
            r += skeleton_residual(self.pair, u, self.params)
        return r

    def linearize(self, u: np.ndarray) -> sp.csr_matrix:
        """A = C^T (weight M + nu K + N1 + N2 + J) C at u, frozen eta.

        scratch is overwritten with nu k_band and takes weight M
        (`add_velocity_mass`), N2 with its diagonal blocks doubled and N1's
        other terms (`assemble_convection`), then J (`assemble_skeleton`);
        A is reduced from it (`StreamfunctionPattern.reduce`)."""
        flat = np.multiply(self.k_band, self.params.nu, out=self.scratch)
        if self.weight:
            add_velocity_mass(self.pair, self.weight, out=flat)
        if self.convection:
            assemble_convection(self.pair, u, out=flat)
        if self.params.gamma > 0.0:
            assemble_skeleton(self.pair, u, self.params, out=flat)
        return self.psi.csr(self.psi.reduce(flat))

    def jacobian_product(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """J v for linearize's J at u, eta frozen, from the residual kernels."""
        jv = self.params.nu * (self.k_unit @ v)
        if self.weight:
            jv += self.weight * (self.mass @ v)
        if self.convection:
            jv += convection_residual(self.pair, u, v)
        if self.params.gamma > 0.0:
            jv += skeleton_residual(self.pair, u, self.params, v)
        return jv

    def nu_derivative(self, u: np.ndarray) -> np.ndarray:
        """d residual / d nu at u from the terms linear in nu, K_unit u -
        nu_load; the penalty's nu-dependence through min(Re_h, 1) is left out."""
        return self.k_unit @ u - self.nu_load


def _newton(op, u0, p0, config: NewtonConfig, context: str) -> NewtonResult:
    """Damped Newton from (u0, p0), reusing the streamfunction LU op.lagged holds."""
    lagged = op.lagged
    factorizations0, krylov0 = lagged.factorizations, lagged.krylov_iterations
    curl, curl_t = op.pair.curl, op.pair.curl_transpose
    ps = _pressure_space(op.pair)
    u, p = ps.solenoidal(u0), p0.copy()
    r_u = op.residual(u)
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
                factorizations=lagged.factorizations - factorizations0,
                krylov_iterations=lagged.krylov_iterations - krylov0,
            )
        if it == config.max_iter:
            break
        du = curl @ lagged.solve(op.linearize(u), -(curl_t @ r_u))
        dp = ps.pressure(r_u + op.jacobian_product(u, du)) - p
        s = 1.0
        while True:
            u_t = u + s * du
            p_t = p + s * dp
            r_t = op.residual(u_t)
            norm_t = ps.residual_norm(r_t, u_t, p_t)
            decreased = norm_t < norm
            if decreased or s <= DAMPING**8:
                stalled += not decreased
                u, p, r_u, norm = u_t, p_t, r_t, norm_t
                break
            s *= DAMPING
    raise ConvergenceError(
        f"{context}: residual {norm:.3e} (target {config.abs_tol:.1e}) "
        f"after {config.max_iter} iterations, {stalled} of them line-search "
        f"stalls accepting a step that did not decrease the residual; "
        f"{lagged.factorizations - factorizations0} streamfunction factorizations, "
        f"{lagged.krylov_iterations - krylov0} Krylov iterations"
    )


def newton_steady(
    problem: FlowProblem,
    config: NewtonConfig | None = None,
    initial: StateVector | None = None,
    context: str = "steady solve",
    operator: _SpatialOperator | None = None,
) -> NewtonResult:
    """Damped Newton for the steady problem from a given (or zero) state.

    operator is problem's spatial operator when the caller already holds one
    (solve_steady's ladder steps share their nu-free parts); by default it is
    assembled here.
    """
    config = config or NewtonConfig()
    op = _SpatialOperator(problem) if operator is None else operator
    state = initial.copy() if initial is not None else zero_state(problem.pair)
    state.u[problem.pair.normal_boundary_dofs.all] = 0.0
    return _newton(op, state.u, state.p, config, context)


def _tangent_predictor(op: _SpatialOperator, state: StateVector, nu: float) -> StateVector:
    """Euler tangent step from op's solution state to viscosity nu.

    du/dnu = C dpsi with C^T J C dpsi = -C^T dr/dnu, solved by one
    back-substitution on the streamfunction LU that op's Newton solve holds
    (of a Jacobian from that solve: no new Jacobian, no new factorization).
    The LU is released here, before the next step factorizes its own. A
    solve that held no LU (it took no Newton step) predicts no change.
    """
    lu, op.lagged.lu = op.lagged.lu, None
    if lu is None:
        return state
    dpsi = _solve(lu, -(op.pair.curl_transpose @ op.nu_derivative(state.u)), "streamfunction")
    return StateVector(u=state.u + (nu - op.params.nu) * (op.pair.curl @ dpsi), p=state.p)


def _ladder_step(re: float | None, result: NewtonResult) -> LadderStep:
    return LadderStep(
        re=re,
        iterations=result.iterations,
        factorizations=result.factorizations,
        krylov_iterations=result.krylov_iterations,
        initial_residual=result.initial_residual,
        residual_norm=result.residual_norm,
    )


def solve_steady(
    problem: FlowProblem, re: float | None = None, config: NewtonConfig | None = None
) -> NewtonResult:
    """Steady solve with predictor-corrector Reynolds continuation.

    re is the Reynolds number matching problem.params.nu; the ladder steps
    of config.continuation_re below re are solved first. Each step after the
    first starts from the tangent predictor of the previous solution, and
    each step below re stops at sqrt(rel_tol) of its initial residual (or
    abs_tol); the step at re meets the full tolerances. re=None solves the
    problem directly. The result is the last step's, with one LadderStep
    per step in its ladder.
    """
    config = config or NewtonConfig()
    # per-pair set-up (the pressure modes), shared by every ladder step,
    # before the first Newton iteration
    _pressure_space(problem.pair)
    if re is None:
        result = newton_steady(problem, config)
        return replace(result, ladder=(_ladder_step(None, result),))
    ladder = [r for r in config.continuation_re if r < re] + [re]
    nu_target = problem.params.nu
    target = _SpatialOperator(problem)
    loose = replace(config, rel_tol=math.sqrt(config.rel_tol))
    state = prev = None
    steps = []
    for i, re_step in enumerate(ladder):
        op = target.at_nu(nu_target * re / re_step)
        if prev is not None:
            state = _tangent_predictor(prev, state, op.params.nu)
        result = newton_steady(
            replace(problem, params=op.params),
            config if i == len(ladder) - 1 else loose,
            initial=state,
            context=f"continuation step {i + 1}/{len(ladder)} at Re={re_step:g}",
            operator=op,
        )
        steps.append(_ladder_step(re_step, result))
        state, prev = result.state, op
    return replace(result, ladder=tuple(steps))


class TimeStepper:
    """Generalized-alpha integrator with steady forcing data.

    initialize() accepts either a callable initial field, which is projected
    onto the discretely divergence-free subspace by the L2 projection onto
    the streamfunction (C^T M C solved in 1-D modes, _streamfunction_mass),
    or an existing StateVector used as given. The consistent initial
    acceleration C a solves C^T M C a = -C^T r at t0, and the initial
    pressure is recovered from M udot + r. Each step runs the streamfunction
    Newton for the alpha_f state on the spatial operator's `stage`, which
    shares its lagged LU with every step. newton_iterations has one entry
    per step taken.
    """

    def __init__(self, problem: FlowProblem, cfg: TimeConfig):
        self.problem = problem
        self.cfg = cfg
        self.spatial = _SpatialOperator(problem)
        self.mass = assemble_velocity_mass(problem.pair)
        self.state: StateVector | None = None
        self.udot: np.ndarray | None = None
        self.newton_iterations: list[int] = []

    def initialize(self, u0, t0: float = 0.0) -> StateVector:
        pair = self.problem.pair
        curl, curl_t = pair.curl, pair.curl_transpose
        projection = _streamfunction_mass(pair)
        if callable(u0):
            rhs = assemble_load(pair, self.problem.params, f=u0, nitsche=False)
            u = curl @ projection.solve(curl_t @ rhs)
        else:
            u = u0.u.copy()
            u[pair.normal_boundary_dofs.all] = 0.0
        r_u = self.spatial.residual(u)
        self.udot = curl @ projection.solve(-(curl_t @ r_u))
        p0 = _pressure_space(pair).pressure(self.mass @ self.udot + r_u)
        self.state = StateVector(u=u, p=p0, time=t0)
        return self.state

    def step(self) -> StateVector:
        if self.state is None:
            raise RuntimeError("call initialize() before stepping")
        cfg, u_n = self.cfg, self.state.u
        t_new = self.state.time + cfg.dt
        weight = cfg.alpha_m / (cfg.gamma_t * cfg.dt * cfg.alpha_f)
        shift = self.mass @ ((1.0 - cfg.alpha_m / cfg.gamma_t) * self.udot - weight * u_n)
        # the alpha_f state of the same-order predictor u_n + dt udot: udot is
        # divergence-free with zero normal trace, so it meets the constraints
        w_start = u_n + cfg.alpha_f * cfg.dt * self.udot
        try:
            res = _newton(
                self.spatial.stage(weight, shift), w_start, self.state.p, NewtonConfig(),
                context=f"time step to t={t_new:g}",
            )
        except ConvergenceError as exc:
            raise ConvergenceError(f"{exc}; consider reducing dt") from exc
        u_new = u_n + (res.state.u - u_n) / cfg.alpha_f
        self.udot = (u_new - u_n) / (cfg.gamma_t * cfg.dt) + (1.0 - 1.0 / cfg.gamma_t) * self.udot
        self.newton_iterations.append(res.iterations)
        self.state = StateVector(u=u_new, p=res.state.p, time=t_new)
        return self.state

    def run(self, u0, t0: float = 0.0) -> list[StateVector]:
        """Initialize and advance to t_end; returns all states including t0."""
        history = [self.initialize(u0, t0).copy()]
        for _ in range(self.cfg.n_steps):
            history.append(self.step().copy())
        return history
