"""2D divergence-conforming B-spline velocity-pressure pairs.

With primal degree k and maximal interior regularity alpha = k - 1, the pair
is built from the mixed-degree tensor spaces

    Vx: degrees (k, k-1),  Vy: degrees (k-1, k),  Q: degrees (k-1, k-1),

so that d/dx Vx and d/dy Vy both land exactly in Q: discrete velocities are
pointwise divergence-free once the divergence constraint is imposed. The
reported polynomial order of the pair is k' = k - 1 and the reduced
regularity alpha' = alpha - 1 = k' - 1.

Velocity coefficients are stored as one vector [Vx block; Vy block], each
block in lexicographic order dof = iy * n_x + ix (x fastest).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from weakref import WeakKeyDictionary

import numpy as np
import scipy.sparse as sp

from .bspline import (
    KnotVector,
    basis_integrals,
    collocation_matrix,
    derivative_matrix,
    eval_nonzero_basis,
    open_knots,
)
from .mesh import CartesianMesh, Facet, gauss_rule

__all__ = [
    "TensorSpace",
    "DivConformingPair",
    "StateVector",
    "NormalBoundaryDofs",
    "build_pair",
    "eval_velocity",
    "facet_normal_derivative_jump",
    "classify_boundary_dofs",
    "curl_matrix",
    "interpolate_field",
    "divergence_coefficients",
    "ElementTables",
    "element_basis_1d",
    "quad_points_1d",
    "mass_matrix_1d",
]


@dataclass(frozen=True, eq=False)
class TensorSpace:
    """Scalar tensor-product spline space; dof = iy * n_x + ix."""

    kv_x: KnotVector
    kv_y: KnotVector

    @property
    def n_x(self) -> int:
        return self.kv_x.n_basis

    @property
    def n_y(self) -> int:
        return self.kv_y.n_basis

    @property
    def n_dofs(self) -> int:
        return self.n_x * self.n_y

    @property
    def degrees(self) -> tuple[int, int]:
        return self.kv_x.degree, self.kv_y.degree

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """View a flat coefficient vector as (n_y, n_x)."""
        return np.asarray(coeffs).reshape(self.n_y, self.n_x)


@dataclass(frozen=True, eq=False)
class NormalBoundaryDofs:
    """Global velocity DOF indices carrying the normal trace on each edge."""

    left: np.ndarray
    right: np.ndarray
    bottom: np.ndarray
    top: np.ndarray

    @cached_property
    def all(self) -> np.ndarray:
        return np.unique(np.concatenate([self.left, self.right, self.bottom, self.top]))


@dataclass(frozen=True, eq=False)
class DivConformingPair:
    """Velocity pair (Vx, Vy) and pressure space Q over one Cartesian mesh."""

    mesh: CartesianMesh
    vx: TensorSpace
    vy: TensorSpace
    q: TensorSpace
    k_prime: int
    alpha_prime: int

    @property
    def n_u(self) -> int:
        return self.vx.n_dofs + self.vy.n_dofs

    @property
    def n_p(self) -> int:
        return self.q.n_dofs

    @property
    def velocity_spaces(self) -> tuple[TensorSpace, TensorSpace]:
        return self.vx, self.vy

    def component_coeffs(self, u: np.ndarray, comp: int) -> np.ndarray:
        """Coefficient grid (n_y, n_x) of one velocity component."""
        space = self.velocity_spaces[comp]
        off = 0 if comp == 0 else self.vx.n_dofs
        return space.to_grid(u[off : off + space.n_dofs])

    def component_offset(self, comp: int) -> int:
        return 0 if comp == 0 else self.vx.n_dofs

    @cached_property
    def normal_boundary_dofs(self) -> NormalBoundaryDofs:
        return classify_boundary_dofs(self)

    @cached_property
    def curl(self) -> sp.csr_matrix:
        return curl_matrix(self)


@dataclass
class StateVector:
    """Velocity/pressure coefficients at one time instant."""

    u: np.ndarray
    p: np.ndarray
    time: float = 0.0

    def copy(self) -> "StateVector":
        return StateVector(self.u.copy(), self.p.copy(), self.time)


def zero_state(pair: DivConformingPair, time: float = 0.0) -> StateVector:
    return StateVector(np.zeros(pair.n_u), np.zeros(pair.n_p), time)


def build_pair(mesh: CartesianMesh, k_prime: int) -> DivConformingPair:
    """Divergence-conforming pair of order k' with maximal smoothness.

    Requires k' >= 1 so that the reduced regularity alpha' = k' - 1 is
    nonnegative; every component space then has interior multiplicity one.
    """
    alpha_prime = k_prime - 1
    if alpha_prime < 0:
        raise ValueError(f"k_prime must be >= 1 (alpha' >= 0), got {k_prime}")
    k = k_prime + 1
    bx, by = mesh.unique_knots_x, mesh.unique_knots_y
    kx_hi, kx_lo = open_knots(k, bx), open_knots(k - 1, bx)
    ky_hi, ky_lo = open_knots(k, by), open_knots(k - 1, by)
    return DivConformingPair(
        mesh=mesh,
        vx=TensorSpace(kv_x=kx_hi, kv_y=ky_lo),
        vy=TensorSpace(kv_x=kx_lo, kv_y=ky_hi),
        q=TensorSpace(kv_x=kx_lo, kv_y=ky_lo),
        k_prime=k_prime,
        alpha_prime=alpha_prime,
    )


@dataclass(frozen=True)
class VelocityDerivatives:
    """All partial derivatives D[a, b, c] = d^a/dx^a d^b/dy^b u_c at a point."""

    derivs: np.ndarray

    @property
    def value(self) -> np.ndarray:
        return self.derivs[0, 0]

    @property
    def gradient(self) -> np.ndarray:
        """grad[i, j] = d u_j / d x_i."""
        return np.array([self.derivs[1, 0], self.derivs[0, 1]])

    @property
    def divergence(self) -> float:
        return float(self.derivs[1, 0, 0] + self.derivs[0, 1, 1])


def eval_velocity(
    pair: DivConformingPair, state: StateVector, x: np.ndarray, deriv_order: int = 1
) -> VelocityDerivatives:
    """Evaluate u_h and its partial derivatives up to deriv_order at a point."""
    x1, x2 = float(x[0]), float(x[1])
    out = np.zeros((deriv_order + 1, deriv_order + 1, 2))
    for comp, space in enumerate(pair.velocity_spaces):
        bx = eval_nonzero_basis(space.kv_x, x1, max_deriv=deriv_order)
        by = eval_nonzero_basis(space.kv_y, x2, max_deriv=deriv_order)
        grid = pair.component_coeffs(state.u, comp)
        block = grid[
            by.first_index : by.first_index + space.kv_y.degree + 1,
            bx.first_index : bx.first_index + space.kv_x.degree + 1,
        ]
        out[:, :, comp] = bx.values @ block.T @ by.values.T
    return VelocityDerivatives(derivs=out)


def facet_normal_derivative_jump(
    pair: DivConformingPair,
    state: StateVector,
    facet: Facet,
    qp: np.ndarray,
    order: int | None = None,
) -> np.ndarray:
    """Jump of the order-th pure normal derivative of u_h across a facet.

    Returns the 2-vector [[d^m u / d n^m]](qp) = plus-side minus minus-side,
    with one-sided limits taken from the polynomial pieces of the two
    neighboring elements.
    """
    if facet.is_boundary:
        raise ValueError("jump is defined on interior facets only")
    if order is None:
        order = pair.alpha_prime + 1
    axis = facet.axis
    nx = pair.mesh.nx
    sign = facet.normal[axis] ** order

    def one_sided(comp: int, eid: int) -> float:
        space = pair.velocity_spaces[comp]
        ex, ey = eid % nx, eid // nx
        kv_n = space.kv_x if axis == 0 else space.kv_y
        kv_t = space.kv_y if axis == 0 else space.kv_x
        e_n = ex if axis == 0 else ey
        t = float(qp[1 - axis])
        bn = eval_nonzero_basis(
            kv_n, facet.coordinate, max_deriv=order, span=int(kv_n.element_spans[e_n])
        )
        bt = eval_nonzero_basis(kv_t, t)
        grid = pair.component_coeffs(state.u, comp)
        if axis == 0:
            block = grid[
                bt.first_index : bt.first_index + kv_t.degree + 1,
                bn.first_index : bn.first_index + kv_n.degree + 1,
            ]
            return float(bt.values[0] @ block @ bn.values[order])
        block = grid[
            bn.first_index : bn.first_index + kv_n.degree + 1,
            bt.first_index : bt.first_index + kv_t.degree + 1,
        ]
        return float(bn.values[order] @ block @ bt.values[0])

    jump = np.array(
        [
            one_sided(c, facet.plus_element) - one_sided(c, facet.minus_element)
            for c in (0, 1)
        ]
    )
    return sign * jump


def classify_boundary_dofs(pair: DivConformingPair) -> NormalBoundaryDofs:
    """Velocity DOFs carrying u . n on the boundary.

    Open knot vectors make boundary values interpolatory, so the normal
    trace on each edge is carried by the first/last univariate index of the
    normal-direction factor: Vx columns ix = 0 / n_x - 1 on the left/right
    edges, Vy rows iy = 0 / n_y - 1 on the bottom/top edges.
    """
    vx, vy = pair.vx, pair.vy
    off = vx.n_dofs
    iy = np.arange(vx.n_y)
    ix = np.arange(vy.n_x)
    return NormalBoundaryDofs(
        left=iy * vx.n_x,
        right=iy * vx.n_x + (vx.n_x - 1),
        bottom=off + ix,
        top=off + (vy.n_y - 1) * vy.n_x + ix,
    )


def curl_matrix(pair: DivConformingPair) -> sp.csr_matrix:
    """Curl map C from interior streamfunction coefficients to velocity coefficients.

    psi lies in the degree-(k, k) spline space over the pair's breakpoints
    and u = C psi_interior = (d psi/dy, -d psi/dx) with the outermost ring of
    psi coefficients held at zero, so psi vanishes on the boundary. The pair
    is an exact sequence, hence the columns of C span exactly the discretely
    divergence-free velocities with u . n = 0 on the boundary; the rows of
    the normal-trace DOFs are empty. Columns follow the lexicographic order
    (iy - 1) * (n_x - 2) + (ix - 1) over interior psi indices.
    """
    k = pair.k_prime + 1
    kv_x = open_knots(k, pair.mesh.unique_knots_x)
    kv_y = open_knots(k, pair.mesh.unique_knots_y)
    inner_x = sp.eye(kv_x.n_basis, format="csr")[:, 1:-1]
    inner_y = sp.eye(kv_y.n_basis, format="csr")[:, 1:-1]
    c1 = sp.kron(derivative_matrix(kv_y) @ inner_y, inner_x)
    c2 = -sp.kron(inner_y, derivative_matrix(kv_x) @ inner_x)
    return sp.vstack([c1, c2], format="csr")


def quad_points_1d(kv: KnotVector, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points/weights on every element of a knot vector, concatenated."""
    rule = gauss_rule(npts)
    uk = kv.unique_knots
    a = uk[:-1][:, None]
    h = np.diff(uk)[:, None]
    pts = (a + h * rule.points[None, :]).ravel()
    wts = (h * rule.weights[None, :]).ravel()
    return pts, wts


def mass_matrix_1d(kv: KnotVector, npts: int | None = None) -> sp.csr_matrix:
    """Univariate mass matrix, integrated exactly."""
    if npts is None:
        npts = kv.degree + 1
    pts, wts = quad_points_1d(kv, npts)
    c = collocation_matrix(kv, pts)
    return (c.T @ sp.diags(wts) @ c).tocsr()


def component_l2_projection(space: TensorSpace, f, npts: int) -> np.ndarray:
    """L2 projection of a scalar function onto a tensor space, flat coeffs."""
    px, wx = quad_points_1d(space.kv_x, npts)
    py, wy = quad_points_1d(space.kv_y, npts)
    cx = collocation_matrix(space.kv_x, px)
    cy = collocation_matrix(space.kv_y, py)
    vals = f(px[None, :], py[:, None])
    rhs = cy.T @ (wy[:, None] * vals * wx[None, :]) @ cx
    mx = mass_matrix_1d(space.kv_x)
    my = mass_matrix_1d(space.kv_y)
    m2d = sp.kron(my, mx).tocsc()
    return sp.linalg.spsolve(m2d, rhs.ravel())


def interpolate_field(pair: DivConformingPair, u) -> StateVector:
    """Component-wise L2 projection of an analytic velocity field.

    u maps broadcastable arrays (x, y) to the pair (u1, u2). The result is
    generally not discretely divergence-free; solvers that need solenoidal
    initial data project onto the streamfunction (curl_matrix) instead.
    """
    npts = pair.k_prime + 3
    c1 = component_l2_projection(pair.vx, lambda x, y: u(x, y)[0], npts)
    c2 = component_l2_projection(pair.vy, lambda x, y: u(x, y)[1], npts)
    return StateVector(u=np.concatenate([c1, c2]), p=np.zeros(pair.n_p))


def divergence_coefficients(pair: DivConformingPair, u: np.ndarray) -> np.ndarray:
    """Exact Q-space coefficients of div u_h (the divergence lies in Q)."""
    g1 = pair.component_coeffs(u, 0)
    g2 = pair.component_coeffs(u, 1)
    dx = derivative_matrix(pair.vx.kv_x)
    dy = derivative_matrix(pair.vy.kv_y)
    return (g1 @ dx.T + dy @ g2).ravel()


def pressure_mean_vector(pair: DivConformingPair) -> np.ndarray:
    """Vector m with m . p = integral of the pressure spline."""
    ix = basis_integrals(pair.q.kv_x)
    iy = basis_integrals(pair.q.kv_y)
    return np.kron(iy, ix)


def element_basis_1d(
    kv: KnotVector, ref_points, max_deriv: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero basis functions of kv and their derivatives on every element.

    Reference point t in [0, 1] of element e maps to x = a_e + h_e t and is
    evaluated with that element's polynomial pieces, so t = 0 and t = 1 give
    the one-sided limits at the element's ends. Returns (values, first):
    values[e, q, d, j] is the d-th derivative of basis function first[e] + j
    at point q of element e.
    """
    uk = kv.unique_knots
    x = uk[:-1, None] + np.diff(uk)[:, None] * np.asarray(ref_points)[None, :]
    spans = kv.element_spans
    values = np.array(
        [
            [eval_nonzero_basis(kv, float(xq), max_deriv, span=int(span)).values for xq in xe]
            for xe, span in zip(x, spans)
        ]
    )
    return values, spans - kv.degree


class ElementTables:
    """Batched univariate basis tables at element Gauss points.

    For each space and derivative pair (dx, dy) the method `basis` returns an
    array of shape (n_elements, npts**2, n_local) aligned with `dofs`,
    `weights`, and `points`; the flat quadrature index is qy * npts + qx and
    the flat local index is ly * (px + 1) + lx.
    """

    def __init__(self, pair: DivConformingPair, npts: int, max_deriv: int = 1):
        self.pair = pair
        self.npts = npts
        self.max_deriv = max_deriv
        mesh = pair.mesh
        self.n_elements = mesh.n_elements
        exs = np.arange(mesh.n_elements) % mesh.nx
        eys = np.arange(mesh.n_elements) // mesh.nx

        self._spaces = {"vx": pair.vx, "vy": pair.vy, "q": pair.q}
        self._b1d: dict[tuple[int, int], np.ndarray] = {}
        self._starts: dict[tuple[int, int], np.ndarray] = {}

        px_, wx_ = quad_points_1d(pair.q.kv_x, npts)
        py_, wy_ = quad_points_1d(pair.q.kv_y, npts)
        ptx = px_.reshape(mesh.nx, npts)
        pty = py_.reshape(mesh.ny, npts)
        wtx = wx_.reshape(mesh.nx, npts)
        wty = wy_.reshape(mesh.ny, npts)

        # weights and points, flat index q2 = qy * npts + qx
        self.weights = (wty[eys][:, :, None] * wtx[exs][:, None, :]).reshape(
            self.n_elements, npts * npts
        )
        pts = np.empty((self.n_elements, npts * npts, 2))
        pts[:, :, 0] = np.broadcast_to(
            ptx[exs][:, None, :], (self.n_elements, npts, npts)
        ).reshape(self.n_elements, -1)
        pts[:, :, 1] = np.broadcast_to(
            pty[eys][:, :, None], (self.n_elements, npts, npts)
        ).reshape(self.n_elements, -1)
        self.points = pts

        rule = gauss_rule(npts)
        for name, space in self._spaces.items():
            for axis, kv in ((0, space.kv_x), (1, space.kv_y)):
                key = (id(kv), axis)
                if key not in self._b1d:
                    self._b1d[key], self._starts[key] = element_basis_1d(
                        kv, rule.points, max_deriv
                    )
        self._exs, self._eys = exs, eys
        self._cache: dict[tuple[str, int, int], np.ndarray] = {}
        self._dof_cache: dict[str, np.ndarray] = {}

    def basis(self, name: str, dx: int, dy: int) -> np.ndarray:
        """(n_elements, npts^2, n_local) table of d^dx d^dy basis values."""
        key = (name, dx, dy)
        if key not in self._cache:
            space = self._spaces[name]
            bx = self._b1d[(id(space.kv_x), 0)][self._exs, :, dx, :]
            by = self._b1d[(id(space.kv_y), 1)][self._eys, :, dy, :]
            out = by[:, :, None, :, None] * bx[:, None, :, None, :]
            self._cache[key] = out.reshape(self.n_elements, self.npts**2, -1)
        return self._cache[key]

    def dofs(self, name: str) -> np.ndarray:
        """(n_elements, n_local) space-local DOF indices, same layout as basis."""
        if name not in self._dof_cache:
            space = self._spaces[name]
            sx = self._starts[(id(space.kv_x), 0)][self._exs]
            sy = self._starts[(id(space.kv_y), 1)][self._eys]
            lx = np.arange(space.kv_x.degree + 1)
            ly = np.arange(space.kv_y.degree + 1)
            ix = sx[:, None, None] + lx[None, None, :]
            iy = sy[:, None, None] + ly[None, :, None]
            self._dof_cache[name] = (iy * space.n_x + ix).reshape(
                self.n_elements, -1
            )
        return self._dof_cache[name]

    def field_values(self, name: str, coeffs_flat: np.ndarray, dx: int, dy: int) -> np.ndarray:
        """(n_elements, npts^2) values of one scalar field's (dx, dy) derivative."""
        tab = self.basis(name, dx, dy)
        local = coeffs_flat[self.dofs(name)]
        return np.einsum("eql,el->eq", tab, local)


_TABLE_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def element_tables(pair: DivConformingPair, npts: int, max_deriv: int = 1) -> ElementTables:
    """Memoized ElementTables for a pair (tables are iterate-independent)."""
    per_pair = _TABLE_CACHE.setdefault(pair, {})
    key = (npts, max_deriv)
    if key not in per_pair:
        per_pair[key] = ElementTables(pair, npts, max_deriv)
    return per_pair[key]
