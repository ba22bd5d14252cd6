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
from functools import cached_property, update_wrapper
from weakref import WeakKeyDictionary

import numpy as np
import scipy.sparse as sp

from .bspline import (
    KnotVector,
    _dense_rows,
    basis_integrals,
    derivative_matrix,
    eval_nonzero_basis,
    gauss_rule,
    open_knots,
)
from .mesh import CartesianMesh

__all__ = [
    "TensorSpace",
    "DivConformingPair",
    "StateVector",
    "NormalBoundaryDofs",
    "build_pair",
    "eval_velocity",
    "classify_boundary_dofs",
    "curl_matrix",
    "curl_factors",
    "divergence_coefficients",
    "ElementTables",
    "element_basis_1d",
    "quad_points_1d",
    "per_pair",
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

    @cached_property
    def curl_transpose(self) -> sp.csr_matrix:
        """C^T as a CSR, for the streamfunction systems C^T A C and C^T r."""
        return self.curl.T.tocsr()

    @cached_property
    def divergence(self) -> sp.csr_matrix:
        """D with D u = the Q-space coefficients of div u_h: [I (x) D_x, D_y (x) I]."""
        d_x, d_y = derivative_matrix(self.vx.kv_x), derivative_matrix(self.vy.kv_y)
        eye_y, eye_x = sp.eye(self.q.n_y), sp.eye(self.q.n_x)
        return sp.hstack([sp.kron(eye_y, d_x), sp.kron(d_y, eye_x)], format="csr")


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
    """All partial derivatives D[..., a, b, c] = d^a/dx^a d^b/dy^b u_c.

    The leading axes are those of the evaluation points (none for one point).
    """

    derivs: np.ndarray

    @property
    def value(self) -> np.ndarray:
        return self.derivs[..., 0, 0, :]


def eval_velocity(
    pair: DivConformingPair, state: StateVector, x: np.ndarray, deriv_order: int = 1
) -> VelocityDerivatives:
    """Evaluate u_h and its partial derivatives up to deriv_order.

    x holds one point (shape (2,)) or an array of points (shape (..., 2));
    the point axes lead in the result.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[:-1] + (deriv_order + 1, deriv_order + 1, 2))
    for comp, space in enumerate(pair.velocity_spaces):
        bx = eval_nonzero_basis(space.kv_x, x[..., 0], max_deriv=deriv_order)
        by = eval_nonzero_basis(space.kv_y, x[..., 1], max_deriv=deriv_order)
        rows = np.add.outer(by.first_index, np.arange(space.kv_y.degree + 1)[:, None])
        cols = np.add.outer(bx.first_index, np.arange(space.kv_x.degree + 1)[None, :])
        block = pair.component_coeffs(state.u, comp)[rows, cols]
        out[..., comp] = bx.values @ np.swapaxes(block, -1, -2) @ np.swapaxes(by.values, -1, -2)
    return VelocityDerivatives(derivs=out)


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


def curl_factors(pair: DivConformingPair) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Dense 1-D factors ((Y_0, X_0), (Y_1, X_1)) of the curl map's component
    blocks, C_c = Y_c (x) X_c (see `curl_matrix`).

    With D_x' the derivative matrix of psi's x knot vector (that of vx)
    without its two end columns and I_x' the identity without them, and
    likewise in y, C_0 = D_y' (x) I_x' and C_1 = I_y' (x) (-D_x'). Column a
    of every factor holds at most two nonzeros, at rows a and a + 1.
    """
    factors = []
    for kv in (pair.vx.kv_x, pair.vy.kv_y):
        factors.append(
            (derivative_matrix(kv).toarray()[:, 1:-1], np.eye(kv.n_basis)[:, 1:-1])
        )
    (d_x, eye_x), (d_y, eye_y) = factors
    return (d_y, eye_x), (eye_y, -d_x)


def curl_matrix(pair: DivConformingPair) -> sp.csr_matrix:
    """Curl map C from interior streamfunction coefficients to velocity coefficients.

    psi lies in the degree-(k, k) spline space over the pair's breakpoints
    and u = C psi_interior = (d psi/dy, -d psi/dx) with the outermost ring of
    psi coefficients held at zero, so psi vanishes on the boundary. The pair
    is an exact sequence, hence the columns of C span exactly the discretely
    divergence-free velocities with u . n = 0 on the boundary; the rows of
    the normal-trace DOFs are empty. Columns follow the lexicographic order
    (iy - 1) * (n_x - 2) + (ix - 1) over interior psi indices. Its component
    blocks are Kronecker products of the `curl_factors`.
    """
    blocks = [sp.kron(sp.csr_matrix(y), sp.csr_matrix(x)) for y, x in curl_factors(pair)]
    return sp.vstack(blocks, format="csr")


def quad_points_1d(kv: KnotVector, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points/weights on every element of a knot vector, concatenated."""
    rule = gauss_rule(npts)
    uk = kv.unique_knots
    a = uk[:-1][:, None]
    h = np.diff(uk)[:, None]
    pts = (a + h * rule.points[None, :]).ravel()
    wts = (h * rule.weights[None, :]).ravel()
    return pts, wts


def divergence_coefficients(pair: DivConformingPair, u: np.ndarray) -> np.ndarray:
    """Exact Q-space coefficients of div u_h (the divergence lies in Q)."""
    return pair.divergence @ u


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
    values = eval_nonzero_basis(kv, x, max_deriv, span=spans[:, None]).values
    return values, spans - kv.degree


class ElementTables:
    """Univariate tables of the velocity components at npts Gauss points per element.

    For component c and axis a (0 for x, 1 for y), rows[c][a] holds the
    `element_basis_1d` values and first derivatives of the component's basis
    along a, shape (n_elements_a, npts, 2, degree_a + 1), and colloc[c][a]
    the same rows as a dense collocation at points_1d[a], the Gauss points of
    every element along a with weights weights_1d[a]: shape (2, n_elements_a
    npts, n_basis_a). A component's values on the tensor grid of points are
    colloc[c][1][0] G colloc[c][0][0]^T, G its coefficient grid (n_y, n_x):
    row ey npts + qy, column ex npts + qx.
    """

    def __init__(self, pair: DivConformingPair, npts: int):
        rule = gauss_rule(npts)
        self.points_1d, self.weights_1d = zip(
            *(quad_points_1d(kv, npts) for kv in (pair.q.kv_x, pair.q.kv_y))
        )
        self.rows, self.colloc = [], []
        for space in pair.velocity_spaces:
            kvs = space.kv_x, space.kv_y
            rows, first = zip(*(element_basis_1d(kv, rule.points, 1) for kv in kvs))
            self.rows.append(rows)
            self.colloc.append(
                [
                    _dense_rows(f[:, None], r.transpose(2, 0, 1, 3), n).reshape(2, -1, n)
                    for r, f, n in zip(rows, first, (space.n_x, space.n_y))
                ]
            )


def per_pair(build):
    """Memoize build(pair, *args) per pair and then per positional arguments.

    The pair is held weakly, so its entries go with it; a cached value must
    not refer back to its pair, or the pair is never freed.
    """
    memo: WeakKeyDictionary = WeakKeyDictionary()

    def cached(pair: DivConformingPair, *args):
        entries = memo.setdefault(pair, {})
        if args not in entries:
            entries[args] = build(pair, *args)
        return entries[args]

    return update_wrapper(cached, build, updated=())


# element_tables(pair, npts): the tables are iterate-independent
element_tables = per_pair(ElementTables)
