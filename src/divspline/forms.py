"""Assembly of the stabilized variational forms.

The discrete momentum operator combines the viscous form with weak tangential
Dirichlet terms,

    A_h(u, v) = (2 nu grad_s u, grad_s v) - (2 nu n . grad_s u, v)_bnd
                - (2 nu n . grad_s v, u)_bnd + (2 nu C_nit / h u, v)_bnd,

the convective trilinear form C(w; u, v) = -(w x u, grad v), and the skeleton
penalty

    J_h(w; u, v) = sum_facets (eta(w) [[d^m u / d n^m]], [[d^m v / d n^m]]),

with m = alpha' + 1 and eta = gamma min(Re_h, 1) h^(2 alpha' + 2) |w . n|,
Re_h = |w| h / nu. The divergence form B(u, q) = (div u, q) closes the saddle
system. eta is evaluated from the current iterate and frozen during
linearization; the jump arguments are linearized exactly.

Element quadrature uses k' + 2 Gauss points per direction, which integrates
every bilinear-form integrand exactly. The trilinear convection integrand has
directional degree 3k - 1, so convection uses ceil(3(k' + 1) / 2) points to
stay exact as well; facet rules use k' + 2 points (the rational eta factor is
only approximately integrated). Matrices act on the full velocity DOF vector
[Vx block; Vy block]; the solver imposes the strong normal trace.

Every operator comes from batched basis tables built on
`space.element_basis_1d`: volume terms from `ElementTables` at element Gauss
points, the skeleton penalty and the boundary terms from `FacetTables` on the
interior and boundary facets. Each operator lists its local blocks as (row
DOFs, column DOFs) pairs, and one `CooPattern` sums them into CSR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from weakref import WeakKeyDictionary

import numpy as np
import scipy.sparse as sp

from .mesh import gauss_rule
from .space import (
    DivConformingPair,
    StateVector,
    element_basis_1d,
    element_tables,
    mass_matrix_1d,
)

__all__ = [
    "StabParams",
    "compute_eta",
    "assemble_viscous_nitsche",
    "assemble_divergence",
    "assemble_convection",
    "assemble_skeleton",
    "assemble_load",
    "assemble_velocity_mass",
    "assemble_strain",
    "assemble_boundary_mass",
    "facet_tables",
    "convection_quad_points",
]


@dataclass(frozen=True)
class StabParams:
    """Stabilization and boundary-penalty parameters for one flow problem."""

    nu: float
    gamma: float
    delta: float
    c_nit: float
    alpha_prime: int

    def __post_init__(self):
        if min(self.nu, self.gamma, self.delta, self.c_nit) < 0:
            raise ValueError("parameters must be nonnegative")
        if self.alpha_prime < 0:
            raise ValueError("alpha_prime must be >= 0")

    @classmethod
    def create(
        cls,
        k_prime: int,
        nu: float,
        delta: float = 1.0,
        gamma: float | None = None,
        c_nit: float | None = None,
    ) -> "StabParams":
        """Derive gamma = delta * 10^-(alpha'+2) and C_nit = 5(k'+1) defaults."""
        alpha_prime = k_prime - 1
        if gamma is None:
            gamma = delta * 10.0 ** (-(alpha_prime + 2))
        if c_nit is None:
            c_nit = 5.0 * (k_prime + 1)
        return cls(nu=nu, gamma=gamma, delta=delta, c_nit=c_nit, alpha_prime=alpha_prime)

    def with_nu(self, nu: float) -> "StabParams":
        return StabParams(nu, self.gamma, self.delta, self.c_nit, self.alpha_prime)


def compute_eta(u_dot_n, u_mag, h: float, params: StabParams):
    """Skeleton penalty density: gamma min(Re_h, 1) h^(2 alpha'+2) |u . n|."""
    re_h = np.asarray(u_mag) * h / params.nu
    return (
        params.gamma
        * np.minimum(re_h, 1.0)
        * h ** (2 * params.alpha_prime + 2)
        * np.abs(u_dot_n)
    )


def bilinear_quad_points(pair: DivConformingPair) -> int:
    return pair.k_prime + 2


def convection_quad_points(pair: DivConformingPair) -> int:
    """Exact for the degree-(3k-1) trilinear integrand."""
    return max(pair.k_prime + 2, math.ceil(3 * (pair.k_prime + 1) / 2))


class CooPattern:
    """Frozen sparsity pattern of a list of dense local blocks.

    Block b pairs row DOFs (E_b, L_b) with column DOFs (E_b, M_b); `build`
    sums the matching local arrays (E_b, L_b, M_b), given in the same order,
    into CSR without re-sorting.
    """

    def __init__(self, blocks, shape: tuple[int, int]):
        rows = np.concatenate(
            [np.broadcast_to(r[:, :, None], (*r.shape, c.shape[1])).ravel() for r, c in blocks]
        )
        cols = np.concatenate(
            [np.broadcast_to(c[:, None, :], (*r.shape, c.shape[1])).ravel() for r, c in blocks]
        )
        order = np.lexsort((cols, rows))
        r, c = rows[order], cols[order]
        new_group = np.ones(len(r), dtype=bool)
        new_group[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        self._order = order
        self._starts = np.flatnonzero(new_group)
        self._indices = c[self._starts]
        keep_rows = r[self._starts]
        self._indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.add.at(self._indptr, keep_rows + 1, 1)
        np.cumsum(self._indptr, out=self._indptr)
        self._shape = shape

    def build(self, local_blocks) -> sp.csr_matrix:
        data = np.concatenate([b.ravel() for b in local_blocks])
        summed = np.add.reduceat(data[self._order], self._starts)
        return sp.csr_matrix(
            (summed, self._indices.copy(), self._indptr.copy()), shape=self._shape
        )


def _weighted_products(w, a, b) -> np.ndarray:
    """Local blocks sum_q w[e, q] a[e, q, l] b[e, q, m], shape (E, L, M)."""
    return np.einsum("eq,eql,eqm->elm", w, a, b)


_STRAIN_CACHE: WeakKeyDictionary = WeakKeyDictionary()
_BOUNDARY_CACHE: WeakKeyDictionary = WeakKeyDictionary()
_MASS_CACHE: WeakKeyDictionary = WeakKeyDictionary()
_FACET_CACHE: WeakKeyDictionary = WeakKeyDictionary()
_CONV_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def assemble_strain(pair: DivConformingPair) -> sp.csr_matrix:
    """Unit-viscosity volume strain matrix S with u^T S u = 2 ||grad_s u||^2."""
    if pair in _STRAIN_CACHE:
        return _STRAIN_CACHE[pair]
    tab = element_tables(pair, bilinear_quad_points(pair), max_deriv=1)
    w = tab.weights
    dx1, dy1 = tab.basis("vx", 1, 0), tab.basis("vx", 0, 1)
    dx2, dy2 = tab.basis("vy", 1, 0), tab.basis("vy", 0, 1)
    d1 = tab.dofs("vx")
    d2 = tab.dofs("vy") + pair.vx.n_dofs
    # 2 int [ 2 e11(u) e11(v) + 2 e22 e22 + 4 e12 e12 ] expanded per block:
    k11 = _weighted_products(w, dx1, dx1) * 2 + _weighted_products(w, dy1, dy1)
    k22 = _weighted_products(w, dy2, dy2) * 2 + _weighted_products(w, dx2, dx2)
    k12 = _weighted_products(w, dy1, dx2)
    mat = CooPattern(
        [(d1, d1), (d2, d2), (d1, d2), (d2, d1)], (pair.n_u, pair.n_u)
    ).build([k11, k22, k12, k12.transpose(0, 2, 1)])
    _STRAIN_CACHE[pair] = mat
    return mat


def _on_facets(axis: int, normal: np.ndarray, tangential: np.ndarray, op=np.multiply):
    """Cross per-line normal factors (L, ln) with per-tangential-element
    factors (T, ..., lt) into per-facet arrays (L * T, ..., ln * lt).

    Facets run line by line, tangential element fastest; the flat local index
    follows DOF order (x fastest), so the normal index is the fast one for
    axis 0.
    """
    t = tangential[None]
    n = normal.reshape(len(normal), *([1] * (tangential.ndim - 1)), normal.shape[-1])
    if axis == 0:
        out = op(t[..., :, None], n[..., None, :])
    else:
        out = op(n[..., :, None], t[..., None, :])
    return out.reshape(-1, *out.shape[2:-2], out.shape[-2] * out.shape[-1])


class FacetTables:
    """Velocity basis tables on every facet, both orientations.

    For the facets normal to `axis`, normal-direction rows come from
    `element_basis_1d` at the reference points {0, 1}: interior line i takes
    element i-1 at 1 (plus side) and element i at 0 (minus side), both on the
    union of their supports; boundary line 0 takes element 0 at 0 and line n
    element n-1 at 1. Tangential factors are evaluated at the Gauss points of
    every tangential element. Tables have shape (n_facets, nq, n_local).

    interior[axis]: weights, dofs[c], jump[c] (the (alpha'+1)-th normal
    derivative, plus side minus minus side), plus[c] and minus[c] (one-sided
    values). boundary[axis]: weights, points, normal (outward sign of the
    facet normal), dofs[c], value[c] and grad[c] = (d/dx, d/dy).
    """

    def __init__(self, pair: DivConformingPair):
        mesh = pair.mesh
        m = pair.alpha_prime + 1
        rule = gauss_rule(bilinear_quad_points(pair))
        self.n_u = pair.n_u
        self.interior, self.boundary = [], []
        for axis in (0, 1):
            knots_n, knots_t = mesh.unique_knots_x, mesh.unique_knots_y
            if axis == 1:
                knots_n, knots_t = knots_t, knots_n
            th = np.diff(knots_t)[:, None]
            weights = th * rule.weights
            n_tang = len(weights)
            inner = SimpleNamespace(
                axis=axis, weights=np.tile(weights, (len(knots_n) - 2, 1)),
                dofs=[], jump=[], plus=[], minus=[],
            )
            bnd = SimpleNamespace(
                axis=axis, weights=np.tile(weights, (2, 1)),
                normal=np.repeat([-1.0, 1.0], n_tang)[:, None],
                points=np.empty((2 * n_tang, rule.npts, 2)),
                dofs=[], value=[], grad=[],
            )
            bnd.points[..., axis] = np.repeat(knots_n[[0, -1]], n_tang)[:, None]
            bnd.points[..., 1 - axis] = np.tile(knots_t[:-1, None] + th * rule.points, (2, 1))
            for comp, space in enumerate(pair.velocity_spaces):
                kv_n, kv_t = (space.kv_x, space.kv_y) if axis == 0 else (space.kv_y, space.kv_x)
                rows, first_n = element_basis_1d(kv_n, (0.0, 1.0), m)
                tang, first_t = element_basis_1d(kv_t, rule.points, 1)
                if np.any(np.diff(first_n) != 1):
                    raise ValueError("facet tables require interior multiplicity 1")
                idx_t = first_t[:, None] + np.arange(kv_t.degree + 1)
                scale_n, scale_t = (1, space.n_x) if axis == 0 else (space.n_x, 1)

                def on_facets(normal_rows, tang_deriv=0):
                    return _on_facets(axis, normal_rows, tang[:, :, tang_deriv])

                def dofs(first, width):
                    idx_n = first[:, None] + np.arange(width)
                    return _on_facets(
                        axis, idx_n * scale_n, idx_t * scale_t, np.add
                    ) + pair.component_offset(comp)

                plus = np.pad(rows[:-1, 1], ((0, 0), (0, 0), (0, 1)))
                minus = np.pad(rows[1:, 0], ((0, 0), (0, 0), (1, 0)))
                inner.jump.append(on_facets(plus[:, m] - minus[:, m]))
                inner.plus.append(on_facets(plus[:, 0]))
                inner.minus.append(on_facets(minus[:, 0]))
                inner.dofs.append(dofs(first_n[:-1], kv_n.degree + 2))
                ends = np.stack([rows[0, 0], rows[-1, 1]])
                d_n, d_t = on_facets(ends[:, 1]), on_facets(ends[:, 0], 1)
                bnd.value.append(on_facets(ends[:, 0]))
                bnd.grad.append((d_n, d_t) if axis == 0 else (d_t, d_n))
                bnd.dofs.append(dofs(first_n[[0, -1]], kv_n.degree + 1))
            self.interior.append(inner)
            self.boundary.append(bnd)

    @cached_property
    def skeleton_pattern(self) -> CooPattern:
        """COO pattern of J: one block per interior facet and component."""
        blocks = [(d, d) for facets in self.interior for d in facets.dofs]
        return CooPattern(blocks, (self.n_u, self.n_u))


def facet_tables(pair: DivConformingPair) -> FacetTables:
    if pair not in _FACET_CACHE:
        _FACET_CACHE[pair] = FacetTables(pair)
    return _FACET_CACHE[pair]


def _boundary_unit_matrices(pair: DivConformingPair):
    """G[a,b] = (2 n . grad_s phi_b, phi_a)_bnd and boundary mass P[a,b]."""
    if pair in _BOUNDARY_CACHE:
        return _BOUNDARY_CACHE[pair]
    g_blocks, g_locals, p_blocks, p_locals = [], [], [], []
    for facets in facet_tables(pair).boundary:
        d = facets.axis
        wn = facets.weights * facets.normal
        val, grad, dofs = facets.value, facets.grad, facets.dofs
        for ca in (0, 1):
            p_blocks.append((dofs[ca], dofs[ca]))
            p_locals.append(_weighted_products(facets.weights, val[ca], val[ca]))
            for cb in (0, 1):
                # component ca of 2 n . grad_s phi_b is n_d (d_d phi_b,ca + d_ca phi_b,d)
                parts = []
                if ca == cb:
                    parts.append(_weighted_products(wn, val[ca], grad[cb][d]))
                if cb == d:
                    parts.append(_weighted_products(wn, val[ca], grad[cb][ca]))
                if parts:
                    g_blocks.append((dofs[ca], dofs[cb]))
                    g_locals.append(sum(parts))
    shape = (pair.n_u, pair.n_u)
    result = (
        CooPattern(g_blocks, shape).build(g_locals),
        CooPattern(p_blocks, shape).build(p_locals),
    )
    _BOUNDARY_CACHE[pair] = result
    return result


def assemble_boundary_mass(pair: DivConformingPair) -> sp.csr_matrix:
    """Boundary mass P with u^T P u = ||u||^2 over the boundary facets."""
    return _boundary_unit_matrices(pair)[1]


def assemble_viscous_nitsche(
    pair: DivConformingPair,
    params: StabParams,
    nitsche: bool = True,
) -> sp.csr_matrix:
    """Viscous operator K with weak tangential Dirichlet terms.

    K implements (2 nu grad_s u, grad_s v) plus, when nitsche is set, the
    consistency/penalty boundary terms; the matching Dirichlet-data terms of
    the load are `nitsche_load`. With nitsche=False only the volume term is
    kept (free-slip walls where the normal trace is imposed strongly and the
    tangential traction vanishes).
    """
    k = assemble_strain(pair) * params.nu
    if not nitsche:
        return k.tocsr()
    gmat, pmat = _boundary_unit_matrices(pair)
    h = pair.mesh.h
    k = k - params.nu * (gmat + gmat.T) + (2.0 * params.nu * params.c_nit / h) * pmat
    return k.tocsr()


def nitsche_load(pair: DivConformingPair, params: StabParams, u_d) -> np.ndarray:
    """Dirichlet-data part of the load: -(2 nu n.grad_s v, uD) + (2 nu Cnit/h v, uD)."""
    sides = facet_tables(pair).boundary
    pts = np.concatenate([facets.points for facets in sides])
    ud_all = np.array(u_d(pts[..., 0], pts[..., 1]))
    coef = 2.0 * params.c_nit / pair.mesh.h
    g = np.zeros(pair.n_u)
    lo = 0
    for facets in sides:
        ud = ud_all[:, lo : lo + len(facets.weights)]
        lo += len(facets.weights)
        d = facets.axis
        wn = facets.weights * facets.normal
        for ca in (0, 1):
            grad = facets.grad[ca]
            # 2 (n . grad_s phi_a) . uD = nd (d_d phi_a uD_ca + delta_{d,ca} grad phi_a . uD)
            cons = np.einsum("fq,fql->fl", wn * ud[ca], grad[d])
            if ca == d:
                cons += np.einsum("fq,fql->fl", wn * ud[0], grad[0]) + np.einsum(
                    "fq,fql->fl", wn * ud[1], grad[1]
                )
            pen = np.einsum("fq,fql->fl", facets.weights * ud[ca], facets.value[ca])
            local = params.nu * (coef * pen - cons)
            g += np.bincount(facets.dofs[ca].ravel(), local.ravel(), minlength=pair.n_u)
    return g


def assemble_divergence(pair: DivConformingPair) -> sp.csr_matrix:
    """B with (B u)_q = (div u_h, psi_q); exact for the polynomial integrand."""
    tab = element_tables(pair, bilinear_quad_points(pair), max_deriv=1)
    qb = tab.basis("q", 0, 0)
    dq = tab.dofs("q")
    blocks, local_blocks = [], []
    for name, comp, (dx, dy) in (("vx", 0, (1, 0)), ("vy", 1, (0, 1))):
        blocks.append((dq, tab.dofs(name) + pair.component_offset(comp)))
        local_blocks.append(_weighted_products(tab.weights, qb, tab.basis(name, dx, dy)))
    return CooPattern(blocks, (pair.n_p, pair.n_u)).build(local_blocks)


class _ConvectionKit:
    """Static tables and the N1/N2 sparsity patterns for convection reassembly."""

    def __init__(self, pair: DivConformingPair):
        tab = element_tables(pair, convection_quad_points(pair), max_deriv=1)
        names = ("vx", "vy")
        self.w = tab.weights
        self.val = [tab.basis(name, 0, 0) for name in names]
        self.grad = [(tab.basis(name, 1, 0), tab.basis(name, 0, 1)) for name in names]
        self.dofs = [tab.dofs(name) + pair.component_offset(c) for c, name in enumerate(names)]
        shape = (pair.n_u, pair.n_u)
        # N1 couples each component with itself; N2 rows j with columns i
        self.n1 = CooPattern([(d, d) for d in self.dofs], shape)
        self.n2 = CooPattern(
            [(self.dofs[j], self.dofs[i]) for j in (0, 1) for i in (0, 1)], shape
        )


def _convection_kit(pair: DivConformingPair) -> _ConvectionKit:
    if pair not in _CONV_CACHE:
        _CONV_CACHE[pair] = _ConvectionKit(pair)
    return _CONV_CACHE[pair]


def assemble_convection(
    pair: DivConformingPair, w_state: StateVector | np.ndarray
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Convection C(w; u, v) = -(w x u, grad v) and its state-derivative block.

    Returns (N1, N2) with N1 u acting as C(w; u, .) and N2 u as C(u; w, .);
    the Newton Jacobian of the convective residual N1(w) w is N1 + N2 and the
    residual itself is N1 @ w.
    """
    w_u = w_state.u if isinstance(w_state, StateVector) else w_state
    kit = _convection_kit(pair)
    ww = [kit.w * np.einsum("eql,el->eq", kit.val[c], w_u[kit.dofs[c]]) for c in (0, 1)]
    # rows test comp j, cols trial comp j: -(w . grad phi_a) phi_b
    n1 = kit.n1.build(
        [
            -(
                _weighted_products(ww[0], kit.grad[j][0], kit.val[j])
                + _weighted_products(ww[1], kit.grad[j][1], kit.val[j])
            )
            for j in (0, 1)
        ]
    )
    # rows test comp j, cols trial comp i: -(phi_b w_j, d_i phi_a)
    n2 = kit.n2.build(
        [-_weighted_products(ww[j], kit.grad[j][i], kit.val[i]) for j in (0, 1) for i in (0, 1)]
    )
    return n1, n2


def facet_eta_values(
    pair: DivConformingPair, w_u: np.ndarray, params: StabParams
) -> list[np.ndarray]:
    """eta at every interior facet quadrature point, per orientation, shape (nF, nq)."""
    out = []
    for facets in facet_tables(pair).interior:
        up = [np.einsum("fql,fl->fq", facets.plus[c], w_u[facets.dofs[c]]) for c in (0, 1)]
        um = [np.einsum("fql,fl->fq", facets.minus[c], w_u[facets.dofs[c]]) for c in (0, 1)]
        mag = 0.5 * (np.hypot(up[0], up[1]) + np.hypot(um[0], um[1]))
        u_dot_n = up[facets.axis]  # normal component is single-valued
        out.append(compute_eta(u_dot_n, mag, pair.mesh.h, params))
    return out


def assemble_skeleton(
    pair: DivConformingPair, w_state: StateVector | np.ndarray, params: StabParams
) -> sp.csr_matrix:
    """Skeleton penalty operator J(w) (symmetric positive semidefinite).

    gamma = 0 returns a matrix with no stored entries so that the assembled
    system keeps the plain Galerkin sparsity pattern.
    """
    n = pair.n_u
    if params.gamma == 0.0:
        return sp.csr_matrix((n, n))
    w_u = w_state.u if isinstance(w_state, StateVector) else w_state
    tables = facet_tables(pair)
    local_blocks = [
        _weighted_products(facets.weights * eta, jump, jump)
        for facets, eta in zip(tables.interior, facet_eta_values(pair, w_u, params))
        for jump in facets.jump
    ]
    return tables.skeleton_pattern.build(local_blocks)


def assemble_load(
    pair: DivConformingPair,
    params: StabParams,
    f=None,
    u_d=None,
    nitsche: bool = True,
) -> np.ndarray:
    """Load vector: body force plus the Dirichlet-data Nitsche terms."""
    rhs = np.zeros(pair.n_u)
    if f is not None:
        tab = element_tables(pair, bilinear_quad_points(pair), max_deriv=1)
        fx, fy = f(tab.points[:, :, 0], tab.points[:, :, 1])
        for comp, name, fv in ((0, "vx", fx), (1, "vy", fy)):
            vb = tab.basis(name, 0, 0)
            dofs = tab.dofs(name) + pair.component_offset(comp)
            np.add.at(
                rhs,
                dofs.ravel(),
                np.einsum("eq,eql->el", tab.weights * fv, vb).ravel(),
            )
    if nitsche and u_d is not None:
        rhs += nitsche_load(pair, params, u_d)
    return rhs


def assemble_velocity_mass(pair: DivConformingPair) -> sp.csr_matrix:
    """Block-diagonal velocity mass matrix (exact integration)."""
    if pair in _MASS_CACHE:
        return _MASS_CACHE[pair]
    blocks = []
    for space in pair.velocity_spaces:
        mx = mass_matrix_1d(space.kv_x)
        my = mass_matrix_1d(space.kv_y)
        blocks.append(sp.kron(my, mx))
    mat = sp.block_diag(blocks).tocsr()
    _MASS_CACHE[pair] = mat
    return mat

