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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np
import scipy.sparse as sp

from .bspline import eval_nonzero_basis
from .mesh import Facet, gauss_rule
from .space import (
    DivConformingPair,
    StateVector,
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
    "skeleton_tables",
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
    """Frozen sparsity pattern; turns raw COO data into CSR without re-sorting."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
        order = np.lexsort((cols, rows))
        r, c = rows[order], cols[order]
        new_group = np.empty(len(r), dtype=bool)
        new_group[0] = True
        new_group[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        self._order = order
        self._starts = np.flatnonzero(new_group)
        self._indices = c[self._starts]
        keep_rows = r[self._starts]
        self._indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.add.at(self._indptr, keep_rows + 1, 1)
        np.cumsum(self._indptr, out=self._indptr)
        self._shape = shape

    def build(self, data: np.ndarray) -> sp.csr_matrix:
        summed = np.add.reduceat(data[self._order], self._starts)
        return sp.csr_matrix(
            (summed, self._indices.copy(), self._indptr.copy()), shape=self._shape
        )


def _coo(pair, blocks) -> sp.csr_matrix:
    """Assemble [(rows, cols, dense_local), ...] into a velocity-sized CSR."""
    n = pair.n_u
    rows = np.concatenate([np.broadcast_to(r[:, :, None], d.shape).ravel() for r, c, d in blocks])
    cols = np.concatenate([np.broadcast_to(c[:, None, :], d.shape).ravel() for r, c, d in blocks])
    data = np.concatenate([d.ravel() for r, c, d in blocks])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


_STRAIN_CACHE: WeakKeyDictionary = WeakKeyDictionary()
_BOUNDARY_CACHE: WeakKeyDictionary = WeakKeyDictionary()
_MASS_CACHE: WeakKeyDictionary = WeakKeyDictionary()
_SKELETON_CACHE: WeakKeyDictionary = WeakKeyDictionary()
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
    k11 = np.einsum("eq,eql,eqm->elm", w, dx1, dx1) * 2 + np.einsum(
        "eq,eql,eqm->elm", w, dy1, dy1
    )
    k22 = np.einsum("eq,eql,eqm->elm", w, dy2, dy2) * 2 + np.einsum(
        "eq,eql,eqm->elm", w, dx2, dx2
    )
    k12 = np.einsum("eq,eql,eqm->elm", w, dy1, dx2)
    mat = _coo(
        pair,
        [(d1, d1, k11), (d2, d2, k22), (d1, d2, k12), (d2, d1, k12.transpose(0, 2, 1))],
    )
    _STRAIN_CACHE[pair] = mat
    return mat


def _boundary_facet_basis(pair: DivConformingPair, facet: Facet, npts: int):
    """Per component: (values, d/dx, d/dy) of shape (nq, nloc) plus global dofs."""
    rule = gauss_rule(npts)
    t = facet.span[0] + facet.length * rule.points
    wts = facet.length * rule.weights
    axis = facet.axis
    eid = facet.plus_element
    ex, ey = eid % pair.mesh.nx, eid // pair.mesh.nx
    out = []
    for comp, space in enumerate(pair.velocity_spaces):
        kvx, kvy = space.kv_x, space.kv_y
        if axis == 0:
            bn = eval_nonzero_basis(
                kvx, facet.coordinate, max_deriv=1, span=int(kvx.element_spans[ex])
            )
            bt = [eval_nonzero_basis(kvy, float(tq), max_deriv=1) for tq in t]
            ix0, iy0 = bn.first_index, bt[0].first_index
            vx_ = np.array([b.values[0] for b in bt])[:, :, None] * bn.values[0][None, None, :]
            dxv = np.array([b.values[0] for b in bt])[:, :, None] * bn.values[1][None, None, :]
            dyv = np.array([b.values[1] for b in bt])[:, :, None] * bn.values[0][None, None, :]
        else:
            bn = eval_nonzero_basis(
                kvy, facet.coordinate, max_deriv=1, span=int(kvy.element_spans[ey])
            )
            bt = [eval_nonzero_basis(kvx, float(tq), max_deriv=1) for tq in t]
            iy0, ix0 = bn.first_index, bt[0].first_index
            vx_ = bn.values[0][None, :, None] * np.array([b.values[0] for b in bt])[:, None, :]
            dxv = bn.values[0][None, :, None] * np.array([b.values[1] for b in bt])[:, None, :]
            dyv = bn.values[1][None, :, None] * np.array([b.values[0] for b in bt])[:, None, :]
        nloc_y, nloc_x = vx_.shape[1], vx_.shape[2]
        iy = iy0 + np.arange(nloc_y)
        ix = ix0 + np.arange(nloc_x)
        dofs = (iy[:, None] * space.n_x + ix[None, :]).ravel() + pair.component_offset(comp)
        nq = len(t)
        out.append(
            (
                vx_.reshape(nq, -1),
                dxv.reshape(nq, -1),
                dyv.reshape(nq, -1),
                dofs,
            )
        )
    pts = np.empty((len(t), 2))
    pts[:, axis] = facet.coordinate
    pts[:, 1 - axis] = t
    return out, wts, pts


def _boundary_unit_matrices(pair: DivConformingPair):
    """G[a,b] = (2 n . grad_s phi_b, phi_a)_bnd and boundary mass P[a,b]."""
    if pair in _BOUNDARY_CACHE:
        return _BOUNDARY_CACHE[pair]
    npts = bilinear_quad_points(pair)
    n = pair.n_u
    g = sp.lil_matrix((n, n))
    p = sp.lil_matrix((n, n))
    for facet in pair.mesh.boundary_facets:
        comps, wts, _ = _boundary_facet_basis(pair, facet, npts)
        d = facet.axis
        nd = facet.normal[d]
        grads = [(comps[c][1], comps[c][2]) for c in (0, 1)]
        for ca in (0, 1):
            va, dofs_a = comps[ca][0], comps[ca][3]
            for cb in (0, 1):
                vb, dofs_b = comps[cb][0], comps[cb][3]
                gl = np.zeros((len(dofs_a), len(dofs_b)))
                if ca == cb:
                    gl += nd * np.einsum("q,ql,qm->lm", wts, va, grads[cb][d])
                    p[np.ix_(dofs_a, dofs_b)] += np.einsum("q,ql,qm->lm", wts, va, vb)
                if cb == d:
                    gl += nd * np.einsum("q,ql,qm->lm", wts, va, grads[cb][ca])
                if gl.any():
                    g[np.ix_(dofs_a, dofs_b)] += gl
    result = (g.tocsr(), p.tocsr())
    _BOUNDARY_CACHE[pair] = result
    return result


def assemble_boundary_mass(pair: DivConformingPair) -> sp.csr_matrix:
    """Boundary mass P with u^T P u = ||u||^2 over the boundary facets."""
    return _boundary_unit_matrices(pair)[1]


def assemble_viscous_nitsche(
    pair: DivConformingPair,
    params: StabParams,
    u_d=None,
    nitsche: bool = True,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Viscous operator with weak tangential Dirichlet terms, plus its load part.

    Returns (K, g): K implements (2 nu grad_s u, grad_s v) plus, when nitsche
    is set, the consistency/penalty boundary terms; g collects the matching
    Dirichlet-data terms of the load functional (zero for u_d = None). With
    nitsche=False only the volume term is kept (free-slip walls where the
    normal trace is imposed strongly and the tangential traction vanishes).
    """
    k = assemble_strain(pair) * params.nu
    g = np.zeros(pair.n_u)
    if not nitsche:
        return k.tocsr(), g
    gmat, pmat = _boundary_unit_matrices(pair)
    h = pair.mesh.h
    k = k - params.nu * (gmat + gmat.T) + (2.0 * params.nu * params.c_nit / h) * pmat
    if u_d is not None:
        g = nitsche_load(pair, params, u_d)
    return k.tocsr(), g


def nitsche_load(pair: DivConformingPair, params: StabParams, u_d) -> np.ndarray:
    """Dirichlet-data part of the load: -(2 nu n.grad_s v, uD) + (2 nu Cnit/h v, uD)."""
    npts = bilinear_quad_points(pair)
    g = np.zeros(pair.n_u)
    h = pair.mesh.h
    for facet in pair.mesh.boundary_facets:
        comps, wts, pts = _boundary_facet_basis(pair, facet, npts)
        ud = np.column_stack(u_d(pts[:, 0], pts[:, 1]))
        d = facet.axis
        nd = facet.normal[d]
        for ca in (0, 1):
            va, dofs_a = comps[ca][0], comps[ca][3]
            grads_a = (comps[ca][1], comps[ca][2])
            # 2 (n . grad_s phi_a) . uD = nd (d_d phi_a uD_ca + delta_{d,ca} grad phi_a . uD)
            cons = nd * np.einsum("q,ql,q->l", wts, grads_a[d], ud[:, ca])
            if ca == d:
                cons += nd * (
                    np.einsum("q,ql,q->l", wts, grads_a[0], ud[:, 0])
                    + np.einsum("q,ql,q->l", wts, grads_a[1], ud[:, 1])
                )
            pen = np.einsum("q,ql,q->l", wts, va, ud[:, ca])
            g[dofs_a] += params.nu * (2.0 * params.c_nit / h * pen - cons)
    return g


def assemble_divergence(pair: DivConformingPair) -> sp.csr_matrix:
    """B with (B u)_q = (div u_h, psi_q); exact for the polynomial integrand."""
    tab = element_tables(pair, bilinear_quad_points(pair), max_deriv=1)
    w = tab.weights
    qb = tab.basis("q", 0, 0)
    dq = tab.dofs("q")
    rows_cols_data = []
    for name, comp, (dx, dy) in (("vx", 0, (1, 0)), ("vy", 1, (0, 1))):
        db = tab.basis(name, dx, dy)
        dv = tab.dofs(name) + pair.component_offset(comp)
        local = np.einsum("eq,eql,eqm->elm", w, qb, db)
        rows = np.broadcast_to(dq[:, :, None], local.shape).ravel()
        cols = np.broadcast_to(dv[:, None, :], local.shape).ravel()
        rows_cols_data.append((rows, cols, local.ravel()))
    rows = np.concatenate([r for r, c, d in rows_cols_data])
    cols = np.concatenate([c for r, c, d in rows_cols_data])
    data = np.concatenate([d for r, c, d in rows_cols_data])
    return sp.coo_matrix((data, (rows, cols)), shape=(pair.n_p, pair.n_u)).tocsr()


class _ConvectionKit:
    """Static index pattern and tables for fast convection reassembly."""

    def __init__(self, pair: DivConformingPair):
        tab = element_tables(pair, convection_quad_points(pair), max_deriv=1)
        self.tab = tab
        self.w = tab.weights
        self.val = {c: tab.basis(name, 0, 0) for c, name in ((0, "vx"), (1, "vy"))}
        self.grad = {
            (c, i): tab.basis(name, 1 - i, i)
            for c, name in ((0, "vx"), (1, "vy"))
            for i in (0, 1)
        }
        self.dofs = {
            c: tab.dofs(name) + pair.component_offset(c)
            for c, name in ((0, "vx"), (1, "vy"))
        }
        blocks = []
        # N1 blocks (j, j); N2 blocks (rows j, cols i)
        self.block_defs = []
        for j in (0, 1):
            blocks.append((self.dofs[j], self.dofs[j]))
            self.block_defs.append(("n1", j, j))
        for j in (0, 1):
            for i in (0, 1):
                blocks.append((self.dofs[j], self.dofs[i]))
                self.block_defs.append(("n2", j, i))
        rows = np.concatenate(
            [
                np.broadcast_to(r[:, :, None], (r.shape[0], r.shape[1], c.shape[1])).ravel()
                for r, c in blocks
            ]
        )
        cols = np.concatenate(
            [
                np.broadcast_to(c[:, None, :], (r.shape[0], r.shape[1], c.shape[1])).ravel()
                for r, c in blocks
            ]
        )
        self.pattern = CooPattern(rows, cols, (pair.n_u, pair.n_u))
        self.sizes = [r.shape[0] * r.shape[1] * c.shape[1] for r, c in blocks]


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
    wvals = [np.einsum("eql,el->eq", kit.val[c], w_u[kit.dofs[c]]) for c in (0, 1)]
    datas = []
    for kind, j, i in kit.block_defs:
        if kind == "n1":
            # rows test comp j, cols trial comp j: -(w . grad phi_a) phi_b
            local = -(
                np.einsum(
                    "eq,eql,eqm->elm", kit.w * wvals[0], kit.grad[(j, 0)], kit.val[j]
                )
                + np.einsum(
                    "eq,eql,eqm->elm", kit.w * wvals[1], kit.grad[(j, 1)], kit.val[j]
                )
            )
        else:
            # rows test comp j, cols trial comp i: -(phi_b w_j, d_i phi_a)
            local = -np.einsum(
                "eq,eql,eqm->elm", kit.w * wvals[j], kit.grad[(j, i)], kit.val[i]
            )
        datas.append(local.ravel())
    n1 = kit.pattern.build(
        np.concatenate([datas[0], datas[1], np.zeros(sum(kit.sizes[2:]))])
    )
    n2 = kit.pattern.build(
        np.concatenate([np.zeros(kit.sizes[0] + kit.sizes[1]), *datas[2:]])
    )
    return n1, n2


class _OrientationTables:
    """Jump and one-sided value tables for the facets normal to one axis."""

    def __init__(self, pair: DivConformingPair, axis: int, npts: int):
        mesh = pair.mesh
        rule = gauss_rule(npts)
        m = pair.alpha_prime + 1
        n_norm = mesh.nx if axis == 0 else mesh.ny
        n_tang = mesh.ny if axis == 0 else mesh.nx
        coords = mesh.unique_knots_x if axis == 0 else mesh.unique_knots_y
        tang_knots = mesh.unique_knots_y if axis == 0 else mesh.unique_knots_x
        self.axis = axis
        self.n_facets = (n_norm - 1) * n_tang
        self.nq = npts
        if self.n_facets == 0:
            return

        # tangential weights/points per tangential element
        th = np.diff(tang_knots)
        tpts = tang_knots[:-1][:, None] + th[:, None] * rule.points[None, :]
        twts = th[:, None] * rule.weights[None, :]

        self.jump: dict[int, np.ndarray] = {}
        self.vplus: dict[int, np.ndarray] = {}
        self.vminus: dict[int, np.ndarray] = {}
        self.dofs: dict[int, np.ndarray] = {}
        nf = self.n_facets
        self.weights = twts[np.tile(np.arange(n_tang), n_norm - 1)]
        for comp, space in enumerate(pair.velocity_spaces):
            kv_n = space.kv_x if axis == 0 else space.kv_y
            kv_t = space.kv_y if axis == 0 else space.kv_x
            pn, pt = kv_n.degree, kv_t.degree
            spans = kv_n.element_spans
            # one-sided normal-direction rows per interior line, padded to the
            # union footprint of the two neighbor elements (pn + 2 functions)
            left = np.zeros((n_norm - 1, m + 1, pn + 2))
            right = np.zeros((n_norm - 1, m + 1, pn + 2))
            starts_n = np.empty(n_norm - 1, dtype=int)
            for i in range(1, n_norm):
                sl, sr = int(spans[i - 1]), int(spans[i])
                if sr != sl + 1:
                    raise ValueError("skeleton tables require interior multiplicity 1")
                zeta = float(coords[i])
                bl = eval_nonzero_basis(kv_n, zeta, max_deriv=m, span=sl)
                br = eval_nonzero_basis(kv_n, zeta, max_deriv=m, span=sr)
                left[i - 1, :, : pn + 1] = bl.values[: m + 1]
                right[i - 1, :, 1:] = br.values[: m + 1]
                starts_n[i - 1] = bl.first_index
            # tangential values per tangential element
            tvals = np.empty((n_tang, npts, pt + 1))
            starts_t = np.empty(n_tang, dtype=int)
            for e in range(n_tang):
                span = int(kv_t.element_spans[e])
                starts_t[e] = span - pt
                for q in range(npts):
                    tvals[e, q] = eval_nonzero_basis(
                        kv_t, float(tpts[e, q]), span=span
                    ).values[0]

            iline = np.repeat(np.arange(n_norm - 1), n_tang)
            itang = np.tile(np.arange(n_tang), n_norm - 1)
            jseg = left[iline, m, :] - right[iline, m, :]
            tv = tvals[itang]

            def compose(nrows):
                # flat local = l_t * (pn + 2) + l_n for axis 0;
                # for axis 1 the normal direction is y, so l_n is the slow index
                if axis == 0:
                    out = tv[:, :, :, None] * nrows[:, None, None, :]
                    return out.reshape(nf, npts, -1)
                out = nrows[:, None, :, None] * tv[:, :, None, :]
                return out.reshape(nf, npts, -1)

            self.jump[comp] = compose(jseg)
            self.vplus[comp] = compose(left[iline, 0, :])
            self.vminus[comp] = compose(right[iline, 0, :])
            ln = starts_n[iline][:, None] + np.arange(pn + 2)[None, :]
            lt = starts_t[itang][:, None] + np.arange(pt + 1)[None, :]
            if axis == 0:
                dof = lt[:, :, None] * space.n_x + ln[:, None, :]
            else:
                dof = ln[:, :, None] * space.n_x + lt[:, None, :]
            self.dofs[comp] = dof.reshape(nf, -1) + pair.component_offset(comp)


class SkeletonTables:
    """Both facet orientations plus the static COO pattern of J."""

    def __init__(self, pair: DivConformingPair):
        npts = bilinear_quad_points(pair)
        self.orients = [
            _OrientationTables(pair, 0, npts),
            _OrientationTables(pair, 1, npts),
        ]
        rows_list, cols_list = [], []
        for ot in self.orients:
            if ot.n_facets == 0:
                continue
            for comp in (0, 1):
                d = ot.dofs[comp]
                nloc = d.shape[1]
                rows_list.append(
                    np.broadcast_to(d[:, :, None], (d.shape[0], nloc, nloc)).ravel()
                )
                cols_list.append(
                    np.broadcast_to(d[:, None, :], (d.shape[0], nloc, nloc)).ravel()
                )
        if rows_list:
            self.pattern = CooPattern(
                np.concatenate(rows_list), np.concatenate(cols_list), (pair.n_u, pair.n_u)
            )
        else:
            self.pattern = None


def skeleton_tables(pair: DivConformingPair) -> SkeletonTables:
    if pair not in _SKELETON_CACHE:
        _SKELETON_CACHE[pair] = SkeletonTables(pair)
    return _SKELETON_CACHE[pair]


def facet_eta_values(
    pair: DivConformingPair, w_u: np.ndarray, params: StabParams
) -> list[np.ndarray]:
    """eta at every facet quadrature point, per orientation, shape (nF, nq)."""
    st = skeleton_tables(pair)
    h = pair.mesh.h
    out = []
    for ot in st.orients:
        if ot.n_facets == 0:
            out.append(np.zeros((0, ot.nq)))
            continue
        up = [np.einsum("fql,fl->fq", ot.vplus[c], w_u[ot.dofs[c]]) for c in (0, 1)]
        um = [np.einsum("fql,fl->fq", ot.vminus[c], w_u[ot.dofs[c]]) for c in (0, 1)]
        mag = 0.5 * (np.hypot(up[0], up[1]) + np.hypot(um[0], um[1]))
        u_dot_n = up[ot.axis]  # normal component is single-valued
        out.append(compute_eta(u_dot_n, mag, h, params))
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
    st = skeleton_tables(pair)
    if st.pattern is None:
        return sp.csr_matrix((n, n))
    etas = facet_eta_values(pair, w_u, params)
    datas = []
    for ot, eta in zip(st.orients, etas):
        if ot.n_facets == 0:
            continue
        scaled = ot.weights * eta
        for comp in (0, 1):
            local = np.einsum("fq,fql,fqm->flm", scaled, ot.jump[comp], ot.jump[comp])
            datas.append(local.ravel())
    return st.pattern.build(np.concatenate(datas))


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

