"""Shared helpers for building reference states in tests."""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from divspline import forms
from divspline.bspline import KnotVector, collocation_matrix, eval_nonzero_basis, open_knots
from divspline.cases import error_quad_points
from divspline.mesh import build_mesh, gauss_rule
from divspline.space import (
    DivConformingPair,
    StateVector,
    TensorSpace,
    build_pair,
    element_basis_1d,
    per_pair,
    quad_points_1d,
)


@st.composite
def breakpoints(draw):
    """Uniform or graded (random element sizes) breakpoints, 1 to 5 elements."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return np.linspace(0.0, 1.0, n + 1)
    sizes = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    return np.concatenate([[0.0], np.cumsum(sizes)])


@st.composite
def random_pairs(draw):
    """Pairs of order k' = 1..3 over independent uniform or graded breakpoints."""
    bx, by = draw(breakpoints()), draw(breakpoints())
    mesh = build_mesh(open_knots(1, bx), open_knots(1, by))
    return build_pair(mesh, draw(st.integers(1, 3)))


def curl_state(
    pair: DivConformingPair, seed: int = 0, zero_boundary_ring: bool = False
) -> StateVector:
    """Exactly divergence-free velocity state u = (d psi/dy, -d psi/dx).

    psi is a random spline in the primal space of degree k per direction over
    the same breakpoints, so both components land exactly in the velocity
    spaces. Zeroing the outermost ring of psi coefficients makes psi vanish
    on the whole boundary, hence u . n = 0 there.
    """
    k = pair.k_prime + 1
    kx = open_knots(k, pair.mesh.unique_knots_x)
    ky = open_knots(k, pair.mesh.unique_knots_y)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((ky.n_basis, kx.n_basis))
    if zero_boundary_ring:
        psi[0, :] = psi[-1, :] = 0.0
        psi[:, 0] = psi[:, -1] = 0.0
    u1 = np.stack([derivative_coefficients(ky, psi[:, ix])[1] for ix in range(kx.n_basis)], axis=1)
    u2 = -np.stack([derivative_coefficients(kx, psi[iy, :])[1] for iy in range(ky.n_basis)], axis=0)
    assert u1.shape == (pair.vx.n_y, pair.vx.n_x)
    assert u2.shape == (pair.vy.n_y, pair.vy.n_x)
    return StateVector(
        u=np.concatenate([u1.ravel(), u2.ravel()]), p=np.zeros(pair.n_p)
    )


class ElementQuadrature:
    """Oracle element tables: the 1-D `element_basis_1d` rows at npts Gauss
    points per element, expanded to 2-D.

    For the spaces "vx", "vy" and "q", basis(name, dx, dy) is the (n_elements,
    npts**2, n_local) table of d^dx d^dy basis values, aligned with
    dofs(name), weights (n_elements, npts**2) and points (n_elements,
    npts**2, 2); element ey * nx + ex, flat quadrature index qy * npts + qx,
    flat local index ly * (px + 1) + lx.
    """

    def __init__(self, pair: DivConformingPair, npts: int):
        mesh = pair.mesh
        self._eys, self._exs = np.divmod(np.arange(mesh.nx * mesh.ny), mesh.nx)
        self._spaces = {"vx": pair.vx, "vy": pair.vy, "q": pair.q}
        rule = gauss_rule(npts)
        self._b1d = {
            name: [element_basis_1d(kv, rule.points, 1) for kv in (space.kv_x, space.kv_y)]
            for name, space in self._spaces.items()
        }
        px, wx = (a.reshape(mesh.nx, npts)[self._exs] for a in quad_points_1d(pair.q.kv_x, npts))
        py, wy = (a.reshape(mesh.ny, npts)[self._eys] for a in quad_points_1d(pair.q.kv_y, npts))
        shape = (mesh.nx * mesh.ny, npts * npts)
        self.weights = (wy[:, :, None] * wx[:, None, :]).reshape(shape)
        x, y = np.broadcast_arrays(px[:, None, :], py[:, :, None])
        self.points = np.stack([x.reshape(shape), y.reshape(shape)], axis=-1)

    def basis(self, name: str, dx: int, dy: int) -> np.ndarray:
        (bx, _), (by, _) = self._b1d[name]
        bx, by = bx[self._exs, :, dx, :], by[self._eys, :, dy, :]
        out = by[:, :, None, :, None] * bx[:, None, :, None, :]
        return out.reshape(len(out), out.shape[1] * out.shape[2], -1)

    def dofs(self, name: str) -> np.ndarray:
        (bx, sx), (by, sy) = self._b1d[name]
        ix = sx[self._exs, None, None] + np.arange(bx.shape[-1])
        iy = sy[self._eys, None, None] + np.arange(by.shape[-1])[:, None]
        return (iy * self._spaces[name].n_x + ix).reshape(len(ix), -1)

    def field_values(self, name: str, coeffs_flat: np.ndarray, dx: int, dy: int) -> np.ndarray:
        """(n_elements, npts**2) values of one scalar field's (dx, dy) derivative."""
        return np.einsum("eql,el->eq", self.basis(name, dx, dy), coeffs_flat[self.dofs(name)])


element_quadrature = per_pair(ElementQuadrature)


def quadrature_error_norms(pair: DivConformingPair, state: StateVector, velocity, gradient):
    """Oracle (L2, H1-seminorm) velocity errors by element quadrature on
    `element_quadrature` at `cases.error_quad_points` points."""
    tab = element_quadrature(pair, error_quad_points(pair.k_prime))
    x, y = tab.points[..., 0], tab.points[..., 1]
    coeffs = [pair.component_coeffs(state.u, c).ravel() for c in (0, 1)]
    names = ("vx", "vy")
    values = [tab.field_values(n, c, 0, 0) - e for n, c, e in zip(names, coeffs, velocity(x, y))]
    exact = iter(gradient(x, y))  # d u1/dx, d u1/dy, d u2/dx, d u2/dy
    grads = [
        tab.field_values(n, c, dx, 1 - dx) - next(exact)
        for n, c in zip(names, coeffs)
        for dx in (1, 0)
    ]
    return tuple(
        np.sqrt(np.sum(tab.weights * sum(e * e for e in errors))) for errors in (values, grads)
    )


def quadrature_divergence(pair: DivConformingPair) -> sp.csr_matrix:
    """Oracle B with (B u)_q = (div u_h, psi_q) by element Gauss quadrature.

    k' + 2 points per direction integrate the polynomial integrand exactly.
    """
    tab = element_quadrature(pair, pair.k_prime + 2)
    qb = tab.basis("q", 0, 0)
    rows, cols, vals = [], [], []
    for name, comp, (dx, dy) in (("vx", 0, (1, 0)), ("vy", 1, (0, 1))):
        local = np.einsum("eq,eql,eqm->elm", tab.weights, qb, tab.basis(name, dx, dy))
        col_dofs = tab.dofs(name) + pair.component_offset(comp)
        rows.append(np.broadcast_to(tab.dofs("q")[:, :, None], local.shape).ravel())
        cols.append(np.broadcast_to(col_dofs[:, None, :], local.shape).ravel())
        vals.append(local.ravel())
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(pair.n_p, pair.n_u),
    )


def sorted_pattern(pair: DivConformingPair):
    """Oracle Jacobian pattern: one `np.unique` over every local-block key.

    The blocks are the element blocks of the velocity component pairs (i,
    j) = (0, 0), (1, 1), (0, 1) and (1, 0), entries in (ey, ly, my, ex, lx,
    mx) order, and the tangential component's interior-facet blocks
    (`interior_facet_tables`) on the facets normal to x and to y, entries in
    (facet, row, column) order. Returns (indptr, indices, positions),
    positions[b] the CSR data position of each entry of block b.
    """
    tab = element_quadrature(pair, pair.k_prime + 2)
    ny, nx = pair.mesh.ny, pair.mesh.nx
    factored = []  # element DOFs (E, L) as (ey, ly, ex, lx)
    for c, (name, space) in enumerate(zip(("vx", "vy"), pair.velocity_spaces)):
        dofs = tab.dofs(name) + pair.component_offset(c)
        shape = (ny, nx, space.kv_y.degree + 1, space.kv_x.degree + 1)
        factored.append(dofs.reshape(shape).transpose(0, 2, 1, 3))
    blocks = [
        (factored[i][:, :, None, :, :, None], factored[j][:, None, :, :, None, :])
        for i, j in ((0, 0), (1, 1), (0, 1), (1, 0))
    ]
    for axis in (0, 1):
        dofs = interior_facet_tables(pair, axis, 1 - axis).dofs  # the tangential component's
        blocks.append((dofs[:, :, None], dofs[:, None, :]))
    n = pair.n_u
    keys = [(r.astype(np.int64) * n + c).ravel() for r, c in blocks]
    unique, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    ends = np.cumsum([len(k) for k in keys])
    indptr = np.searchsorted(unique // n, np.arange(n + 1))
    return indptr, unique % n, np.split(inverse, ends[:-1])


def structural_product_pattern(pair: DivConformingPair):
    """Oracle streamfunction pattern: the sparse triple product |C|^T |J| |C|,
    J with ones on every entry of the velocity `forms.jacobian_pattern`.

    Returns (indptr, indices, gather, inside) in int32: gather places each
    entry (a_y, a_x) x (b_y, b_x) in the x-major psi band of
    `forms.StreamfunctionPattern.reduce`, entry ((a_x W_x' + e_x) N_y' + a_y)
    W_y' + e_y with e = b - a + P', and inside marks the entries that lie in
    the pattern's psi bands.
    """
    velocity = forms.jacobian_pattern(pair)
    psi = forms.streamfunction_pattern(pair)
    curl = abs(pair.curl)
    product = (curl.T @ velocity.csr(np.ones(velocity.nnz)) @ curl).tocsr()
    product.sort_indices()
    indptr, indices = (a.astype(np.int32) for a in (product.indptr, product.indices))
    n_y, n_x = pair.vx.n_y - 1, pair.vy.n_x - 1  # interior psi coefficients a direction
    rows = np.repeat(np.arange(psi.shape[0], dtype=np.int32), np.diff(indptr))
    (a_y, a_x), (b_y, b_x) = (np.divmod(k, n_x) for k in (rows, indices))
    (p_y, w_y), (p_x, w_x) = psi.bands
    e_y, e_x = b_y - a_y + p_y, b_x - a_x + p_x
    inside = (e_y >= 0) & (e_y < w_y) & (e_x >= 0) & (e_x < w_x)
    return indptr, indices, ((a_x * w_x + e_x) * n_y + a_y) * w_y + e_y, inside


def scatter_oracle(pair: DivConformingPair, blocks=(), terms=()) -> np.ndarray:
    """Oracle data array on the Jacobian pattern, by `np.add.at` onto the
    positions of `sorted_pattern`.

    blocks holds (b, local), local block b's values in its entry order;
    terms holds Kronecker terms (i, j, a_y, a_x) as in
    `forms.JacobianPattern.kron_data`, each nonzero of kron(a_y, a_x) found
    in the sorted (row, column) keys.
    """
    indptr, indices, positions = sorted_pattern(pair)
    n = pair.n_u
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + indices
    out = np.zeros(len(indices))
    for b, local in blocks:
        np.add.at(out, positions[b], local.ravel())
    for i, j, a_y, a_x in terms:
        block = sp.coo_matrix(np.kron(a_y, a_x))
        rows = block.row.astype(np.int64) + pair.component_offset(i)
        at = np.searchsorted(keys, rows * n + block.col + pair.component_offset(j))
        assert np.array_equal(keys[at], rows * n + block.col + pair.component_offset(j))
        np.add.at(out, at, block.data)
    return out


def sum_factorized_blocks(tab, w: np.ndarray, j: int, i: int, c: int) -> np.ndarray:
    """Oracle element blocks of -int w (d_c phi_a) phi_b, phi_a of component
    j and phi_b of component i, w on the 1-D tables' tensor grid of points,
    in `sorted_pattern`'s element-block order (ey, ly, my, ex, lx, mx): the
    x points contracted first, then the y points, each one batched matmul."""
    (xa, ya), (xb, yb) = tab.rows[j], tab.rows[i]
    (nx, nq, _, lx), (ny, _, _, ly) = xa.shape, ya.shape
    mx, my = xb.shape[-1], yb.shape[-1]
    w_x = tab.weights_1d[0].reshape(nx, nq, 1, 1)
    w_y = -tab.weights_1d[1].reshape(ny, nq, 1, 1)
    p_x = (w_x * xa[:, :, 1 - c, :, None] * xb[:, :, 0, None, :]).reshape(nx, nq, lx * mx)
    p_y = (w_y * ya[:, :, c, :, None] * yb[:, :, 0, None, :]).reshape(ny, nq, ly * my)
    t = np.matmul(p_x.transpose(0, 2, 1), w.T.reshape(nx, nq, ny * nq))  # (nx, lx mx, ny nq)
    return np.matmul(p_y.transpose(0, 2, 1), t.reshape(nx * lx * mx, ny, nq).transpose(1, 2, 0))


def oracle_operator_data(pair: DivConformingPair, u: np.ndarray, params) -> dict:
    """Data arrays of K (with and without Nitsche terms), M, N1, N2 and J at
    u by `scatter_oracle`: the Kronecker terms of `forms._strain_terms`,
    `forms._boundary_terms` and the 1-D masses; `sum_factorized_blocks` for
    N1 and N2; J's facet blocks from `interior_facet_tables` weighted by
    `forms.facet_eta_values`."""
    nu = params.nu
    strain = [(i, j, nu * a_y, a_x) for i, j, a_y, a_x in forms._strain_terms(pair)]
    bnd = forms._boundary_terms(pair)
    coef = 2.0 * nu * params.c_nit / pair.mesh.h
    g = [(i, j, -nu * a_y, a_x) for i, j, a_y, a_x in bnd["G"]]
    nitsche = (
        g + [(j, i, a_y.T, a_x.T) for i, j, a_y, a_x in g]
        + [(i, j, coef * a_y, a_x) for i, j, a_y, a_x in bnd["P_h"]]
    )
    masses = [(c, c, s.kv_y.mass, s.kv_x.mass) for c, s in enumerate(pair.velocity_spaces)]
    tab = forms._convection_tables(pair)
    w = forms._convection_values(pair, u)
    n2 = [(j, sum_factorized_blocks(tab, w[j], j, j, j)) for j in (0, 1)]
    n1 = [(j, local + sum_factorized_blocks(tab, w[1 - j], j, j, 1 - j)) for j, local in n2]
    for b, (j, i) in ((2, (0, 1)), (3, (1, 0))):
        n2.append((b, sum_factorized_blocks(tab, w[j], j, i, i)))
    j_blocks = []
    for axis, eta in enumerate(forms.facet_eta_values(pair, u, params)):
        t = interior_facet_tables(pair, axis, 1 - axis)
        weighted = t.weights * eta.T.reshape(t.weights.shape)  # lines to facets
        j_blocks.append((4 + axis, np.einsum("fq,fqa,fqb->fab", weighted, t.jump, t.jump)))
    return {
        "K": scatter_oracle(pair, terms=strain + nitsche),
        "K without Nitsche terms": scatter_oracle(pair, terms=strain),
        "M": scatter_oracle(pair, terms=masses),
        "N1": scatter_oracle(pair, blocks=n1),
        "N2": scatter_oracle(pair, blocks=n2),
        "J": scatter_oracle(pair, blocks=j_blocks),
    }


def _assembled(pair: DivConformingPair, blocks) -> sp.csr_matrix:
    """Sum of local blocks (row DOFs (E, L), column DOFs (E, M), values (E, L, M))."""
    rows, cols, vals = [], [], []
    for r, c, v in blocks:
        rows.append(np.broadcast_to(r[:, :, None], v.shape).ravel())
        cols.append(np.broadcast_to(c[:, None, :], v.shape).ravel())
        vals.append(v.ravel())
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(pair.n_u, pair.n_u),
    )


def quadrature_convection(pair: DivConformingPair, u: np.ndarray):
    """Oracle (N1, N2, N1(u) u) by element quadrature on `element_quadrature`.

    w at the points is gathered from the element tables, every local array
    is an einsum over the points, and the sums are COO and `np.bincount`.
    """
    tab = element_quadrature(pair, forms.convection_quad_points(pair.k_prime))
    names = ("vx", "vy")
    val = [tab.basis(name, 0, 0) for name in names]
    grad = [(tab.basis(name, 1, 0), tab.basis(name, 0, 1)) for name in names]
    dofs = [tab.dofs(name) + pair.component_offset(c) for c, name in enumerate(names)]
    w = tab.weights
    wq = [np.einsum("eql,el->eq", val[c], u[dofs[c]]) for c in (0, 1)]
    # -(w . grad phi_a) phi_b and -(phi_b w_j, d_i phi_a)
    n1 = _assembled(
        pair,
        (
            (dofs[j], dofs[j], -np.einsum("eq,eqa,eqb->eab", w * wq[i], grad[j][i], val[j]))
            for j in (0, 1)
            for i in (0, 1)
        ),
    )
    n2 = _assembled(
        pair,
        (
            (dofs[j], dofs[i], -np.einsum("eq,eqa,eqb->eab", w * wq[j], grad[j][i], val[i]))
            for j in (0, 1)
            for i in (0, 1)
        ),
    )
    local = [
        -np.einsum("eq,eql->el", w * wq[j] * wq[0], grad[j][0])
        - np.einsum("eq,eql->el", w * wq[j] * wq[1], grad[j][1])
        for j in (0, 1)
    ]
    residual = np.bincount(
        np.concatenate([d.ravel() for d in dofs]),
        np.concatenate([v.ravel() for v in local]),
        minlength=pair.n_u,
    )
    return n1, n2, residual


def interior_facet_tables(pair: DivConformingPair, axis: int, comp: int):
    """Oracle tables of one velocity component on the interior facets normal
    to axis, facet by facet from `element_basis_1d`.

    Facet f = i * n_t + e lies on interior knot line i + 1 (between normal
    elements i and i + 1) and tangential element e, with k' + 2 Gauss
    points. Returns dofs (F, L) over the functions of both sides, weights
    (F, Q), and (F, Q, L) tables: the values from element i and from element
    i + 1, and the jump of the (alpha' + 1)-th normal derivative (element i
    minus element i + 1).
    """
    space = pair.velocity_spaces[comp]
    kv_n, kv_t = (space.kv_x, space.kv_y) if axis == 0 else (space.kv_y, space.kv_x)
    m = pair.alpha_prime + 1
    rule = gauss_rule(pair.k_prime + 2)
    normal, first_n = element_basis_1d(kv_n, (0.0, 1.0), m)
    tang, first_t = element_basis_1d(kv_t, rule.points)
    h_t = np.diff(kv_t.unique_knots)
    width = kv_n.degree + 2
    out = {"dofs": [], "weights": [], "before": [], "after": [], "jump": []}
    for i in range(1, kv_n.n_elements):
        idx_n = first_n[i - 1] + np.arange(width)
        before = np.zeros((m + 1, width))
        before[:, :-1] = normal[i - 1, 1]  # element i - 1 at its right end
        after = np.zeros((m + 1, width))
        after[:, 1:] = normal[i, 0]  # element i at its left end
        for e in range(kv_t.n_elements):
            idx_t = first_t[e] + np.arange(kv_t.degree + 1)
            t = tang[e, :, 0]  # (Q, tangential functions)
            if axis == 0:  # dof = idx_t * n_x + idx_n
                dofs = idx_t[:, None] * space.n_x + idx_n[None, :]
                table = lambda row: (t[:, :, None] * row[None, None, :]).reshape(len(t), -1)
            else:  # dof = idx_n * n_x + idx_t
                dofs = idx_n[:, None] * space.n_x + idx_t[None, :]
                table = lambda row: (row[None, :, None] * t[:, None, :]).reshape(len(t), -1)
            out["dofs"].append(dofs.ravel() + pair.component_offset(comp))
            out["weights"].append(h_t[e] * rule.weights)
            out["before"].append(table(before[0]))
            out["after"].append(table(after[0]))
            out["jump"].append(table(before[m] - after[m]))
    n_facets = (kv_n.n_elements - 1) * kv_t.n_elements
    n_local = width * (kv_t.degree + 1)
    shapes = {"dofs": (n_local,), "weights": (len(rule.points),)}
    return SimpleNamespace(
        **{
            key: np.reshape(
                np.array(rows, dtype=np.intp if key == "dofs" else float),
                (n_facets, *shapes.get(key, (len(rule.points), n_local))),
            )
            for key, rows in out.items()
        }
    )


def quadrature_skeleton(pair: DivConformingPair, u: np.ndarray, params):
    """Oracle (eta, J, J(u) u) by facet quadrature on `interior_facet_tables`.

    eta[axis] (F, Q) on the facets normal to axis takes u . n from element
    i and |u| as the mean of both sides; J and J(u) u sum the tangential
    component's facet blocks with COO and `np.bincount`.
    """
    etas, blocks, dofs, data = [], [], [], []
    for axis in (0, 1):
        tables = [interior_facet_tables(pair, axis, c) for c in (0, 1)]
        before, after = (
            [np.einsum("fql,fl->fq", getattr(t, side), u[t.dofs]) for t in tables]
            for side in ("before", "after")
        )
        mag = 0.5 * (np.hypot(*before) + np.hypot(*after))
        eta = forms.compute_eta(before[axis], mag, pair.mesh.h, params)
        etas.append(eta)
        t = tables[1 - axis]
        weighted = t.weights * eta
        blocks.append((t.dofs, t.dofs, np.einsum("fq,fqa,fqb->fab", weighted, t.jump, t.jump)))
        u_jump = np.einsum("fql,fl->fq", t.jump, u[t.dofs])
        dofs.append(t.dofs.ravel())
        data.append(np.einsum("fq,fql->fl", weighted * u_jump, t.jump).ravel())
    residual = np.bincount(np.concatenate(dofs), np.concatenate(data), minlength=pair.n_u)
    return etas, _assembled(pair, blocks), residual


def quadrature_constant_operators(pair: DivConformingPair, f):
    """Oracle (S, M, body-force load) by element quadrature on `element_quadrature`.

    k' + 2 Gauss points per direction integrate S and M exactly; the local
    arrays are einsums over the points, summed with COO and `np.bincount`.
    """
    tab = element_quadrature(pair, pair.k_prime + 2)
    names = ("vx", "vy")
    dofs = [tab.dofs(name) + pair.component_offset(c) for c, name in enumerate(names)]
    val = [tab.basis(name, 0, 0) for name in names]
    dx = [tab.basis(name, 1, 0) for name in names]
    dy = [tab.basis(name, 0, 1) for name in names]

    def products(a, b):
        return np.einsum("eq,eqa,eqb->eab", tab.weights, a, b)

    # 2 int [2 e11(u) e11(v) + 2 e22 e22 + 4 e12 e12] per component block
    k12 = products(dy[0], dx[1])
    strain = _assembled(
        pair,
        [
            (dofs[0], dofs[0], 2.0 * products(dx[0], dx[0]) + products(dy[0], dy[0])),
            (dofs[1], dofs[1], 2.0 * products(dy[1], dy[1]) + products(dx[1], dx[1])),
            (dofs[0], dofs[1], k12),
            (dofs[1], dofs[0], k12.transpose(0, 2, 1)),
        ],
    )
    mass = _assembled(pair, [(dofs[c], dofs[c], products(val[c], val[c])) for c in (0, 1)])
    fv = f(tab.points[..., 0], tab.points[..., 1])
    load = np.bincount(
        np.concatenate([d.ravel() for d in dofs]),
        np.concatenate(
            [np.einsum("eq,eql->el", tab.weights * fv[c], val[c]).ravel() for c in (0, 1)]
        ),
        minlength=pair.n_u,
    )
    return strain, mass, load


def boundary_facet_tables(pair: DivConformingPair, axis: int, comp: int):
    """Oracle tables of one velocity component on the boundary facets normal
    to axis, facet by facet from `element_basis_1d`.

    Facet f = s * n_t + e lies on side s (0 at the low end of the normal
    axis, 1 at the high end) and tangential element e, with k' + 2 Gauss
    points. Returns dofs (F, L) over the boundary element's functions,
    normal (F,) (the outward sign), weights and penalty (F, Q) (the weights
    times h / h_n, h_n the boundary element's length normal to the facet),
    points (F, Q, 2) and (F, Q, L) tables value, d_x and d_y.
    """
    space = pair.velocity_spaces[comp]
    kv_n, kv_t = (space.kv_x, space.kv_y) if axis == 0 else (space.kv_y, space.kv_x)
    rule = gauss_rule(pair.k_prime + 2)
    normal, first_n = element_basis_1d(kv_n, (0.0, 1.0), 1)
    tang, first_t = element_basis_1d(kv_t, rule.points, 1)
    knots_n, knots_t = kv_n.unique_knots, kv_t.unique_knots
    keys = ("dofs", "normal", "weights", "penalty", "points", "value", "d_x", "d_y")
    out = {key: [] for key in keys}
    for side, e_n in enumerate((0, kv_n.n_elements - 1)):
        row = normal[e_n, side]  # (derivative, function) at the side
        idx_n = first_n[e_n] + np.arange(kv_n.degree + 1)
        h_n = knots_n[e_n + 1] - knots_n[e_n]
        for e in range(kv_t.n_elements):
            idx_t = first_t[e] + np.arange(kv_t.degree + 1)
            t = tang[e]  # (Q, derivative, tangential functions)
            if axis == 0:  # dof = idx_t * n_x + idx_n
                dofs = idx_t[:, None] * space.n_x + idx_n[None, :]
                table = lambda dn, dt: (t[:, dt, :, None] * row[dn][None, None, :]).reshape(len(t), -1)
            else:  # dof = idx_n * n_x + idx_t
                dofs = idx_n[:, None] * space.n_x + idx_t[None, :]
                table = lambda dn, dt: (row[dn][None, :, None] * t[:, dt, None, :]).reshape(len(t), -1)
            h_t = knots_t[e + 1] - knots_t[e]
            points = np.empty((len(rule.points), 2))
            points[:, axis] = knots_n[-1 if side else 0]
            points[:, 1 - axis] = knots_t[e] + h_t * rule.points
            grad = (table(1, 0), table(0, 1))  # normal, tangential derivative
            out["dofs"].append(dofs.ravel() + pair.component_offset(comp))
            out["normal"].append(2.0 * side - 1.0)
            out["weights"].append(h_t * rule.weights)
            out["penalty"].append(h_t * rule.weights * pair.mesh.h / h_n)
            out["points"].append(points)
            out["value"].append(table(0, 0))
            out["d_x"].append(grad[axis])
            out["d_y"].append(grad[1 - axis])
    return SimpleNamespace(**{key: np.array(out[key]) for key in keys})


def quadrature_boundary_operators(pair: DivConformingPair, params, u_d):
    """Oracle (G, P, P_h, Nitsche load) by quadrature on `boundary_facet_tables`.

    G[a, b] = (2 n . grad_s phi_b, phi_a)_bnd, P the boundary mass, P_h the
    penalty mass (P with each facet weighted by h / h_n) and the load
    -(2 nu n . grad_s v, uD) + (2 nu C_nit / h_n v, uD); sums with COO and
    `np.bincount`.
    """
    coef = 2.0 * params.c_nit / pair.mesh.h
    g, p, p_h, load = [], [], [], np.zeros(pair.n_u)
    for d in (0, 1):
        tables = [boundary_facet_tables(pair, d, c) for c in (0, 1)]
        wn = tables[0].weights * tables[0].normal[:, None]
        points = tables[0].points
        ud = np.array(u_d(points[..., 0], points[..., 1]))
        for ca, ta in enumerate(tables):
            grad_a = (ta.d_x, ta.d_y)
            for blocks, w in ((p, ta.weights), (p_h, ta.penalty)):
                blocks.append((ta.dofs, ta.dofs, np.einsum("fq,fqa,fqb->fab", w, ta.value, ta.value)))
            for cb, tb in enumerate(tables):
                # component ca of 2 n . grad_s phi_b is n_d (d_d phi_b,ca + d_ca phi_b,d)
                grad_b = (tb.d_x, tb.d_y)
                derivs = ([d] if ca == cb else []) + ([ca] if cb == d else [])
                for i in derivs:
                    g.append((ta.dofs, tb.dofs, np.einsum("fq,fqa,fqb->fab", wn, ta.value, grad_b[i])))
            # 2 (n . grad_s phi_a) . uD = n_d (d_d phi_a uD_ca + [ca = d] grad phi_a . uD)
            cons = np.einsum("fq,fql->fl", wn * ud[ca], grad_a[d])
            if ca == d:
                cons += np.einsum("fq,fql->fl", wn * ud[0], grad_a[0])
                cons += np.einsum("fq,fql->fl", wn * ud[1], grad_a[1])
            pen = np.einsum("fq,fql->fl", ta.penalty * ud[ca], ta.value)
            local = params.nu * (coef * pen - cons)
            load += np.bincount(ta.dofs.ravel(), local.ravel(), minlength=pair.n_u)
    return _assembled(pair, g), _assembled(pair, p), _assembled(pair, p_h), load


# ------------------------------------------------ facets, projections, traces
# Element- and facet-level views of the mesh and fields that only tests use:
# the package works on 1-D breakpoints and tables instead.


@dataclass(frozen=True)
class Facet:
    """One facet segment of the mesh skeleton.

    axis is the direction of the facet normal (0 for vertical facets, 1 for
    horizontal ones); coordinate is the position along that axis and span the
    segment in the other axis. Each interior facet stores its two neighbors
    with the convention n = n+ = -n-, the plus side being the element with
    the smaller index along the axis; minus_element is None on the boundary,
    where the normal points out of the domain. Element ids are ey * nx + ex.
    """

    axis: int
    coordinate: float
    span: tuple[float, float]
    plus_element: int
    minus_element: int | None
    normal: tuple[float, float]

    @property
    def is_boundary(self) -> bool:
        return self.minus_element is None


def element_boxes(mesh) -> np.ndarray:
    """(nx ny, 4) array of [x0, x1, y0, y1], element id = ey * nx + ex."""
    ux, uy = mesh.unique_knots_x, mesh.unique_knots_y
    x0, y0 = np.meshgrid(ux[:-1], uy[:-1])
    x1, y1 = np.meshgrid(ux[1:], uy[1:])
    return np.stack([a.ravel() for a in (x0, x1, y0, y1)], axis=1)


def interior_facets(mesh) -> tuple[Facet, ...]:
    """Vertical facets (normal +e_x, plus side left) line by line, then
    horizontal ones (normal +e_y, plus side below) column by column."""
    ux, uy, nx = mesh.unique_knots_x, mesh.unique_knots_y, mesh.nx
    vertical = [
        Facet(0, float(ux[i]), (float(uy[ey]), float(uy[ey + 1])), ey * nx + i - 1, ey * nx + i, (1.0, 0.0))
        for i in range(1, mesh.nx)
        for ey in range(mesh.ny)
    ]
    horizontal = [
        Facet(1, float(uy[j]), (float(ux[ex]), float(ux[ex + 1])), (j - 1) * nx + ex, j * nx + ex, (0.0, 1.0))
        for ex in range(mesh.nx)
        for j in range(1, mesh.ny)
    ]
    return tuple(vertical + horizontal)


def boundary_facets(mesh) -> tuple[Facet, ...]:
    """Left/right facets per row, then bottom/top facets per column."""
    ux, uy, nx, ny = mesh.unique_knots_x, mesh.unique_knots_y, mesh.nx, mesh.ny
    a1, b1, a2, b2 = mesh.domain_extent
    facets = []
    for ey in range(ny):
        yspan = (float(uy[ey]), float(uy[ey + 1]))
        facets.append(Facet(0, a1, yspan, ey * nx, None, (-1.0, 0.0)))
        facets.append(Facet(0, b1, yspan, ey * nx + nx - 1, None, (1.0, 0.0)))
    for ex in range(nx):
        xspan = (float(ux[ex]), float(ux[ex + 1]))
        facets.append(Facet(1, a2, xspan, ex, None, (0.0, -1.0)))
        facets.append(Facet(1, b2, xspan, (ny - 1) * nx + ex, None, (0.0, 1.0)))
    return tuple(facets)


def facet_quadrature(facet: Facet, rule) -> tuple[np.ndarray, np.ndarray]:
    """Physical quadrature points (n, 2) and weights on a facet segment."""
    s0, s1 = facet.span
    pts = np.empty((len(rule.points), 2))
    pts[:, facet.axis] = facet.coordinate
    pts[:, 1 - facet.axis] = s0 + (s1 - s0) * rule.points
    return pts, (s1 - s0) * rule.weights


def velocity_gradient(v) -> np.ndarray:
    """grad[..., i, j] = d u_j / d x_i from `space.eval_velocity`'s derivatives."""
    return np.stack([v.derivs[..., 1, 0, :], v.derivs[..., 0, 1, :]], axis=-2)


def facet_normal_derivative_jump(
    pair: DivConformingPair, state: StateVector, facet: Facet, qp, order: int | None = None
) -> np.ndarray:
    """Jump of the order-th pure normal derivative of u_h across a facet.

    qp holds one point (shape (2,)) or an array of points (shape (..., 2))
    on the facet. Returns [[d^m u / d n^m]](qp) = plus side minus minus
    side, point axes leading and the two components last, from one-sided
    limits of the polynomial pieces of the two neighboring elements.
    """
    if facet.is_boundary:
        raise ValueError("jump is defined on interior facets only")
    if order is None:
        order = pair.alpha_prime + 1
    axis = facet.axis
    sign = facet.normal[axis] ** order
    qp = np.asarray(qp, dtype=float)
    sides = np.array([facet.plus_element, facet.minus_element])
    e_n = sides % pair.mesh.nx if axis == 0 else sides // pair.mesh.nx
    jump = np.empty(qp.shape[:-1] + (2,))
    for comp, space in enumerate(pair.velocity_spaces):
        kv_n, kv_t = (space.kv_x, space.kv_y) if axis == 0 else (space.kv_y, space.kv_x)
        bn = eval_nonzero_basis(kv_n, facet.coordinate, max_deriv=order, span=kv_n.element_spans[e_n])
        bt = eval_nonzero_basis(kv_t, qp[..., 1 - axis])
        grid = pair.component_coeffs(state.u, comp)
        grid = grid if axis == 0 else grid.T  # indexed [tangential, normal]
        rows = bt.first_index[..., None, None] + np.arange(kv_t.degree + 1)[:, None]
        one_sided = []
        for side in (0, 1):
            block = grid[rows, bn.first_index[side] + np.arange(kv_n.degree + 1)]
            one_sided.append((bt.values[..., :1, :] @ block @ bn.values[side, order])[..., 0])
        jump[..., comp] = one_sided[0] - one_sided[1]
    return sign * jump


def component_l2_projection(space: TensorSpace, f, npts: int) -> np.ndarray:
    """L2 projection of a scalar function onto a tensor space, flat coeffs."""
    px, wx = quad_points_1d(space.kv_x, npts)
    py, wy = quad_points_1d(space.kv_y, npts)
    cx = collocation_matrix(space.kv_x, px)[0]
    cy = collocation_matrix(space.kv_y, py)[0]
    rhs = cy.T @ (wy[:, None] * f(px[None, :], py[:, None]) * wx[None, :]) @ cx
    m2d = sp.kron(sp.csr_matrix(space.kv_y.mass), sp.csr_matrix(space.kv_x.mass)).tocsc()
    return sp.linalg.spsolve(m2d, rhs.ravel())


def interpolate_field(pair: DivConformingPair, u) -> StateVector:
    """Component-wise L2 projection of an analytic velocity field.

    u maps broadcastable arrays (x, y) to the pair (u1, u2). The result is
    generally not discretely divergence-free.
    """
    npts = pair.k_prime + 3
    c1 = component_l2_projection(pair.vx, lambda x, y: u(x, y)[0], npts)
    c2 = component_l2_projection(pair.vy, lambda x, y: u(x, y)[1], npts)
    return StateVector(u=np.concatenate([c1, c2]), p=np.zeros(pair.n_p))


def derivative_coefficients(kv: KnotVector, coeffs: np.ndarray) -> tuple[KnotVector, np.ndarray]:
    """Coefficients of the derivative spline on the reduced knot vector.

    For s(x) = sum_i c_i N_{i,k}, returns (kv', c') with s'(x) = sum c'_i
    N_{i,k-1} over the knots with the two end knots dropped.
    """
    k = kv.degree
    c = np.asarray(coeffs, dtype=float)
    denom = kv.knots[k + 1 : k + len(c)] - kv.knots[1 : len(c)]
    return KnotVector(degree=k - 1, knots=kv.knots[1:-1]), k * (c[1:] - c[:-1]) / denom


def assemble_boundary_mass(pair: DivConformingPair) -> sp.csr_matrix:
    """Boundary mass P with u^T P u = ||u||^2 over the boundary facets, on
    the pair's Jacobian pattern from `forms._boundary_terms`."""
    pattern = forms.jacobian_pattern(pair)
    return pattern.csr(pattern.kron_data(forms._boundary_terms(pair)["P"]))
