"""Shared helpers for building reference states in tests."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from divspline import forms
from divspline.bspline import derivative_coefficients, open_knots
from divspline.mesh import build_mesh
from divspline.space import DivConformingPair, StateVector, build_pair, element_tables


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


def quadrature_divergence(pair: DivConformingPair) -> sp.csr_matrix:
    """Oracle B with (B u)_q = (div u_h, psi_q) by element Gauss quadrature.

    k' + 2 points per direction integrate the polynomial integrand exactly.
    """
    tab = element_tables(pair, pair.k_prime + 2)
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

    The blocks are those of `forms.JacobianPattern`, in its order. Returns
    (indptr, indices, positions), positions[b] the CSR data position of each
    entry of block b in its (E, L, M) order.
    """
    tab = element_tables(pair, pair.k_prime + 2)
    dofs = [tab.dofs(name) + pair.component_offset(c) for c, name in enumerate(("vx", "vy"))]
    facets = forms.facet_tables(pair)
    blocks = [(dofs[i], dofs[j]) for i, j in ((0, 0), (1, 1), (0, 1), (1, 0))]
    blocks += [(f.dofs[1 - f.axis],) * 2 for f in facets.interior]
    blocks += [(f.dofs[i], f.dofs[j]) for f in facets.boundary for i in (0, 1) for j in (0, 1)]
    n = pair.n_u
    keys = [(r.astype(np.int64)[:, :, None] * n + c[:, None, :]).ravel() for r, c in blocks]
    unique, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    ends = np.cumsum([len(k) for k in keys])
    indptr = np.searchsorted(unique // n, np.arange(n + 1))
    return indptr, unique % n, np.split(inverse, ends[:-1])


def bincount_data(pattern: forms.JacobianPattern, blocks) -> np.ndarray:
    """Oracle of `JacobianPattern.data`: the positions of the blocks and their
    local arrays, each concatenated, summed with one `np.bincount`."""
    blocks = list(blocks)
    targets = np.concatenate([pattern._blocks[b] for b, _ in blocks])
    values = np.concatenate([local.ravel() for _, local in blocks])
    return np.bincount(targets, values, minlength=pattern.nnz)


def bincount_convection(pair: DivConformingPair, u: np.ndarray):
    """Oracle of the data of `assemble_convection`'s (N1, N2) and of
    `convection_residual`: the minus sign applied to each local array, and
    the arrays concatenated and summed with one `np.bincount`."""
    kit = forms._convection_kit(pair)
    pattern = forms.jacobian_pattern(pair)
    product = forms._weighted_products
    wq = [np.matmul(kit.val[c], u[kit.dofs[c]][..., None])[..., 0] for c in (0, 1)]
    w_dot_grad = [
        wq[0][..., None] * kit.grad[j][0] + wq[1][..., None] * kit.grad[j][1] for j in (0, 1)
    ]
    n1 = [-product(kit.w, w_dot_grad[j], kit.val[j]) for j in (0, 1)]
    n2 = [
        -product(kit.w * wq[j], kit.grad[j][i], kit.val[i])
        for j, i in ((0, 0), (1, 1), (0, 1), (1, 0))
    ]
    local = [
        -np.einsum("eq,eql->el", kit.w * wq[j] * wq[0], kit.grad[j][0])
        - np.einsum("eq,eql->el", kit.w * wq[j] * wq[1], kit.grad[j][1])
        for j in (0, 1)
    ]
    dofs = np.concatenate([d.ravel() for d in kit.dofs])
    residual = np.bincount(dofs, np.concatenate([v.ravel() for v in local]), minlength=pair.n_u)
    return bincount_data(pattern, enumerate(n1)), bincount_data(pattern, enumerate(n2)), residual


def bincount_skeleton_residual(pair: DivConformingPair, u: np.ndarray, params) -> np.ndarray:
    """Oracle of `skeleton_residual`: both orientations' facet vectors
    concatenated and summed with one `np.bincount`."""
    dofs, data = [], []
    etas = forms.facet_eta_values(pair, u, params)
    for facets, eta in zip(forms.facet_tables(pair).interior, etas):
        c = 1 - facets.axis
        jump = facets.jump[c]
        u_jump = np.einsum("fql,fl->fq", jump, u[facets.dofs[c]])
        dofs.append(facets.dofs[c].ravel())
        data.append(np.einsum("fq,fql->fl", facets.weights * eta * u_jump, jump).ravel())
    return np.bincount(np.concatenate(dofs), np.concatenate(data), minlength=pair.n_u)


def bincount_nitsche_load(pair: DivConformingPair, params, u_d) -> np.ndarray:
    """Oracle of `nitsche_load`: one `np.bincount` per boundary side and
    component, summed. (One bincount over every side would add the terms of
    the DOFs two sides of a corner reach in another order.)"""
    coef = 2.0 * params.c_nit / pair.mesh.h
    g = np.zeros(pair.n_u)
    for facets in forms.facet_tables(pair).boundary:
        ud = np.array(u_d(facets.points[..., 0], facets.points[..., 1]))
        d = facets.axis
        wn = facets.weights * facets.normal
        for ca in (0, 1):
            grad = facets.grad[ca]
            cons = np.einsum("fq,fql->fl", wn * ud[ca], grad[d])
            if ca == d:
                cons += np.einsum("fq,fql->fl", wn * ud[0], grad[0]) + np.einsum(
                    "fq,fql->fl", wn * ud[1], grad[1]
                )
            pen = np.einsum("fq,fql->fl", facets.penalty * ud[ca], facets.value[ca])
            local = params.nu * (coef * pen - cons)
            g += np.bincount(facets.dofs[ca].ravel(), local.ravel(), minlength=pair.n_u)
    return g
