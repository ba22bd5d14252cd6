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
