"""Shared helpers for building reference states in tests."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from divspline.bspline import derivative_coefficients, open_knots
from divspline.mesh import build_mesh
from divspline.space import DivConformingPair, StateVector, build_pair


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
