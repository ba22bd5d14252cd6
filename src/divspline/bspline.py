"""Univariate B-spline knot vectors and Cox-de Boor basis evaluation.

Open knot vectors only. Basis values and derivatives are computed with the
standard recursion over the derivative knot differences (exact, O(k^2) per
point) rather than by symbolic differentiation. Evaluation at a knot follows
the half-open convention [zeta_j, zeta_{j+1}) with closure at the right end
of the domain; one-sided limits at interior knots are obtained by passing an
explicit span index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "KnotVector",
    "BasisEval",
    "make_open_uniform",
    "open_knots",
    "find_span",
    "basis_all_derivatives",
    "eval_nonzero_basis",
    "derivative_coefficients",
    "derivative_matrix",
    "collocation_matrix",
    "basis_integrals",
]


def find_span(knots: np.ndarray, degree: int, x: float) -> int:
    """Return the knot span index i with knots[i] <= x < knots[i+1].

    The search is restricted to the nondegenerate spans of an open knot
    vector. Queries at the right end of the domain are clamped to the last
    nondegenerate span (left-limit convention).
    """
    low = degree
    high = len(knots) - 1 - degree
    if x >= knots[high]:
        return high - 1
    if x <= knots[low]:
        return low
    span = (low + high) // 2
    while x < knots[span] or x >= knots[span + 1]:
        if x < knots[span]:
            high = span
        else:
            low = span
        span = (low + high) // 2
    return span


def basis_all_derivatives(
    knots: np.ndarray, degree: int, x: float, span: int, max_deriv: int
) -> np.ndarray:
    """Evaluate the degree+1 nonzero basis functions and their derivatives.

    Parameters
    ----------
    knots : ndarray
        Full open knot sequence.
    degree : int
        Polynomial degree k.
    x : float
        Evaluation point. It may lie outside [knots[span], knots[span+1]];
        in that case the polynomial pieces active on that span are extended,
        which is what one-sided limit evaluation at a knot relies on.
    span : int
        Knot span whose polynomial pieces are evaluated.
    max_deriv : int
        Highest derivative order requested. Orders above the degree are
        returned as exact zeros.

    Returns
    -------
    ders : ndarray
        Array of shape (max_deriv+1, degree+1); row d holds the d-th
        derivatives of basis functions span-degree .. span at x.
    """
    left = np.empty(degree)
    right = np.empty(degree)
    ndu = np.empty((degree + 1, degree + 1))
    a = np.empty((2, degree + 1))
    ders = np.zeros((max_deriv + 1, degree + 1))

    ndu[0, 0] = 1.0
    for j in range(degree):
        left[j] = x - knots[span - j]
        right[j] = knots[span + 1 + j] - x
        saved = 0.0
        for r in range(j + 1):
            # lower triangle stores reciprocals of the knot differences
            ndu[j + 1, r] = 1.0 / (right[r] + left[j - r])
            temp = ndu[r, j] * ndu[j + 1, r]
            ndu[r, j + 1] = saved + right[r] * temp
            saved = left[j - r] * temp
        ndu[j + 1, j + 1] = saved

    ders[0, :] = ndu[:, degree]

    ne = min(max_deriv, degree)
    for r in range(degree + 1):
        s1 = 0
        s2 = 1
        a[0, 0] = 1.0
        for k in range(1, ne + 1):
            d = 0.0
            rk = r - k
            pk = degree - k
            if r >= k:
                a[s2, 0] = a[s1, 0] * ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else degree - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) * ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] * ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    fac = float(degree)
    for k in range(1, ne + 1):
        ders[k, :] *= fac
        fac *= degree - k
    return ders


@dataclass(frozen=True)
class BasisEval:
    """Nonzero basis values/derivatives at one point.

    values[d, j] is the d-th derivative of basis function first_index + j.
    """

    span: int
    degree: int
    values: np.ndarray

    @property
    def first_index(self) -> int:
        return self.span - self.degree


@dataclass(frozen=True)
class KnotVector:
    """Open nondecreasing knot sequence with degree and regularity metadata."""

    degree: int
    knots: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "knots", np.ascontiguousarray(self.knots, dtype=float))
        k, xi = self.degree, self.knots
        if k < 1:
            raise ValueError(f"degree must be >= 1, got {k}")
        if np.any(np.diff(xi) < 0):
            raise ValueError("knots must be nondecreasing")
        if len(xi) < 2 * (k + 1):
            raise ValueError("too few knots for an open knot vector")
        if xi[k] != xi[0] or xi[-k - 1] != xi[-1]:
            raise ValueError("first and last knots must repeat degree+1 times")
        if xi[k + 1] == xi[0] or xi[-k - 2] == xi[-1]:
            raise ValueError("end knots repeat more than degree+1 times")
        if np.any(self.regularity[1:-1] < 0):
            raise ValueError("interior knot multiplicity exceeds the degree")

    @cached_property
    def unique_knots(self) -> np.ndarray:
        return np.unique(self.knots)

    @cached_property
    def multiplicities(self) -> np.ndarray:
        return np.unique(self.knots, return_counts=True)[1]

    @cached_property
    def regularity(self) -> np.ndarray:
        """Per unique knot: smoothness exponent alpha_j = degree - multiplicity."""
        reg = self.degree - self.multiplicities
        reg[0] = -1
        reg[-1] = -1
        return reg

    @property
    def n_basis(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def n_elements(self) -> int:
        return len(self.unique_knots) - 1

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    @cached_property
    def element_spans(self) -> np.ndarray:
        """Knot span index of each element (between consecutive unique knots)."""
        mids = 0.5 * (self.unique_knots[:-1] + self.unique_knots[1:])
        return np.array([find_span(self.knots, self.degree, x) for x in mids])

    @cached_property
    def element_sizes(self) -> np.ndarray:
        return np.diff(self.unique_knots)

    def find_span(self, x: float) -> int:
        return find_span(self.knots, self.degree, x)


def eval_nonzero_basis(
    kv: KnotVector, x: float, max_deriv: int = 0, span: int | None = None
) -> BasisEval:
    """Evaluate the degree+1 basis functions whose support contains x.

    At a knot the right-limit convention applies, except at the right end of
    the domain where the left limit is used. Passing an explicit span forces
    evaluation of that span's polynomial pieces, which yields one-sided
    limits at interior knots.
    """
    if span is None:
        a, b = kv.domain
        tol = 1e-12 * max(abs(a), abs(b), 1.0)
        if x < a - tol or x > b + tol:
            raise ValueError(f"x={x} outside the knot range [{a}, {b}]")
        x = min(max(x, a), b)
        span = kv.find_span(x)
    ders = basis_all_derivatives(kv.knots, kv.degree, x, span, max_deriv)
    return BasisEval(span=span, degree=kv.degree, values=ders)


def open_knots(
    degree: int, breakpoints: np.ndarray, interior_multiplicity: int = 1
) -> KnotVector:
    """Open knot vector over given breakpoints with uniform interior multiplicity."""
    bp = np.asarray(breakpoints, dtype=float)
    if len(bp) < 2 or np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must be strictly increasing, at least two")
    knots = np.concatenate(
        [
            np.repeat(bp[0], degree + 1),
            np.repeat(bp[1:-1], interior_multiplicity),
            np.repeat(bp[-1], degree + 1),
        ]
    )
    return KnotVector(degree=degree, knots=knots)


def make_open_uniform(
    degree: int, num_elements: int, interval: tuple[float, float] = (0.0, 1.0)
) -> KnotVector:
    """Open knot vector with num_elements equal spans and maximal smoothness."""
    if num_elements < 1:
        raise ValueError(f"num_elements must be >= 1, got {num_elements}")
    a, b = interval
    return open_knots(degree, np.linspace(a, b, num_elements + 1))


def derivative_coefficients(kv: KnotVector, coeffs: np.ndarray) -> tuple[KnotVector, np.ndarray]:
    """Coefficients of the derivative spline on the reduced knot vector.

    For s(x) = sum_i c_i N_{i,k}, returns (kv', c') with s'(x) = sum c'_i N_{i,k-1}
    over knots with the two end knots dropped.
    """
    k = kv.degree
    c = np.asarray(coeffs, dtype=float)
    denom = kv.knots[k + 1 : k + len(c)] - kv.knots[1:len(c)]
    dc = k * (c[1:] - c[:-1]) / denom
    return KnotVector(degree=k - 1, knots=kv.knots[1:-1]), dc


def derivative_matrix(kv: KnotVector):
    """Sparse (n-1, n) matrix D mapping coefficients to derivative coefficients.

    D @ c equals derivative_coefficients(kv, c)[1]; each row holds the two
    entries -/+ k / (xi_{i+k+1} - xi_{i+1}).
    """
    from scipy.sparse import diags

    k, n = kv.degree, kv.n_basis
    scale = k / (kv.knots[k + 1 : k + n] - kv.knots[1:n])
    return diags([-scale, scale], [0, 1], shape=(n - 1, n), format="csr")


def collocation_matrix(kv: KnotVector, pts: np.ndarray, deriv: int = 0):
    """Sparse matrix C with C[q, i] = d-th derivative of basis i at pts[q]."""
    from scipy.sparse import csr_matrix

    pts = np.asarray(pts, dtype=float)
    nq, k = len(pts), kv.degree
    rows = np.repeat(np.arange(nq), k + 1)
    cols = np.empty(nq * (k + 1), dtype=int)
    data = np.empty(nq * (k + 1))
    for q, x in enumerate(pts):
        be = eval_nonzero_basis(kv, float(x), max_deriv=deriv)
        cols[q * (k + 1) : (q + 1) * (k + 1)] = be.first_index + np.arange(k + 1)
        data[q * (k + 1) : (q + 1) * (k + 1)] = be.values[deriv]
    return csr_matrix((data, (rows, cols)), shape=(nq, kv.n_basis))


def basis_integrals(kv: KnotVector) -> np.ndarray:
    """Exact integrals of all basis functions: (xi_{i+k+1} - xi_i)/(k+1)."""
    k = kv.degree
    n = kv.n_basis
    return (kv.knots[k + 1 : k + 1 + n] - kv.knots[:n]) / (k + 1)
