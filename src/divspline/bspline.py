"""Univariate B-spline knot vectors and batched Cox-de Boor basis evaluation.

Open knot vectors only. Basis values and derivatives are computed with the
standard recursion over the derivative knot differences (exact, O(k^2) per
point) rather than by symbolic differentiation. One evaluator,
eval_nonzero_basis, serves a scalar or any array of points: spans come from
one searchsorted call and the recursion runs over all points at once.
Evaluation at a knot follows the half-open convention [zeta_j, zeta_{j+1})
with closure at the right end of the domain; one-sided limits at interior
knots are obtained by passing an explicit span index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = [
    "KnotVector",
    "BasisEval",
    "make_open_uniform",
    "open_knots",
    "find_span",
    "basis_all_derivatives",
    "eval_nonzero_basis",
    "derivative_matrix",
    "collocation_matrix",
    "basis_integrals",
    "gram_matrix",
    "QuadratureRule",
    "gauss_rule",
]

MAX_GAUSS_POINTS = 10


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on the reference interval [0, 1]."""

    points: np.ndarray
    weights: np.ndarray


@cache
def gauss_rule(npts: int) -> QuadratureRule:
    """Gauss-Legendre nodes/weights on [0, 1], exact to degree 2*npts - 1.

    One rule per size, shared by every caller: its arrays are read-only.
    """
    if not 1 <= npts <= MAX_GAUSS_POINTS:
        raise ValueError(f"npts must be in [1, {MAX_GAUSS_POINTS}], got {npts}")
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    points, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    points.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(points=points, weights=weights)


def find_span(knots: np.ndarray, degree: int, x):
    """Return the knot span index i with knots[i] <= x < knots[i+1].

    x may be a scalar or an array; the result has its shape. Spans are
    restricted to the nondegenerate spans of an open knot vector, so queries
    at the right end of the domain are clamped to the last nondegenerate
    span (left-limit convention).
    """
    span = np.searchsorted(knots, x, side="right") - 1
    return np.minimum(np.maximum(span, degree), len(knots) - degree - 2)


def basis_all_derivatives(
    knots: np.ndarray, degree: int, x, span, max_deriv: int
) -> np.ndarray:
    """Evaluate the degree+1 nonzero basis functions and their derivatives.

    Parameters
    ----------
    knots : ndarray
        Full open knot sequence.
    degree : int
        Polynomial degree k.
    x : float or ndarray
        Evaluation points. A point may lie outside [knots[span], knots[span+1]];
        in that case the polynomial pieces active on that span are extended,
        which is what one-sided limit evaluation at a knot relies on.
    span : int or ndarray of int
        Knot span whose polynomial pieces are evaluated, broadcast against x;
        it must lie in [degree, n_basis - 1], else ValueError is raised.
    max_deriv : int
        Highest derivative order requested. Orders above the degree are
        returned as exact zeros.

    Returns
    -------
    ders : ndarray
        Array of shape broadcast(x, span).shape + (max_deriv+1, degree+1);
        ders[..., d, j] holds the d-th derivative of basis function
        span-degree+j at x.

    The recursion is that of Piegl & Tiller, The NURBS Book, A2.3. Each step
    runs over all points and all basis functions at once, with the scalar
    algorithm's arithmetic and summation order for every entry, so a value
    does not depend on how the points are batched.
    """
    x, span = np.broadcast_arrays(np.asarray(x, dtype=float), span)
    lo, hi = degree, len(knots) - degree - 2
    outside = (span < lo) | (span > hi)
    if outside.any():
        raise ValueError(
            f"span {span[outside].flat[0]} outside the valid range [{lo}, {hi}] "
            f"(degree, n_basis - 1)"
        )
    shape = x.shape
    x, span = x.ravel(), span.ravel()
    offsets = np.arange(degree)[:, None]
    left = x - knots[span - offsets]
    right = knots[span + 1 + offsets] - x
    ndu = np.empty((degree + 1, degree + 1, x.size))
    saved = np.zeros((degree + 1, x.size))
    ders = np.zeros((x.size, max_deriv + 1, degree + 1))

    ndu[0, 0] = 1.0
    for j in range(degree):
        # lower triangle stores reciprocals of the knot differences
        ndu[j + 1, : j + 1] = 1.0 / (right[: j + 1] + left[j::-1])
        temp = ndu[: j + 1, j] * ndu[j + 1, : j + 1]
        # saved[r] = left[j - r + 1] * temp[r - 1] enters row r; saved[0] stays 0.0
        saved[1 : j + 2] = left[j::-1] * temp
        ndu[: j + 1, j + 1] = saved[: j + 1] + right[: j + 1] * temp
        ndu[j + 1, j + 1] = saved[j + 1]

    ders[:, 0, :] = ndu[:, degree].T

    # derivatives: at order k, coefficient j of basis function r pairs with
    # ndu[t, degree - k] for t = r - k + j in 0..degree-k, so each j covers one
    # slice of rows and all basis functions advance together
    a = np.ones((1, degree + 1, x.size))
    fac = 1.0
    for k in range(1, min(max_deriv, degree) + 1):
        pk = degree - k
        inv = ndu[pk + 1, : pk + 1]
        prev, a = a, np.empty((k + 1, degree + 1, x.size))
        d = np.zeros((degree + 1, x.size))
        for j in range(k + 1):
            rows = slice(k - j, degree - j + 1)
            if j == 0:
                a[0, rows] = prev[0, rows] * inv
                d[rows] = a[0, rows] * ndu[: pk + 1, pk]
                continue
            if j == k:
                a[k, rows] = -prev[k - 1, rows] * inv
            else:
                a[j, rows] = (prev[j, rows] - prev[j - 1, rows]) * inv
            d[rows] += a[j, rows] * ndu[: pk + 1, pk]
        fac *= degree - k + 1
        ders[:, k, :] = (d * fac).T
    return ders.reshape(shape + ders.shape[1:])


@dataclass(frozen=True)
class BasisEval:
    """Nonzero basis values/derivatives at a scalar or an array of points.

    values[..., d, j] is the d-th derivative of basis function
    first_index[...] + j; the leading axes are those of the points.
    """

    span: int | np.ndarray
    degree: int
    values: np.ndarray

    @property
    def first_index(self) -> int | np.ndarray:
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
    def mass(self) -> np.ndarray:
        """Dense mass matrix, mass[i, j] = integral of N_i N_j (`gram_matrix`); read-only."""
        mass = gram_matrix(self, self)
        mass.flags.writeable = False
        return mass

    @cached_property
    def element_spans(self) -> np.ndarray:
        """Knot span index of each element (between consecutive unique knots)."""
        mids = 0.5 * (self.unique_knots[:-1] + self.unique_knots[1:])
        return find_span(self.knots, self.degree, mids)

    def find_span(self, x):
        return find_span(self.knots, self.degree, x)


def eval_nonzero_basis(kv: KnotVector, x, max_deriv: int = 0, span=None) -> BasisEval:
    """Evaluate the degree+1 basis functions whose support contains x.

    x is a scalar or an array of points; values has the points' shape (x
    broadcast against an explicit span) followed by (max_deriv+1, degree+1),
    so a scalar x gives one point's (max_deriv+1, degree+1) table. At a knot the right-limit convention
    applies, except at the right end of the domain where the left limit is
    used. Passing an explicit span (broadcast against x) forces evaluation of
    that span's polynomial pieces, which yields one-sided limits at interior
    knots; points are then not checked against the domain, and a span outside
    [degree, n_basis - 1] raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if span is None:
        a, b = kv.domain
        tol = 1e-12 * max(abs(a), abs(b), 1.0)
        outside = ~((x >= a - tol) & (x <= b + tol))
        if outside.any():
            raise ValueError(f"x={x[outside][0]} outside the knot range [{a}, {b}]")
        x = np.minimum(np.maximum(x, a), b)
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


def derivative_matrix(kv: KnotVector):
    """Sparse (n-1, n) matrix D mapping coefficients to derivative coefficients.

    For s(x) = sum_i c_i N_{i,k}, s'(x) = sum_i (D c)_i N_{i,k-1} over the
    knots with the two end knots dropped; each row holds the two entries
    -/+ k / (xi_{i+k+1} - xi_{i+1}).
    """
    from scipy.sparse import diags

    k, n = kv.degree, kv.n_basis
    scale = k / (kv.knots[k + 1 : k + n] - kv.knots[1:n])
    return diags([-scale, scale], [0, 1], shape=(n - 1, n), format="csr")


def _dense_rows(first, values: np.ndarray, n_basis: int) -> np.ndarray:
    """values[..., j] of basis functions first + j as dense rows (..., n_basis).

    first broadcasts against values.shape[:-1].
    """
    rows = np.zeros(values.shape[:-1] + (n_basis,))
    cols = np.asarray(first)[..., None] + np.arange(values.shape[-1])
    np.put_along_axis(rows, np.broadcast_to(cols, values.shape), values, axis=-1)
    return rows


def collocation_matrix(kv: KnotVector, pts, max_deriv: int = 0) -> np.ndarray:
    """Dense collocation C[d, q, i] = d-th derivative of basis i at pts[q],
    d = 0 .. max_deriv: shape (max_deriv + 1, len(pts), n_basis)."""
    basis = eval_nonzero_basis(kv, pts, max_deriv)
    return _dense_rows(basis.first_index, basis.values.transpose(1, 0, 2), kv.n_basis)


def basis_integrals(kv: KnotVector) -> np.ndarray:
    """Exact integrals of all basis functions: (xi_{i+k+1} - xi_i)/(k+1)."""
    k = kv.degree
    n = kv.n_basis
    return (kv.knots[k + 1 : k + 1 + n] - kv.knots[:n]) / (k + 1)


def gram_matrix(kv_a: KnotVector, kv_b: KnotVector, da: int = 0, db: int = 0) -> np.ndarray:
    """Dense Gram matrix G[i, j] = integral of N_i^(da) N_j^(db), N_i of kv_a
    and N_j of kv_b, two knot vectors on the same breakpoints.

    max(degree) + 1 Gauss points per element (`gauss_rule`) integrate every
    such product exactly, and the element blocks are added into place with
    one np.add.at.
    """
    uk = kv_a.unique_knots
    if not np.array_equal(uk, kv_b.unique_knots):
        raise ValueError("the knot vectors must have the same breakpoints")
    rule = gauss_rule(max(kv_a.degree, kv_b.degree) + 1)
    h = np.diff(uk)[:, None]
    x = uk[:-1, None] + h * rule.points

    def table(kv: KnotVector, d: int):  # (element, point, function) values and indices
        spans = kv.element_spans
        values = basis_all_derivatives(kv.knots, kv.degree, x, spans[:, None], d)[..., d, :]
        return values, (spans - kv.degree)[:, None] + np.arange(kv.degree + 1)

    (va, ia), (vb, ib) = table(kv_a, da), table(kv_b, db)
    local = np.matmul((va * (h * rule.weights)[..., None]).transpose(0, 2, 1), vb)
    gram = np.zeros((kv_a.n_basis, kv_b.n_basis))
    np.add.at(gram, (ia[:, :, None], ib[:, None, :]), local)
    return gram
