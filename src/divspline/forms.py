"""Assembly of the stabilized variational forms.

The discrete momentum operator combines the viscous form with weak tangential
Dirichlet terms,

    A_h(u, v) = (2 nu grad_s u, grad_s v) - (2 nu n . grad_s u, v)_bnd
                - (2 nu n . grad_s v, u)_bnd + (2 nu C_nit / h_n u, v)_bnd,

with h_n the length normal to the facet of each boundary facet's element,
the convective trilinear form C(w; u, v) = -(w x u, grad v), and the
skeleton penalty

    J_h(w; u, v) = sum_facets (eta(w) [[d^m u / d n^m]], [[d^m v / d n^m]]),

with m = alpha' + 1 and eta = gamma min(Re_h, 1) h^(2 alpha' + 2) |w . n|,
Re_h = |w| h / nu. The divergence form B(u, q) = (div u, q) closes the saddle
system. eta is evaluated from the current iterate and frozen during
linearization; the jump arguments are linearized exactly.

The constant operators are sums of Kronecker products of dense 1-D
matrices (Sangalli & Tani, SIAM J. Sci. Comput. 38 (2016)): S and M of
Gram matrices (`bspline.gram_matrix`, exact with max(degree) + 1 Gauss
points per element), G, P and P_h of end-point value and derivative rows
crossed with Grams along the sides (`_boundary_terms`). The body-force
and Nitsche loads contract the dense 1-D collocation of
`element_tables(pair, k' + 2)` at k' + 2 Gauss points per element; the
same table gives `FacetTables` every tangential factor, and at k' = 1 it
is the convection table. N1 and N2 are summed by sum factorization
(`_sum_factorized`; Antolin, Buffa, Calabro, Martinelli & Sangalli,
CMAME 285 (2015)) from the 1-D element rows of `element_tables` at
ceil(3(k' + 1) / 2) points per direction, exact for the degree-(3k - 1)
integrand: the x points are contracted first, then the y points, each as
one batched matmul. J contracts the tangential component's per-facet
jump tables (`FacetTables`) over k' + 2 points with one batched matmul
(`_weighted_products`); the rational eta factor is only approximately
integrated. Matrices act on the full velocity DOF vector [Vx block; Vy
block]; the solver imposes the strong normal trace.

Every velocity operator is a data array on the pair's one sparsity
pattern, a `JacobianPattern` of the element blocks of the velocity
component pairs and the tangential interior-facet blocks: a Kronecker term
is written at the positions of the pattern's closed-form formula, a local
block is added with one `np.add.at`. K with its Nitsche terms is arithmetic
on those arrays, and the solver forms each Jacobian by adding data arrays
and building one CSR. Every CSR on the pattern shares its read-only
indices, and the memoized data arrays of K's strain part and of M are
read-only too, so no caller can change an operator that later operators
on the pair reuse.

Residuals need no matrices, and the per-state kernels work on dense 1-D
factors of the tensor-product spaces instead of element tables:
`convection_residual` gives N1(u) u from the collocation matrices of each
velocity component at the convection points (`element_tables`), and
`skeleton_residual` gives J(u) u from the one-sided value rows, jump rows
and tangential collocation on the interior knot lines (`FacetTables`); each
writes its components' slices of the output, with no gather and no scatter.
The solver's line search and the energy diagnostics use only these; the
matrices are built only for a Newton step's Jacobian. The iterate-dependent
values a residual and a Jacobian share (eta on the facet lines, w on the
grid of convection points) are kept per pair for the last state they were
computed at, so the Jacobian at a state whose residual was just evaluated
recomputes neither.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from .bspline import _dense_rows, collocation_matrix, gram_matrix
from .space import (
    DivConformingPair,
    StateVector,
    element_basis_1d,
    element_tables,
    mass_matrix_1d,
    per_pair,
)

__all__ = [
    "StabParams",
    "compute_eta",
    "assemble_viscous_nitsche",
    "assemble_divergence",
    "assemble_convection",
    "assemble_skeleton",
    "convection_residual",
    "skeleton_residual",
    "assemble_load",
    "assemble_velocity_mass",
    "assemble_strain",
    "facet_tables",
    "jacobian_pattern",
    "convection_quad_points",
]


@dataclass(frozen=True)
class StabParams:
    """Stabilization and boundary-penalty parameters for one flow problem."""

    nu: float
    gamma: float
    c_nit: float
    alpha_prime: int

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be finite and positive, got {self.nu}")
        if not all(math.isfinite(v) and v >= 0 for v in (self.gamma, self.c_nit)):
            raise ValueError(
                f"gamma and c_nit must be finite and nonnegative, got {self.gamma}, {self.c_nit}"
            )
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
        return cls(nu=nu, gamma=gamma, c_nit=c_nit, alpha_prime=alpha_prime)

    def with_nu(self, nu: float) -> "StabParams":
        return StabParams(nu, self.gamma, self.c_nit, self.alpha_prime)


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


def convection_quad_points(k_prime: int) -> int:
    """Exact for the degree-(3k-1) trilinear integrand."""
    return max(k_prime + 2, math.ceil(3 * (k_prime + 1) / 2))


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only: every caller of a memo shares it."""
    array.flags.writeable = False
    return array


def _band(n_el: int, p_row: int, p_col: int, widen: bool = False):
    """1-D band of a space of degree p_row against one of degree p_col: row a
    couples columns lo[a] .. lo[a] + length[a] - 1; returns (lo, length).

    Interior knots have multiplicity 1, so element e carries basis functions
    e .. e + p, and row a meets the elements max(a - p_row, 0) .. min(a,
    n_el - 1). With `widen` (one space, p_row = p_col = p, n_el >= 2) the
    band is the union with the interior-facet jump blocks: facet i between
    elements i-1 and i couples functions i-1 .. i+p, so row a reaches
    max(a - p - 1, 0) .. min(a, n_el - 2) + p + 1, a superset of its
    element band.
    """
    w = int(widen and n_el > 1)
    a = np.arange(n_el + p_row)
    lo = np.maximum(a - p_row - w, 0)
    return lo, np.minimum(a, n_el - 1 - w) + p_col + w + 1 - lo


class JacobianPattern:
    """The one CSR sparsity pattern of a pair: every velocity operator is a
    data array on it, and a Jacobian is a sum of data arrays.

    It is the union of six dense local blocks. Blocks 0-3 are the element
    blocks of the velocity component pairs (i, j) = (0, 0), (1, 1), (0, 1)
    and (1, 0), which hold K, M, N1 and N2: row function (ly, lx) of
    component i against column function (my, mx) of component j on element
    (ey, ex), entries in the order (ey, ly, my, ex, lx, mx) in which
    `_sum_factorized` makes them. Blocks 4 and 5 are the interior-facet
    blocks of the tangential component on the facets normal to x and to y,
    which hold J, entries in (facet, row, column) order (the normal
    component's (alpha'+1)-th normal derivative is continuous, so its jump
    blocks are left out). K's boundary terms couple functions of one
    boundary element and add no entries. Every entry of every block has one
    position in the CSR data, stored once in block order: `_blocks[b]` is
    block b's slice of one positions array. `data` adds local arrays one
    block at a time with `np.add.at`, which allocates nothing for the
    read-only positions (a `np.bincount` would copy them); `kron_data` adds
    Kronecker products of 1-D matrices.
    The positions, `indices` and `indptr` are read-only, and every matrix
    `csr` builds shares the last two, so no matrix on the pattern can be
    changed in its structure.

    The pattern is found by arithmetic, without a sort. Each component block
    (i, j) is the Kronecker product of a y band and an x band (`_band`):
    element bands, except that vx's jump blocks (facets normal to y) widen
    block (0, 0)'s y band and vy's (facets normal to x) widen block (1, 1)'s
    x band. A CSR row r of component i holds block (i, 0) and then block
    (i, 1), each in (c_y, c_x) order, so entry (r, c), c = (c_y, c_x) in
    component j, sits at (`positions`)

        indptr[r] + [j = 1] len_i0(r) + (c_y - lo_y(r_y)) len_x(r_x) + (c_x - lo_x(r_x)),

    with len_i0(r) the length of block (i, 0)'s part of row r and (lo, len)
    the bands of block (i, j). The bands need interior knot multiplicity 1;
    other knot vectors raise ValueError.
    """

    def __init__(self, pair: DivConformingPair):
        mesh, spaces = pair.mesh, pair.velocity_spaces
        knot_vectors = [kv for s in spaces for kv in (s.kv_x, s.kv_y)]
        if any(kv.n_basis != kv.n_elements + kv.degree for kv in knot_vectors):
            raise ValueError("JacobianPattern requires interior knot multiplicity 1")
        tab = _convection_tables(pair)  # any rule: the DOFs are those of the elements
        self._offsets = [pair.component_offset(c) for c in (0, 1)]
        self._n_x = [s.n_x for s in spaces]
        # (row component, row DOFs, column component, column DOFs) per block,
        # in component DOFs broadcast to the block's entry order
        rows, cols = [], []
        for c in (0, 1):
            ix, iy = tab.dofs(c)
            rows.append(iy[:, :, None, None, None, None] * self._n_x[c] + ix[:, :, None])
            cols.append(iy[:, None, :, None, None, None] * self._n_x[c] + ix[:, None, :])
        blocks = [(i, rows[i], j, cols[j]) for i, j in ((0, 0), (1, 1), (0, 1), (1, 0))]
        for f in facet_tables(pair).interior:
            blocks.append((1 - f.axis, f.dofs[:, :, None], 1 - f.axis, f.dofs[:, None, :]))
        # _bands[i][j] = ((lo_x, len_x), (lo_y, len_y)) of component block (i, j)
        self._bands = [
            [
                (
                    _band(mesh.nx, si.kv_x.degree, sj.kv_x.degree, widen=i == j == 1),
                    _band(mesh.ny, si.kv_y.degree, sj.kv_y.degree, widen=i == j == 0),
                )
                for j, sj in enumerate(spaces)
            ]
            for i, si in enumerate(spaces)
        ]
        # row lengths of each component block, rows in DOF order
        lengths = [[np.outer(by[1], bx[1]).ravel() for bx, by in self._bands[i]] for i in (0, 1)]
        n = pair.n_u
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.concatenate([a + b for a, b in lengths]), out=indptr[1:])
        # first position of block (i, j) in row r: _starts[j][r]
        self._starts = (indptr[:-1], indptr[:-1] + np.concatenate([a for a, _ in lengths]))
        self.shape = (n, n)
        self.nnz = int(indptr[-1])
        index_dtype = sp.get_index_dtype(maxval=max(n, self.nnz))
        indices = np.empty(self.nnz, dtype=index_dtype)
        shapes = [np.broadcast_shapes(r.shape, c.shape) for _, r, _, c in blocks]
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        positions = np.empty(ends[-1], dtype=np.intp)
        for b, ((i, r, j, c), shape) in enumerate(zip(blocks, shapes)):
            # written in place: the block is the only array of its size
            out = positions[ends[b] - math.prod(shape) : ends[b]].reshape(shape)
            self.positions(i, j, r, c, out=out)
            indices[out] = (c + self._offsets[j]).astype(index_dtype)
        self._blocks = np.split(_read_only(positions), ends[:-1])
        self.indices = _read_only(indices)
        self.indptr = _read_only(indptr.astype(index_dtype))

    def positions(self, i: int, j: int, rows, cols, out=None) -> np.ndarray:
        """CSR data positions of the entries (rows, cols) of component block
        (i, j), rows and cols in component DOFs and broadcast together;
        written into out when given. Each entry must lie in the block's
        bands, or its position is another entry's."""
        (lo_x, len_x), (lo_y, _) = self._bands[i][j]
        r_y, r_x = np.divmod(rows, self._n_x[i])
        c_y, c_x = np.divmod(cols, self._n_x[j])
        stride = len_x[r_x]
        out = np.multiply(c_y, stride, out=out)
        out += c_x
        out += self._starts[j][rows + self._offsets[i]] - lo_y[r_y] * stride - lo_x[r_x]
        return out

    def data(self, blocks, out: np.ndarray | None = None) -> np.ndarray:
        """Data array of the local blocks (b, local), local holding block b's
        entries in its order, added in the given order into out (zeros when
        None).

        `blocks` may be a generator, so that one local block is alive at a time.
        """
        out = np.zeros(self.nnz) if out is None else out
        for b, local in blocks:
            np.add.at(out, self._blocks[b], local.reshape(-1))
            del local  # freed before the generator makes the next block
        return out

    def kron_data(self, terms, out: np.ndarray | None = None) -> np.ndarray:
        """Data array of the Kronecker terms (i, j, a_y, a_x), each the block
        kron(a_y, a_x) of rows of component i and columns of component j, a_y
        and a_x dense 1-D matrices with their nonzeros in the block's bands;
        added in order into out (zeros when None), one indexed add a term."""
        out = np.zeros(self.nnz) if out is None else out
        for i, j, a_y, a_x in terms:
            (r_y, c_y), (r_x, c_x) = np.nonzero(a_y), np.nonzero(a_x)
            rows = r_y[:, None] * a_x.shape[0] + r_x
            cols = c_y[:, None] * a_x.shape[1] + c_x
            out[self.positions(i, j, rows, cols)] += np.outer(a_y[r_y, c_y], a_x[r_x, c_x])
        return out

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with the given data array on this pattern's shared indices."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


jacobian_pattern = per_pair(JacobianPattern)


def _weighted_products(w, a, b) -> np.ndarray:
    """Local blocks sum_q w[e, q] a[e, q, l] b[e, q, m], shape (E, L, M).

    One batched matmul of the weighted (E, L, Q) transpose of a with b.
    """
    return np.matmul((a * w[..., None]).transpose(0, 2, 1), b)


@per_pair
def assemble_strain(pair: DivConformingPair) -> sp.csr_matrix:
    """Unit-viscosity volume strain matrix S with u^T S u = 2 ||grad_s u||^2.

    2 int [2 e11(u) e11(v) + 2 e22 e22 + 4 e12 e12], expanded per component
    block, is a sum of Kronecker products of 1-D Gram matrices.
    """
    (x0, y0), (x1, y1) = ((s.kv_x, s.kv_y) for s in pair.velocity_spaces)
    k12 = gram_matrix(y0, y1, 1, 0), gram_matrix(x0, x1, 0, 1)  # int d_y phi_a d_x phi_b
    terms = [
        (0, 0, y0.mass, 2.0 * gram_matrix(x0, x0, 1, 1)),
        (0, 0, gram_matrix(y0, y0, 1, 1), x0.mass),
        (1, 1, 2.0 * gram_matrix(y1, y1, 1, 1), x1.mass),
        (1, 1, y1.mass, gram_matrix(x1, x1, 1, 1)),
        (0, 1, *k12),
        (1, 0, k12[0].T, k12[1].T),
    ]
    pattern = jacobian_pattern(pair)
    return pattern.csr(_read_only(pattern.kron_data(terms)))


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


def _tangential_first(grid: np.ndarray, axis: int) -> np.ndarray:
    """A component's coefficient grid (n_y, n_x) indexed (tangential, normal)
    for the facets normal to axis (a view)."""
    return grid if axis == 0 else grid.T


class FacetTables:
    """Velocity basis tables on the interior facets, both orientations.

    For the facets normal to `axis`, normal-direction rows come from
    `element_basis_1d` at the reference points {0, 1}: interior line i takes
    element i-1 at 1 (plus side) and element i at 0 (minus side), both on the
    union of their supports. Every tangential factor is read from
    `element_tables(pair, k' + 2)`, the Gauss points of every tangential
    element: tang[c] (T, n_tangential) is component c's collocation there (a
    view of the table's), and line_weights (T,) its weights.

    interior[axis] holds, besides those, line_value[c] (lines, n_normal),
    the dense value rows of component c on the n - 1 interior knot lines
    (the plus side, as every component of a supported pair is continuous
    across the facets). A component's values on the facet lines are then
    tang[c] G line_value[c]^T, shape (T, lines), with G its coefficient grid
    indexed (tangential, normal). Only the tangential component c = 1 - axis
    jumps (see `JacobianPattern`), and for it alone the tables hold the
    (alpha'+1)-th normal derivative, plus side minus minus side: line_jump
    (lines, n_normal) on the knot lines, and J's per-facet jump (n_facets,
    nq, n_local) with its component DOFs dofs (n_facets, n_local); facets
    run line by line, tangential element fastest.
    """

    def __init__(self, pair: DivConformingPair):
        m = pair.alpha_prime + 1
        tab = element_tables(pair, bilinear_quad_points(pair))
        self.interior = []
        for axis in (0, 1):
            t = 1 - axis  # the tangential axis, and the tangential component
            inner = SimpleNamespace(
                axis=axis, line_weights=tab.weights_1d[t], line_value=[],
                tang=[tab.colloc[c][t][0] for c in (0, 1)],
            )
            for c, space in enumerate(pair.velocity_spaces):
                kv_n = (space.kv_x, space.kv_y)[axis]
                rows, first_n = element_basis_1d(kv_n, (0.0, 1.0), m)
                if np.any(np.diff(first_n) != 1):
                    raise ValueError("facet tables require interior multiplicity 1")
                # one-sided rows, dense on kv_n
                plus, minus = rows[:-1, 1], rows[1:, 0]
                n_n = kv_n.n_basis
                inner.line_value.append(_dense_rows(first_n[:-1], plus[:, 0], n_n))
                if c != t:
                    continue
                inner.line_jump = _dense_rows(first_n[:-1], plus[:, m], n_n) - _dense_rows(
                    first_n[1:], minus[:, m], n_n
                )
                padded = np.pad(plus[:, m], ((0, 0), (0, 1))), np.pad(minus[:, m], ((0, 0), (1, 0)))
                inner.jump = _on_facets(axis, padded[0] - padded[1], tab.rows[c][t][:, :, 0])
                idx_n = first_n[:-1, None] + np.arange(kv_n.degree + 2)
                scale_n, scale_t = (1, space.n_x) if axis == 0 else (space.n_x, 1)
                inner.dofs = _on_facets(axis, idx_n * scale_n, tab.dofs(c)[t] * scale_t, np.add)
            self.interior.append(inner)


facet_tables = per_pair(FacetTables)


def _boundary_terms(pair: DivConformingPair) -> dict[str, list]:
    """Kronecker terms (i, j, a_y, a_x) (see `JacobianPattern.kron_data`) of
    the boundary operators: G[a, b] = (2 n . grad_s phi_b, phi_a)_bnd, the
    boundary mass P and the penalty mass P_h, P with each side scaled by
    h / h_n, h_n its boundary elements' length normal to it.

    On the two sides normal to axis d a term is a normal factor, the sum
    over the sides of a weight (n_d, 1 or h / h_n) times the outer product
    of end-point value or derivative rows, crossed with a 1-D Gram matrix
    along the sides. Component ca of 2 n . grad_s phi_b is n_d (d_d phi_b,ca
    + d_ca phi_b,d), so G couples component d to itself twice through the
    normal derivative, the tangential component t = 1 - d to itself once
    through it, and t to d through the tangential derivative.
    """
    terms = {"G": [], "P": [], "P_h": []}
    sign = np.array([-1.0, 1.0])  # the outward normal of the low and the high side
    for d, t in ((0, 1), (1, 0)):
        kv_n = [(s.kv_x, s.kv_y)[d] for s in pair.velocity_spaces]
        kv_t = [(s.kv_x, s.kv_y)[t] for s in pair.velocity_spaces]
        ends = [collocation_matrix(kv, kv.domain, 1) for kv in kv_n]  # [derivative, side]

        def term(i, j, weights, deriv, along):
            normal = (ends[i][0].T * weights) @ ends[j][deriv]
            return (i, j, along, normal) if d == 0 else (i, j, normal, along)

        terms["G"] += [
            term(d, d, 2.0 * sign, 1, kv_t[d].mass),
            term(t, t, sign, 1, kv_t[t].mass),
            term(t, d, sign, 0, gram_matrix(kv_t[t], kv_t[d], 0, 1)),
        ]
        scale = pair.mesh.h / np.diff(kv_n[0].unique_knots)[[0, -1]]
        for c in (0, 1):
            terms["P"].append(term(c, c, np.ones(2), 0, kv_t[c].mass))
            terms["P_h"].append(term(c, c, scale, 0, kv_t[c].mass))
    return terms


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
    tangential traction vanishes). The penalty on each boundary facet is
    2 nu C_nit / h_n, h_n the boundary element's length normal to the facet,
    so small boundary elements keep K coercive on graded meshes. K = nu S -
    nu (G + G^T) + (2 nu C_nit / h) P_h (`_boundary_terms`) on
    `jacobian_pattern`; at nu = 1 without Nitsche terms it is the memoized,
    read-only `assemble_strain` matrix itself.
    """
    strain = assemble_strain(pair)
    if params.nu == 1.0 and not nitsche:
        return strain
    data = strain.data * params.nu
    if nitsche:
        terms = _boundary_terms(pair)
        coef = 2.0 * params.nu * params.c_nit / pair.mesh.h
        g = [(i, j, -params.nu * a_y, a_x) for i, j, a_y, a_x in terms["G"]]
        jacobian_pattern(pair).kron_data(
            g
            + [(j, i, a_y.T, a_x.T) for i, j, a_y, a_x in g]
            + [(i, j, coef * a_y, a_x) for i, j, a_y, a_x in terms["P_h"]],
            out=data,
        )
    return jacobian_pattern(pair).csr(data)


def nitsche_load(pair: DivConformingPair, params: StabParams, u_d) -> np.ndarray:
    """Dirichlet-data part of the load: -(2 nu n.grad_s v, uD) + (2 nu Cnit/h_n v, uD).

    Per side and test component it is the outer product of end-point rows
    with the tangential collocation's transpose applied to the weighted uD
    at the side's Gauss points (k' + 2 per element). Component ca of
    2 n . grad_s phi_a . uD is n_d (d_d phi_a uD_ca + [ca = d] grad phi_a . uD).
    """
    tab = element_tables(pair, bilinear_quad_points(pair))
    coef = 2.0 * params.c_nit / pair.mesh.h
    axes = pair.q.kv_x, pair.q.kv_y  # the breakpoints of each axis
    g = np.zeros(pair.n_u)
    for d, t in ((0, 1), (1, 0)):
        points, weights = tab.points_1d[t], tab.weights_1d[t]
        scale = pair.mesh.h / np.diff(axes[d].unique_knots)[[0, -1]]
        kv_n = [(s.kv_x, s.kv_y)[d] for s in pair.velocity_spaces]
        ends = [collocation_matrix(kv, kv.domain, 1) for kv in kv_n]  # [derivative, side]
        for side, (x_n, n) in enumerate(zip(axes[d].domain, (-1.0, 1.0))):
            xy = [points, points]
            xy[d] = np.full_like(points, x_n)
            wud = weights * np.array(u_d(*xy))  # (2, T)
            for c in (0, 1):
                value, deriv = ends[c][:, side]
                tang, d_tang = tab.colloc[c][t]
                normal = coef * scale[side] * value - (1 + (c == d)) * n * deriv
                local = np.outer(tang.T @ wud[c], normal)
                if c == d:
                    local -= n * np.outer(d_tang.T @ wud[t], value)
                grid = _tangential_first(pair.component_coeffs(g, c), d)
                grid += params.nu * local
    return g


def assemble_divergence(pair: DivConformingPair) -> sp.csr_matrix:
    """B with (B u)_q = (div u_h, psi_q): M_p D, as div u_h = D u lies in Q exactly."""
    m_p = sp.kron(mass_matrix_1d(pair.q.kv_y), mass_matrix_1d(pair.q.kv_x))
    return (m_p @ pair.divergence).tocsr()


class _LastState:
    """One-slot memo of a per-state kernel: its value at the last state and arguments.

    A residual and the Jacobian Newton builds at the same state need the
    same iterate-dependent values (eta, w at the convection points); the
    slot is keyed on a copy of the state array, compared by value, and on
    the other arguments, so a state changed in place is recomputed. The
    kernel returns a list of arrays, which are shared and made read-only.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.state = None
        self.args = None
        self.value = None

    def __call__(self, pair: DivConformingPair, u: np.ndarray, *args):
        if self.args != args or self.state is None or not np.array_equal(self.state, u):
            self.value = self.kernel(pair, u, *args)
            for array in self.value:
                array.flags.writeable = False
            self.state, self.args = u.copy(), args
        return self.value


# _last_state(pair, kernel): the slot of kernel's values on pair
_last_state = per_pair(lambda pair, kernel: _LastState(kernel))


def _convection_tables(pair: DivConformingPair):
    """The 1-D `element_tables` at the convection Gauss points."""
    return element_tables(pair, convection_quad_points(pair.k_prime))


def _convection_point_values(pair: DivConformingPair, w_u: np.ndarray) -> list[np.ndarray]:
    colloc = _convection_tables(pair).colloc
    return [
        colloc[c][1][0] @ pair.component_coeffs(w_u, c) @ colloc[c][0][0].T for c in (0, 1)
    ]


def _convection_values(pair: DivConformingPair, w_u: np.ndarray) -> list[np.ndarray]:
    """Both components of w on the grid of convection quadrature points,
    (ny nq, nx nq) each: row ey nq + qy, column ex nq + qx."""
    return _last_state(pair, _convection_point_values)(pair, w_u)


def _sum_factorized(tab, w: np.ndarray, j: int, i: int, c: int) -> np.ndarray:
    """Element blocks of -int w (d_c phi_a) phi_b, phi_a of component j and
    phi_b of component i, w on the tables' tensor grid of points; in the
    pattern's element-block order (ey, ly, my, ex, lx, mx).

    Sum factorization (Antolin, Buffa, Calabro, Martinelli & Sangalli, CMAME
    285 (2015)): the x points are contracted first, one matmul batched over
    the x elements with the weighted products of the x rows, (lx mx) per
    point, then the y points, one matmul batched over the y elements.
    """
    (xa, ya), (xb, yb) = tab.rows[j], tab.rows[i]
    (nx, nq, _, lx), (ny, _, _, ly) = xa.shape, ya.shape
    mx, my = xb.shape[-1], yb.shape[-1]
    w_x = tab.weights_1d[0].reshape(nx, nq, 1, 1)
    w_y = -tab.weights_1d[1].reshape(ny, nq, 1, 1)  # the forms' minus sign
    p_x = (w_x * xa[:, :, 1 - c, :, None] * xb[:, :, 0, None, :]).reshape(nx, nq, lx * mx)
    p_y = (w_y * ya[:, :, c, :, None] * yb[:, :, 0, None, :]).reshape(ny, nq, ly * my)
    t = np.matmul(p_x.transpose(0, 2, 1), w.T.reshape(nx, nq, ny * nq))  # (nx, lx mx, ny nq)
    return np.matmul(p_y.transpose(0, 2, 1), t.reshape(nx * lx * mx, ny, nq).transpose(1, 2, 0))


def assemble_convection(
    pair: DivConformingPair, w_state: StateVector | np.ndarray
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Convection C(w; u, v) = -(w x u, grad v) and its state-derivative block.

    Returns (N1, N2) on the pair's `jacobian_pattern`, with N1 u acting as
    C(w; u, .) and N2 u as C(u; w, .); the Newton Jacobian of the convective
    residual N1(w) w is N1 + N2 and the residual itself is N1 @ w. Every
    term is `_sum_factorized` from the 1-D element rows and w on the grid of
    convection points. N2's block (j, i) is -(w_j d_i phi_a, phi_b), so its
    diagonal block j is the i = j term of N1's block j, -(w . grad phi_a)
    phi_b.
    """
    w_u = w_state.u if isinstance(w_state, StateVector) else w_state
    tab = _convection_tables(pair)
    pattern = jacobian_pattern(pair)
    w = _convection_values(pair, w_u)
    n1, n2 = np.zeros(pattern.nnz), np.zeros(pattern.nnz)
    for j in (0, 1):
        local = _sum_factorized(tab, w[j], j, j, j)
        pattern.data([(j, local)], out=n2)
        local += _sum_factorized(tab, w[1 - j], j, j, 1 - j)
        pattern.data([(j, local)], out=n1)
    for b, (j, i) in ((2, (0, 1)), (3, (1, 0))):
        pattern.data([(b, _sum_factorized(tab, w[j], j, i, i))], out=n2)
    return pattern.csr(n1), pattern.csr(n2)


def convection_residual(pair: DivConformingPair, u: np.ndarray) -> np.ndarray:
    """Convective residual N1(u) u, i.e. C(u; u, phi_a) for every test function.

    Computed without N1, on the tensor grid of convection points: with U_c
    the values of component c there and W = -(w_y (x) w_x), test component
    j takes

        r_j = C_y,j^T (W U_j U_0) C'_x,j + C'_y,j^T (W U_j U_1) C_x,j,

    with (C, C') the collocation of `element_tables`, written into its slice
    of the output.
    """
    tab = _convection_tables(pair)
    uq = _convection_values(pair, u)
    neg_weights = -np.outer(tab.weights_1d[1], tab.weights_1d[0])
    out = np.empty(pair.n_u)
    for j in (0, 1):
        (c_x, dc_x), (c_y, dc_y) = tab.colloc[j]
        wu = neg_weights * uq[j]
        r_j = pair.component_coeffs(out, j)  # a view of the output
        np.matmul(c_y.T @ (wu * uq[0]), dc_x, out=r_j)
        r_j += dc_y.T @ (wu * uq[1]) @ c_x
    return out


def facet_eta_values(
    pair: DivConformingPair, w_u: np.ndarray, params: StabParams
) -> list[np.ndarray]:
    """eta on the interior facet lines, per orientation, shape (T, lines).

    For the facets normal to axis, entry (t, i) is at tangential quadrature
    point t (of all tangential elements, `FacetTables`) on interior knot
    line i; facet f = i * n_tangential_elements + e holds the points of row
    i of eta.T.reshape(n_facets, nq). The value at the last (w_u, params) is
    kept, so the residual and the Jacobian at one Newton iterate compute eta
    once.
    """
    return _last_state(pair, _facet_eta)(pair, w_u, params)


def _facet_eta(
    pair: DivConformingPair, w_u: np.ndarray, params: StabParams
) -> list[np.ndarray]:
    out = []
    for facets in facet_tables(pair).interior:
        a = facets.axis
        # every component is continuous across the facets: one side gives u
        u = [
            facets.tang[c]
            @ _tangential_first(pair.component_coeffs(w_u, c), a)
            @ facets.line_value[c].T
            for c in (0, 1)
        ]
        out.append(compute_eta(u[a], np.hypot(u[0], u[1]), pair.mesh.h, params))
    return out


def assemble_skeleton(
    pair: DivConformingPair, w_state: StateVector | np.ndarray, params: StabParams
) -> sp.csr_matrix:
    """Skeleton penalty operator J(w) (symmetric positive semidefinite).

    Only the tangential component jumps (see `JacobianPattern`), so J is
    built from the tangential jump table of each facet orientation, on the
    pair's `jacobian_pattern`. gamma = 0 returns a matrix with no stored
    entries.
    """
    n = pair.n_u
    if params.gamma == 0.0:
        return sp.csr_matrix((n, n))
    w_u = w_state.u if isinstance(w_state, StateVector) else w_state
    pattern = jacobian_pattern(pair)

    def local_blocks():
        for facets, eta in zip(facet_tables(pair).interior, facet_eta_values(pair, w_u, params)):
            jump = facets.jump
            weighted = (eta.T * facets.line_weights).reshape(jump.shape[:2])  # lines to facets
            # block 4 + axis: the tangential jumps on the facets normal to axis
            yield 4 + facets.axis, _weighted_products(weighted, jump, jump)

    return pattern.csr(pattern.data(local_blocks()))


def skeleton_residual(
    pair: DivConformingPair, u: np.ndarray, params: StabParams
) -> np.ndarray:
    """Skeleton penalty residual J(u) u, so that u @ J(u) u = J(u; u, u).

    Computed without J, on the facet lines (`FacetTables`): on the facets
    normal to axis the tangential component c = 1 - axis, with G its
    coefficient grid indexed (tangential, normal), has the jumps
    S = T_c G L_c^T at the quadrature points of every line, and

        r_c = T_c^T (w eta S) L_c,

    with T_c the tangential collocation, L_c the jump rows and w the
    tangential weights; each orientation writes its tangential component's
    slice of the output. gamma = 0 returns zeros.
    """
    if params.gamma == 0.0:
        return np.zeros(pair.n_u)
    out = np.empty(pair.n_u)  # each component is the tangential one of one orientation
    for facets, eta in zip(facet_tables(pair).interior, facet_eta_values(pair, u, params)):
        a = facets.axis
        c = 1 - a
        tang, jump = facets.tang[c], facets.line_jump
        u_jump = tang @ _tangential_first(pair.component_coeffs(u, c), a) @ jump.T
        weighted = (facets.line_weights[:, None] * eta) * u_jump
        np.matmul(
            tang.T @ weighted, jump, out=_tangential_first(pair.component_coeffs(out, c), a)
        )
    return out


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
        # C_y^T (W * F_c) C_x at the k' + 2 Gauss points of every element
        tab = element_tables(pair, bilinear_quad_points(pair))
        w_x, w_y = tab.weights_1d
        f_values = f(*np.meshgrid(*tab.points_1d))
        for c in (0, 1):
            (c_x, _), (c_y, _) = tab.colloc[c]
            pair.component_coeffs(rhs, c)[...] = c_y.T @ (np.outer(w_y, w_x) * f_values[c]) @ c_x
    if nitsche and u_d is not None:
        rhs += nitsche_load(pair, params, u_d)
    return rhs


@per_pair
def _velocity_mass_data(pair: DivConformingPair) -> np.ndarray:
    """Velocity mass M as a data array on the pair's `jacobian_pattern`:
    kron(M_y, M_x) per component, from the knot vectors' 1-D masses."""
    terms = [(c, c, s.kv_y.mass, s.kv_x.mass) for c, s in enumerate(pair.velocity_spaces)]
    return _read_only(jacobian_pattern(pair).kron_data(terms))


@per_pair
def assemble_velocity_mass(pair: DivConformingPair) -> sp.csr_matrix:
    """Block-diagonal velocity mass matrix, kron(M_y, M_x) per component,
    without the pattern's other entries; its arrays are read-only."""
    mass = sp.block_diag(
        [sp.kron(s.kv_y.mass, s.kv_x.mass, format="csr") for s in pair.velocity_spaces],
        format="csr",
    )
    for array in (mass.data, mass.indices, mass.indptr):
        _read_only(array)
    return mass
