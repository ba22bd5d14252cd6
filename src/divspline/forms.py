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
one batched matmul, and each contraction is folded straight into band rows
(row-wise formation; Calabro, Sangalli & Tani, CMAME 316 (2017)). J is
separable on each facet (`assemble_skeleton`): the eta-weighted tangential
products of every knot line, crossed with the lines' fixed normal-jump
products (`FacetTables`) by one matmul; the rational eta factor is only
approximately integrated. Matrices act on the full velocity DOF vector [Vx
block; Vy block]; the solver imposes the strong normal trace.

Every velocity operator is summed in a band buffer, one flat array in the
band storage of the pair's one sparsity pattern, a `JacobianPattern`, by
slices and outer products (a Kronecker term as the outer product of its
factors' 1-D band storages, `JacobianPattern.add_kron`), and a gather makes
the buffer a data array on the pattern. Only this module knows the
Kronecker terms of K and M. The solver's Newton matrix is A = C^T J C on
the streamfunction (`StreamfunctionPattern`, whose pattern is crossed from
the 1-D reductions along y and x), reduced from one band buffer that holds
the whole J: K (`assemble_viscous_nitsche`), M (`add_velocity_mass`), N1 +
N2 (`assemble_convection`) and J (`assemble_skeleton`), each added into it
by out; N1 and N2 have one adder (`_add_convection`). The buffer is only
ever reduced to A, never multiplied. Both patterns are one CSR pattern on a
band buffer (`_BandCSR`), and every CSR on a pattern shares its read-only
indices; the memoized data arrays of K's strain part and of M are read-only
too.

Residuals need no matrices, and the per-state kernels work on dense 1-D
factors of the tensor-product spaces instead of element tables:
`convection_residual` gives N1(u) u from the collocation matrices of each
velocity component at the convection points (`element_tables`), and
`skeleton_residual` gives J(u) u from the one-sided value rows, jump rows
and tangential collocation on the interior knot lines (`FacetTables`); each
writes its components' slices of the output, with no gather and no scatter.
Given a direction v they give the Jacobian product (Knoll & Keyes, JCP 193
(2004)): (N1(u) + N2(u)) v and J(u) v, eta frozen at u. The solver's line
search and pressure recovery and the energy diagnostics use only these;
the operators are assembled only for a Newton step's linearization.
The iterate-dependent values a residual and a Jacobian share (eta on the
facet lines, w on the grid of convection points) are kept per pair for the
last state they were computed at, so the Jacobian and its products at a
state whose residual was just evaluated recompute neither.
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
    curl_factors,
    element_basis_1d,
    element_tables,
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
    "add_velocity_mass",
    "assemble_strain",
    "facet_tables",
    "jacobian_pattern",
    "streamfunction_pattern",
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


def _band(n_el: int, p_row: int, p_col: int, widen: bool = False) -> tuple[int, int]:
    """1-D band of a space of degree p_row against one of degree p_col, as
    (P, W): row a couples the columns a - P + d, d = 0 .. W - 1, that lie in
    the column space, 0 .. n_el + p_col - 1.

    Interior knots have multiplicity 1, so element e carries basis functions
    e .. e + p, and row a meets the elements a - p_row .. a: columns a -
    p_row .. a + p_col. With `widen` (one space, p_row = p_col = p, n_el >=
    2) the band is the union with the interior-facet jump blocks: facet i
    between elements i-1 and i couples functions i-1 .. i+p, so row a
    reaches a - p - 1 .. a + p + 1, a superset of its element band.
    """
    w = int(widen and n_el > 1)
    return p_row + w, p_row + p_col + 2 * w + 1


def _banded(a: np.ndarray, p: int, w: int) -> np.ndarray:
    """Band storage (rows, w) of a dense 1-D matrix a in the band (p, w) of
    `_band`: entry [r, d] is a[r, r - p + d], zero where that column is
    outside a. Nonzeros of a outside the band are dropped."""
    n, m = a.shape
    padded = np.zeros((n, m + p + w))
    padded[:, p : p + m] = a
    rows = np.arange(n)[:, None]
    return padded[rows, rows + np.arange(w)]


def _row_runs(band: np.ndarray) -> list[slice]:
    """The runs of consecutive rows of band that hold a nonzero: one for a
    Gram matrix, one at each end for a boundary term's normal factor."""
    padded = np.zeros(len(band) + 2, dtype=bool)
    padded[1:-1] = band.any(axis=1)
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return [slice(a, b) for a, b in zip(edges[::2], edges[1::2])]


class _BandCSR:
    """A square CSR pattern whose data array is gathered from a flat band
    buffer: read-only indptr, indices and gather index _gather (the buffer
    position of each stored entry, in CSR order), and shape and nnz read
    from indptr. Every matrix `csr` builds shares indptr and indices, so no
    matrix on the pattern can be changed in its structure."""

    _GATHER_CHUNK = 8192

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, gather: np.ndarray):
        self.indptr = _read_only(indptr)
        self.indices = _read_only(indices)
        self._gather = _read_only(gather)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.indptr) - 1,) * 2

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def gather(self, flat: np.ndarray) -> np.ndarray:
        """The data array of a band buffer: its stored entries in CSR order.

        np.take casts an index that is not intp to an intp copy, so the int32
        index is taken in chunks of _GATHER_CHUNK, each cast copy 64 KiB; mode
        "clip" (every position is in range) lets it write unbuffered."""
        out = np.empty(self.nnz)
        for s in range(0, self.nnz, self._GATHER_CHUNK):
            chunk = slice(s, s + self._GATHER_CHUNK)
            np.take(flat, self._gather[chunk], out=out[chunk], mode="clip")
        return out

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """The matrix with the given data array on this pattern's shared indices."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


class JacobianPattern(_BandCSR):
    """The one CSR sparsity pattern of a pair: every velocity operator is a
    data array on it, and a Jacobian is a sum of data arrays.

    Each component block (i, j), rows of velocity component i against
    columns of component j, is the Kronecker product of a y band and an x
    band, bands[i][j] = ((P_y, W_y), (P_x, W_x)) (`_band`): element bands,
    except that vx's interior-facet jump blocks (facets normal to y) widen
    block (0, 0)'s y band and vy's (facets normal to x) widen block (1, 1)'s
    x band. These hold K, M, N1, N2 and J: the normal component's
    (alpha'+1)-th normal derivative is continuous, so it has no jump blocks,
    and K's boundary terms couple functions of one boundary element. The
    bands need interior knot multiplicity 1; other knot vectors raise
    ValueError.

    Operators are summed in a band buffer, one flat array (`buffer`) that
    every method and adder takes as it is. Its block (i, j) (`blocks`) is an
    (R_y, W_y, R_x, W_x) view, (R_y, R_x) component i's basis sizes, whose
    entry (r_y, d_y, r_x, d_x) couples row (r_y, r_x) with column (r_y - P_y
    + d_y, r_x - P_x + d_x). A contribution goes in by slices and outer
    products, or, as data on the pattern, through the gather index; entries
    whose column lies outside the space stay zero and are never read.
    `gather` takes the buffer's other entries into a data array in CSR
    order (`_BandCSR`): a row r of component i holds block (i, 0) and then
    block (i, 1), each in (c_y, c_x) order.
    """

    def __init__(self, pair: DivConformingPair):
        spaces = pair.velocity_spaces
        knot_vectors = [kv for s in spaces for kv in (s.kv_x, s.kv_y)]
        if any(kv.n_basis != kv.n_elements + kv.degree for kv in knot_vectors):
            raise ValueError("JacobianPattern requires interior knot multiplicity 1")
        kvs = [(s.kv_y, s.kv_x) for s in spaces]  # buffer order: y, then x
        self.bands = [
            [
                tuple(
                    _band(a.n_elements, a.degree, b.degree, widen=i == j == axis)
                    for axis, (a, b) in enumerate(zip(kvs[i], kvs[j]))
                )
                for j in (0, 1)
            ]
            for i in (0, 1)
        ]
        # _layout[i][j] = (start, shape) of block (i, j) in the flat buffer
        self._layout, self._size = [[], []], 0
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            (_, w_y), (_, w_x) = self.bands[i][j]
            shape = (kvs[i][0].n_basis, w_y, kvs[i][1].n_basis, w_x)
            self._layout[i].append((self._size, shape))
            self._size += math.prod(shape)
        n = pair.n_u
        index_dtype = sp.get_index_dtype(maxval=max(n, self._size))

        def entries(i: int, key: str) -> np.ndarray:
            """A value per buffer entry of blocks (i, 0) and (i, 1), side by
            side, (rows of component i, W_y W_x of (i, 0) + that of (i, 1)):
            "mask", whether its column lies in the space; "position", its
            place in the flat buffer; "column", its global column. Each block
            is the outer sum (for "mask", the outer and) of a y and an x
            factor, (R, W) each, written in place."""
            r_y, r_x = (kv.n_basis for kv in kvs[i])
            widths = [shape[1] * shape[3] for _, shape in self._layout[i]]
            out = np.empty((r_y, r_x, sum(widths)), dtype=bool if key == "mask" else index_dtype)
            for j, (start, (_, w_y, _, w_x)) in enumerate(self._layout[i]):
                cols = [
                    np.arange(r, dtype=index_dtype)[:, None] - p + np.arange(w, dtype=index_dtype)
                    for r, (p, w) in zip((r_y, r_x), self.bands[i][j])
                ]
                op = np.add
                if key == "mask":
                    y, x = ((c >= 0) & (c < kv.n_basis) for c, kv in zip(cols, kvs[j]))
                    op = np.logical_and
                elif key == "position":
                    y, x = (
                        np.arange(r * w, dtype=index_dtype).reshape(r, w)
                        for r, w in ((r_y, w_y), (r_x, w_x))
                    )
                    y = y * (r_x * w_x) + start
                else:
                    y, x = cols[0] * kvs[j][1].n_basis + pair.component_offset(j), cols[1]
                block = out[:, :, sum(widths[:j]) : sum(widths[: j + 1])]
                op(y[:, None, :, None], x[None, :, None, :], out=block.reshape(r_y, r_x, w_y, w_x))
            return out.reshape(r_y * r_x, -1)

        masks = [entries(i, "mask") for i in (0, 1)]
        indptr = np.zeros(n + 1, dtype=index_dtype)
        np.cumsum(np.concatenate([m.sum(axis=1) for m in masks]), out=indptr[1:])
        gather, indices = np.empty(indptr[-1], index_dtype), np.empty(indptr[-1], index_dtype)
        ends = (0, int(indptr[spaces[0].n_dofs]), int(indptr[-1]))
        for out, key in ((gather, "position"), (indices, "column")):
            for i in (0, 1):
                out[ends[i] : ends[i + 1]] = entries(i, key)[masks[i]]
        super().__init__(indptr, indices, gather)

    def buffer(self) -> np.ndarray:
        """A zeroed flat band buffer."""
        return np.zeros(self._size)

    def blocks(self, flat: np.ndarray) -> list[list[np.ndarray]]:
        """The block views of a flat band buffer: blocks[i][j] of component
        block (i, j), shape (R_y, W_y, R_x, W_x)."""
        return [
            [flat[s : s + math.prod(shape)].reshape(shape) for s, shape in row]
            for row in self._layout
        ]

    def add_kron(self, flat: np.ndarray, terms) -> None:
        """Add the Kronecker terms (i, j, a_y, a_x) into a band buffer: each
        is the block kron(a_y, a_x) of rows of component i and columns of
        component j, a_y and a_x dense 1-D matrices with their nonzeros in
        the block's bands, added as the outer product of their band storages
        on the runs of rows where both factors hold a nonzero (`_row_runs`)."""
        blocks = self.blocks(flat)
        for i, j, a_y, a_x in terms:
            (p_y, w_y), (p_x, w_x) = self.bands[i][j]
            b_y, b_x = _banded(a_y, p_y, w_y), _banded(a_x, p_x, w_x)
            for s_y in _row_runs(b_y):
                for s_x in _row_runs(b_x):
                    blocks[i][j][s_y, :, s_x] += np.multiply.outer(b_y[s_y], b_x[s_x])

    def kron_data(self, terms) -> np.ndarray:
        """The data array of the Kronecker terms (`add_kron`)."""
        flat = self.buffer()
        self.add_kron(flat, terms)
        return self.gather(flat)


jacobian_pattern = per_pair(JacobianPattern)


def _shifts(factor: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(s, diagonal) for each s with factor[a + s, a] nonzero for some a:
    diagonal[a] = factor[a + s, a], zero past the factor's last row."""
    n_rows, n = factor.shape
    out = []
    for s in range(n_rows - n + 1):
        diagonal = np.zeros(n)
        m = min(n, n_rows - s)
        diagonal[:m] = factor[np.arange(m) + s, np.arange(m)]
        if diagonal.any():
            out.append((s, diagonal))
    return out


def _reduction_matrix(band, psi_band, y_i: np.ndarray, y_j: np.ndarray) -> sp.csr_matrix:
    """The matrix taking the flat band storage (R W) of a 1-D operator B in
    band = (P, W) to that of Y_i^T B Y_j, (N' W') in psi_band = (P', W'):

        (Y_i^T B Y_j)[a, e] = sum_(s, t) w_st[a, e] B[a + s, e + P - P' + t - s],

    w_st[a, e] = Y_i[a + s, a] Y_j[b + t, b], b = a - P' + e, for the at
    most two shifts s of Y_i's columns and two t of Y_j's (`_shifts`); zero
    weights, where b or the source entry is outside its range, are left out;
    so row a W' + e stores an entry exactly where |Y_i|^T |B| |Y_j| is
    nonzero for B full in its band (a kept source column, b + t, is in range)."""
    (p, w), (p_psi, w_psi) = band, psi_band
    n_rows, n = y_i.shape
    a, e = np.arange(n)[:, None], np.arange(w_psi)
    b = a - p_psi + e
    rows, cols, values = [], [], []
    for s, diagonal_i in _shifts(y_i):
        for t, diagonal_j in _shifts(y_j):
            d = e + p - p_psi + t - s
            weight = diagonal_i[:, None] * np.where((b >= 0) & (b < n), diagonal_j[b % n], 0.0)
            weight[:, (d < 0) | (d >= w)] = 0.0
            a_nz, e_nz = np.nonzero(weight)
            rows.append(a_nz * w_psi + e_nz)
            cols.append((a_nz + s) * w + d[e_nz])
            values.append(weight[a_nz, e_nz])
    return sp.csr_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * w_psi, n_rows * w),
    )


class StreamfunctionPattern(_BandCSR):
    """The CSR pattern of A = C^T J C on the interior streamfunction
    coefficients, and the reduction of a `JacobianPattern` band buffer to A.

    C's component blocks are C_c = Y_c (x) X_c (`curl_factors`), so block
    (i, j) of A is the 1-D reduction of block (i, j) of J along y, by Y_i and
    Y_j, and then along x, by X_i and X_j. Along one axis, with the block's
    velocity band (P, W) and the psi band (P', W'), the reduction of the
    band storage is a fixed sparse matrix with at most four entries a row
    (`_reduction_matrix`: column a of each factor holds its nonzeros at rows
    a and a + 1). So a block, stored (R_y W_y, R_x W_x), is reduced by one
    sparse product along y, a transpose, and one sparse product along x,
    giving its part of the psi band in x-major storage (N_x', W_x', N_y',
    W_y'): entry (a_x, e_x, a_y, e_y) couples row (a_y, a_x) with column
    (a_y - P_y' + e_y, a_x - P_x' + e_x). The psi bands, bands = ((P_y',
    W_y'), (P_x', W_x')), are the unions of the blocks' reduced bands: W' =
    7, 9, 11 at k' = 1, 2, 3.

    `indptr` and `indices` are those of the structural product |C|^T |J|
    |C|, J full on the velocity pattern: the union over the blocks of the
    Kronecker product of the rows their y and x reductions store.
    """

    def __init__(self, pair: DivConformingPair):
        velocity = jacobian_pattern(pair)
        factors = curl_factors(pair)
        n_y, n_x = factors[0][0].shape[1], factors[0][1].shape[1]
        blocks = [(i, j) for i in (0, 1) for j in (0, 1)]
        self.bands = []
        for axis in (0, 1):
            low = high = 0
            for i, j in blocks:
                p, w = velocity.bands[i][j][axis]
                for s, _ in _shifts(factors[i][axis]):
                    for t, _ in _shifts(factors[j][axis]):
                        low, high = max(low, p + t - s), max(high, w - 1 - p + s - t)
            self.bands.append((low, low + high + 1))
        (p_y, w_y), (p_x, w_x) = self.bands
        # inside[a_y, a_x, e_y, e_x]: whether the structural product holds the
        # psi band entry, in CSR order (rows, then columns ascending)
        inside = np.zeros((n_y, n_x, w_y, w_x), dtype=bool)
        self._reductions = []
        for i, j in blocks:
            along = [
                _reduction_matrix(band, psi_band, factors[i][axis], factors[j][axis])
                for axis, (band, psi_band) in enumerate(zip(velocity.bands[i][j], self.bands))
            ]
            self._reductions.append((i, j, *along))
            s_y, s_x = (np.diff(r.indptr).reshape(n, -1) > 0 for r, n in zip(along, (n_y, n_x)))
            inside |= s_y[:, None, :, None] & s_x[None, :, None, :]
        indptr = np.append(0, np.cumsum(inside.sum(axis=(2, 3)))).astype(np.int32)
        (a_y, e_y), (a_x, e_x) = (
            np.indices(s, np.int32, sparse=True) for s in ((n_y, w_y), (n_x, w_x))
        )
        columns = (a_y - p_y + e_y)[:, None, :, None] * n_x + (a_x - p_x + e_x)[None, :, None, :]
        # positions in the x-major band of `reduce`, (a_x, e_x, a_y, e_y)
        y_part, x_part = (a_y * w_y + e_y)[:, None, :, None], (a_x * w_x + e_x)[None, :, None, :]
        super().__init__(indptr, columns[inside], (x_part * (n_y * w_y) + y_part)[inside])
        self._velocity = velocity

    def reduce(self, flat: np.ndarray) -> np.ndarray:
        """The data array of C^T J C, J in a `JacobianPattern` band buffer.

        The blocks' parts are summed into the first one; at most a part, the
        transposed y product and the sum are held at once."""
        blocks = self._velocity.blocks(flat)
        band = None
        for i, j, along_y, along_x in self._reductions:
            block = blocks[i][j]
            r_y, w_y, r_x, w_x = block.shape
            part = along_x @ np.ascontiguousarray((along_y @ block.reshape(r_y * w_y, r_x * w_x)).T)
            if band is None:
                band = part
            else:
                band += part
            del part
        return self.gather(band.ravel())


streamfunction_pattern = per_pair(StreamfunctionPattern)


def _strain_terms(pair: DivConformingPair) -> list:
    """Kronecker terms (i, j, a_y, a_x) (see `JacobianPattern.add_kron`) of
    the unit-viscosity strain matrix S: 2 int [2 e11(u) e11(v) + 2 e22 e22 +
    4 e12 e12], expanded per component block, in 1-D Gram matrices."""
    (x0, y0), (x1, y1) = ((s.kv_x, s.kv_y) for s in pair.velocity_spaces)
    k12 = gram_matrix(y0, y1, 1, 0), gram_matrix(x0, x1, 0, 1)  # int d_y phi_a d_x phi_b
    return [
        (0, 0, y0.mass, 2.0 * gram_matrix(x0, x0, 1, 1)),
        (0, 0, gram_matrix(y0, y0, 1, 1), x0.mass),
        (1, 1, 2.0 * gram_matrix(y1, y1, 1, 1), x1.mass),
        (1, 1, y1.mass, gram_matrix(x1, x1, 1, 1)),
        (0, 1, *k12),
        (1, 0, k12[0].T, k12[1].T),
    ]


@per_pair
def assemble_strain(pair: DivConformingPair) -> sp.csr_matrix:
    """Unit-viscosity volume strain matrix S with u^T S u = 2 ||grad_s u||^2,
    a sum of Kronecker products of 1-D Gram matrices (`_strain_terms`)."""
    pattern = jacobian_pattern(pair)
    return pattern.csr(_read_only(pattern.kron_data(_strain_terms(pair))))


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
    (alpha'+1)-th normal derivative, plus side minus minus side, on the knot
    lines: line_jump (lines, n_normal) dense, and jump_products (lines, R_n
    W_n), each line's outer product of its jump row with itself in the band
    storage (`_band`, widened) of the pattern's normal direction, which
    `assemble_skeleton` crosses with the products of tang_rows (T_el, nq,
    L_t), the component's element rows along the tangential axis (a view).
    """

    def __init__(self, pair: DivConformingPair):
        m = pair.alpha_prime + 1
        tab = element_tables(pair, bilinear_quad_points(pair))
        self.interior = []
        for axis in (0, 1):
            t = 1 - axis  # the tangential axis, and the tangential component
            inner = SimpleNamespace(
                axis=axis, line_weights=tab.weights_1d[t], line_value=[],
                tang=[tab.colloc[c][t][0] for c in (0, 1)], tang_rows=tab.rows[t][t][:, :, 0],
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
                p_n, w_n = _band(kv_n.n_elements, kv_n.degree, kv_n.degree, widen=True)
                inner.jump_products = np.empty((len(inner.line_jump), n_n * w_n))
                for products, jump in zip(inner.jump_products, inner.line_jump):
                    products[:] = _banded(np.outer(jump, jump), p_n, w_n).ravel()
            self.interior.append(inner)


facet_tables = per_pair(FacetTables)


def _boundary_terms(pair: DivConformingPair) -> dict[str, list]:
    """Kronecker terms (i, j, a_y, a_x) (see `JacobianPattern.add_kron`) of
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


def _nitsche_terms(pair: DivConformingPair, params: StabParams) -> list:
    """Kronecker terms (i, j, a_y, a_x) of K's boundary part, -nu (G + G^T)
    + (2 nu C_nit / h) P_h (`_boundary_terms`)."""
    terms = _boundary_terms(pair)
    coef = 2.0 * params.nu * params.c_nit / pair.mesh.h
    g = [(i, j, -params.nu * a_y, a_x) for i, j, a_y, a_x in terms["G"]]
    return (
        g
        + [(j, i, a_y.T, a_x.T) for i, j, a_y, a_x in g]
        + [(i, j, coef * a_y, a_x) for i, j, a_y, a_x in terms["P_h"]]
    )


def assemble_viscous_nitsche(
    pair: DivConformingPair,
    params: StabParams,
    nitsche: bool = True,
    out: np.ndarray | None = None,
) -> sp.csr_matrix | None:
    """Viscous operator K with weak tangential Dirichlet terms.

    K implements (2 nu grad_s u, grad_s v) plus, when nitsche is set, the
    consistency/penalty boundary terms; the matching Dirichlet-data terms of
    the load are `nitsche_load`. With nitsche=False only the volume term is
    kept (free-slip walls where the normal trace is imposed strongly and the
    tangential traction vanishes). The penalty on each boundary facet is
    2 nu C_nit / h_n, h_n the boundary element's length normal to the facet,
    so small boundary elements keep K coercive on graded meshes.

    K = nu S - nu (G + G^T) + (2 nu C_nit / h) P_h on `jacobian_pattern`,
    summed in a band buffer: nu times the data of the memoized
    `assemble_strain` through the pattern's gather index, then the boundary
    terms (`_nitsche_terms`) by `JacobianPattern.add_kron`. Given out, a
    `JacobianPattern.buffer`, K is added into it and nothing is gathered or
    returned.
    """
    pattern = jacobian_pattern(pair)
    flat = pattern.buffer() if out is None else out
    np.add.at(flat, pattern._gather, params.nu * assemble_strain(pair).data)
    if nitsche:
        pattern.add_kron(flat, _nitsche_terms(pair, params))
    return None if out is not None else pattern.csr(pattern.gather(flat))


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
    m_p = sp.kron(sp.csr_matrix(pair.q.kv_y.mass), sp.csr_matrix(pair.q.kv_x.mass))
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


def _fold(out: np.ndarray, local: np.ndarray, p: int) -> None:
    """Add local (E, L, M, ...) element products, row function e + l
    against column function e + m, into out (R, W, ...) in the band (p, W)
    (`_band`): one slice-add per l, entry (e + l, m - l + p)."""
    n_el, n_rows, n_cols = local.shape[:3]
    for l in range(n_rows):
        out[l : l + n_el, p - l : p - l + n_cols] += local[:, l]


def _sum_factorized(tab, w: np.ndarray, j: int, i: int, c: int, band, out: np.ndarray) -> None:
    """Add -int w (d_c phi_a) phi_b, phi_a of component j and phi_b of
    component i, w on the tables' tensor grid of points, into out, the band
    storage (R_y, W_y, R_x, W_x) of component block (j, i) with bands band
    = ((P_y, W_y), (P_x, W_x)) (`JacobianPattern.blocks`).

    Sum factorization (Antolin, Buffa, Calabro, Martinelli & Sangalli, CMAME
    285 (2015)): the x points are contracted first, one matmul batched over
    the x elements with the weighted products of the x rows, (lx mx) per
    point, and the element products are folded into x band rows (`_fold`);
    then the y points, one matmul batched over the y elements, folded into
    y band rows. No element block is formed.
    """
    (xa, ya), (xb, yb) = tab.rows[j], tab.rows[i]
    (nx, nq, _, lx), (ny, _, _, ly) = xa.shape, ya.shape
    mx, my = xb.shape[-1], yb.shape[-1]
    (off_y, _), (off_x, width_x) = band
    r_x = out.shape[2]
    w_x = tab.weights_1d[0].reshape(nx, nq, 1, 1)
    w_y = -tab.weights_1d[1].reshape(ny, nq, 1, 1)  # the forms' minus sign
    p_x = (w_x * xa[:, :, 1 - c, :, None] * xb[:, :, 0, None, :]).reshape(nx, nq, lx * mx)
    p_y = (w_y * ya[:, :, c, :, None] * yb[:, :, 0, None, :]).reshape(ny, nq, ly * my)
    t = np.matmul(p_x.transpose(0, 2, 1), w.T.reshape(nx, nq, ny * nq))  # (nx, lx mx, ny nq)
    t_band = np.zeros((r_x, width_x, ny * nq))
    _fold(t_band, t.reshape(nx, lx, mx, -1), off_x)
    s = np.matmul(p_y.transpose(0, 2, 1), t_band.reshape(r_x * width_x, ny, nq).transpose(1, 2, 0))
    _fold(out, s.reshape(ny, ly, my, r_x, width_x), off_y)


def assemble_convection(
    pair: DivConformingPair,
    w_state: StateVector | np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[sp.csr_matrix, sp.csr_matrix] | None:
    """Convection C(w; u, v) = -(w x u, grad v) and its state-derivative block.

    Returns (N1, N2) on the pair's `jacobian_pattern`, with N1 u acting as
    C(w; u, .) and N2 u as C(u; w, .); the Newton Jacobian of the convective
    residual N1(w) w is N1 + N2 and the residual itself is N1 @ w. Both come
    from one adder, `_add_convection`, run once for N1 and once for N2, each
    into a band buffer of its own that is then gathered. Given out, a
    `JacobianPattern.buffer`, the adder runs once for N1 + N2 into it and
    nothing is gathered or returned.
    """
    w_u = w_state.u if isinstance(w_state, StateVector) else w_state
    if out is not None:
        _add_convection(pair, w_u, out, n1=True, n2=True)
        return None
    pattern = jacobian_pattern(pair)
    flat_n1, flat_n2 = pattern.buffer(), pattern.buffer()
    _add_convection(pair, w_u, flat_n1, n1=True, n2=False)
    _add_convection(pair, w_u, flat_n2, n1=False, n2=True)
    return pattern.csr(pattern.gather(flat_n1)), pattern.csr(pattern.gather(flat_n2))


def _add_convection(
    pair: DivConformingPair, w_u: np.ndarray, flat: np.ndarray, n1: bool, n2: bool
) -> None:
    """Add N1 (if n1) and N2 (if n2) at w_u into the band buffer flat.

    Every term is `_sum_factorized` from the 1-D element rows and w on the
    grid of convection points. N2's block (j, i) is -(w_j d_i phi_a, phi_b),
    so its diagonal block j is the i = j term of N1's block j, -(w . grad
    phi_a) phi_b: block (j, i) is added with weight 1 for N2 and 1 more on
    the diagonal blocks for N1 (a weight of 2 doubles the terms exactly),
    then N1's other term of each diagonal block."""
    tab = _convection_tables(pair)
    pattern = jacobian_pattern(pair)
    w = _convection_values(pair, w_u)
    blocks = pattern.blocks(flat)
    for j in (0, 1):
        for i in (0, 1):
            weight = int(n2) + int(n1 and i == j)
            if weight:
                w_ji = w[j] if weight == 1 else weight * w[j]
                _sum_factorized(tab, w_ji, j, i, i, pattern.bands[j][i], blocks[j][i])
    if n1:
        for j in (0, 1):
            _sum_factorized(tab, w[1 - j], j, j, 1 - j, pattern.bands[j][j], blocks[j][j])


def convection_residual(
    pair: DivConformingPair, u: np.ndarray, v: np.ndarray | None = None
) -> np.ndarray:
    """Convective residual N1(u) u, i.e. C(u; u, phi_a) for every test
    function; given a direction v, its derivative (N1(u) + N2(u)) v at u.

    Computed without N1, on the tensor grid of convection points: with U_c
    the values of component c there and W = -(w_y (x) w_x), test component
    j takes

        r_j = C_y,j^T (W F_j0) C'_x,j + C'_y,j^T (W F_j1) C_x,j,

    with (C, C') the collocation of `element_tables`, written into its slice
    of the output. The residual has F_jk = U_j U_k, the derivative F_jk =
    U_j V_k + V_j U_k (V_c the values of v, evaluated outside the memo, so
    that it keeps u): 2 U_0 V_0, 2 U_1 V_1 and a shared cross term.
    """
    tab = _convection_tables(pair)
    uq = _convection_values(pair, u)
    neg_weights = -np.outer(tab.weights_1d[1], tab.weights_1d[0])
    if v is not None:
        vq = _convection_point_values(pair, v)
        cross = neg_weights * (uq[0] * vq[1] + vq[0] * uq[1])
    out = np.empty(pair.n_u)
    for j in (0, 1):
        (c_x, dc_x), (c_y, dc_y) = tab.colloc[j]
        if v is None:
            wu = neg_weights * uq[j]
            flux = [wu * uq[0], wu * uq[1]]
        else:
            flux = [cross, cross]
            flux[j] = (2.0 * neg_weights) * (uq[j] * vq[j])
        r_j = pair.component_coeffs(out, j)  # a view of the output
        np.matmul(c_y.T @ flux[0], dc_x, out=r_j)
        r_j += dc_y.T @ flux[1] @ c_x
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
    pair: DivConformingPair,
    w_state: StateVector | np.ndarray,
    params: StabParams,
    out: np.ndarray | None = None,
) -> sp.csr_matrix | None:
    """Skeleton penalty operator J(w) (symmetric positive semidefinite).

    Only the tangential component c jumps (see `JacobianPattern`), and on a
    facet its block is separable: (sum_q w eta t t^T) (x) (n n^T), t the
    tangential rows and n the normal jump row. For each facet orientation
    the tangential products are weighted by eta on every line at once (one
    matmul batched over the tangential elements) and folded into the
    tangential band (`_fold`), giving an (R_t W_t, lines) table; one matmul
    with the lines' fixed jump_products (`FacetTables`) sums the facets
    into block (c, c) of the band buffer. gamma = 0 returns a matrix with
    no stored entries. Given out, a `JacobianPattern.buffer`, J is added
    into it and nothing is gathered or returned.
    """
    n = pair.n_u
    if params.gamma == 0.0:
        return None if out is not None else sp.csr_matrix((n, n))
    w_u = w_state.u if isinstance(w_state, StateVector) else w_state
    pattern = jacobian_pattern(pair)
    flat = pattern.buffer() if out is None else out
    blocks = pattern.blocks(flat)
    for facets, eta in zip(facet_tables(pair).interior, facet_eta_values(pair, w_u, params)):
        a, c = facets.axis, 1 - facets.axis
        rows = facets.tang_rows
        n_el, nq, l_t = rows.shape
        products = (rows[..., :, None] * rows[..., None, :]).reshape(n_el, nq, l_t * l_t)
        weighted = (facets.line_weights[:, None] * eta).reshape(n_el, nq, -1)
        local = np.matmul(products.transpose(0, 2, 1), weighted)  # (n_el, l_t l_t, lines)
        block = blocks[c][c]
        p_t, w_t = pattern.bands[c][c][a]  # the tangential band: y for a = 0
        r_t = block.shape[2 * a]
        tangential = np.zeros((r_t, w_t, local.shape[-1]))
        _fold(tangential, local.reshape(n_el, l_t, l_t, -1), p_t)
        tangential = tangential.reshape(r_t * w_t, -1)
        target = block.reshape(block.shape[0] * block.shape[1], -1)
        # (R_y W_y, R_x W_x) = tangential x normal
        factors = (
            (tangential, facets.jump_products) if a == 0 else (facets.jump_products.T, tangential.T)
        )
        target += np.matmul(*factors)
    return None if out is not None else pattern.csr(pattern.gather(flat))


def skeleton_residual(
    pair: DivConformingPair, u: np.ndarray, params: StabParams, v: np.ndarray | None = None
) -> np.ndarray:
    """Skeleton penalty residual J(u) u, so that u @ J(u) u = J(u; u, u);
    given a direction v, J(u) v, eta frozen at u as in the linearization.

    Computed without J, on the facet lines (`FacetTables`): on the facets
    normal to axis the tangential component c = 1 - axis, with G its
    coefficient grid (of u, or of v when given) indexed (tangential,
    normal), has the jumps S = T_c G L_c^T at the quadrature points of every
    line, and

        r_c = T_c^T (w eta S) L_c,

    with T_c the tangential collocation, L_c the jump rows and w the
    tangential weights; each orientation writes its tangential component's
    slice of the output. gamma = 0 returns zeros.
    """
    if params.gamma == 0.0:
        return np.zeros(pair.n_u)
    out = np.empty(pair.n_u)  # each component is the tangential one of one orientation
    for facets, eta in zip(facet_tables(pair).interior, facet_eta_values(pair, u, params)):
        a, c = facets.axis, 1 - facets.axis
        tang, jump = facets.tang[c], facets.line_jump
        grid = _tangential_first(pair.component_coeffs(u if v is None else v, c), a)
        weighted = (facets.line_weights[:, None] * eta) * (tang @ grid @ jump.T)
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


def _mass_terms(pair: DivConformingPair) -> list:
    """Kronecker terms (c, c, M_y, M_x) of the velocity mass, from the knot
    vectors' 1-D masses."""
    return [(c, c, s.kv_y.mass, s.kv_x.mass) for c, s in enumerate(pair.velocity_spaces)]


def add_velocity_mass(pair: DivConformingPair, weight: float, out: np.ndarray) -> None:
    """Add weight M into out, a `JacobianPattern.buffer`, by M's Kronecker
    terms (`JacobianPattern.add_kron`)."""
    terms = [(i, j, weight * m_y, m_x) for i, j, m_y, m_x in _mass_terms(pair)]
    jacobian_pattern(pair).add_kron(out, terms)


@per_pair
def assemble_velocity_mass(pair: DivConformingPair) -> sp.csr_matrix:
    """Block-diagonal velocity mass matrix, kron(M_y, M_x) per component,
    without the pattern's other entries; its arrays are read-only."""
    mass = sp.block_diag(
        [sp.kron(m_y, m_x, format="csr") for _, _, m_y, m_x in _mass_terms(pair)],
        format="csr",
    )
    for array in (mass.data, mass.indices, mass.indptr):
        _read_only(array)
    return mass
