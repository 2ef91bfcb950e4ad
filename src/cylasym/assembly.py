"""Galerkin assembly on the cylinder and on the cross-section.

One einsum kernel assembles a Galerkin matrix on a tensor product of 1-D
spline factors: per-axis local basis derivative tables are contracted
cell-by-cell against quadrature weights and coefficient values, one einsum
per coefficient pair, and scattered into a sparse matrix whose pattern holds
every pair of basis functions that share a cell, zeros included.

The cylinder matrix is a sum of Kronecker products.  A pair (alpha, beta)
whose coefficient reads none of the axial variables x1..xp -- decided
exactly from the expression's free variables by ScalarField.reads_axial --
contributes

    kron(A_axial[alpha_ax, beta_ax], A_cross[alpha', beta'; a])

where A_axial is the kernel on the p axial factors with unit coefficient and
A_cross is the kernel on the cross-section factors with the coefficient a,
the block assemble_limit builds.  Pairs that share an axial part share one
kron.  Every pair whose coefficient reads x1..xp, which the hypotheses allow
when alpha has an axial component, goes through the same kernel on all n
factors.  Both parts live on the same pattern, so they add entry by entry,
and symmetric problems store (A + A^T) / 2.  Against assembling every pair
on the n-D grid the entries differ only by rounding, because the products
are summed in another order, so reported values move at roundoff level.

Every evaluation and sum runs in a fixed order, so assembling the same
problem twice gives bitwise-identical matrices.

The cross-section (limit) problem keeps only coefficient pairs whose
multi-indices have no axial components; axial coordinates are pinned to zero
when evaluating coefficients and forcing there, which is exactly the
axis-independence the hypothesis validator enforces.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .problem import ProblemSpec
from .splines import SplineBasis1D, TensorBasis, composite_gauss

_CELL_LETTERS = "abc"
_QUAD_LETTERS = "uvw"
_ROW_LETTERS = "ijk"
_COL_LETTERS = "lmn"


class AssemblyError(RuntimeError):
    pass


@dataclass
class AssembledSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    basis: TensorBasis
    spec: ProblemSpec
    symmetric: bool
    ell: float | None = None

    @property
    def ndofs(self) -> int:
        return self.basis.ndofs


def cells_for(extent, resolution: int) -> int:
    lo, hi = extent
    return max(1, round((hi - lo) * resolution))


def cylinder_factors(spec: ProblemSpec, ell, resolution: int, degree: int | None = None):
    """The 1-D spline factors of the discrete space, axial factors first.

    With ell a half-length these span (-ell, ell)^p x omega; with ell None
    they span the cross-section omega alone, the space of assemble_limit.
    degree None picks m + 1.
    """
    degree = _validate_degree(spec, degree)
    extents = list(spec.omega)
    if ell is not None:
        extents = [(-float(ell), float(ell))] * spec.p + extents
    return tuple(
        SplineBasis1D(lo, hi, cells_for((lo, hi), resolution), degree, spec.m)
        for lo, hi in extents
    )


def _local_tables(factors, nders):
    """Per-axis quadrature and local basis values.

    Returns (pts, wts, B) per axis with B of shape
    (cells, points_per_cell, nders + 1, degree + 1); quadrature points are
    cell-major, so row c of B holds the functions active on cell c.
    """
    points_per_cell = max(f.degree for f in factors) + 1
    tables = []
    for f in factors:
        pts, wts = composite_gauss((f.lo, f.hi), f.cells, points_per_cell)
        ders, first = f.local_ders(pts, nders)
        expect = np.repeat(np.arange(f.cells), points_per_cell)
        if not np.array_equal(first, expect):
            raise AssemblyError("quadrature points not aligned with cells")
        B = ders.reshape(f.cells, points_per_cell, nders + 1, f.degree + 1)
        tables.append((pts, wts.reshape(f.cells, points_per_cell), B))
    return tables


def _index_tensors(factors):
    """Flat constrained row index and validity per (cell, local function)."""
    dims = [f.dim for f in factors]
    n = len(factors)
    strides = [int(np.prod(dims[k + 1 :])) for k in range(n)]
    R = np.zeros((1,) * (2 * n), dtype=np.int64)
    V = np.ones((1,) * (2 * n), dtype=bool)
    for k, f in enumerate(factors):
        idx = np.arange(f.cells)[:, None] + np.arange(f.degree + 1)[None, :] - f.bc_order
        ok = (idx >= 0) & (idx < f.dim)
        shape = [1] * (2 * n)
        shape[k] = f.cells
        shape[n + k] = f.degree + 1
        R = R + np.where(ok, idx, 0).reshape(shape) * strides[k]
        V = V & ok.reshape(shape)
    return R, V


def _quadrature_grid(tables, pinned):
    """Weights W of shape (c1, q1, c2, q2, ...), the coordinates a field is
    evaluated at, and the shape of the point grid.

    The first `pinned` coordinates are 0.0 (cross-section blocks evaluate
    fields with the axial coordinates at zero); the others are broadcastable
    axes of the tensor grid of per-axis quadrature points.
    """
    W = np.ones(())
    for _, wts, _B in tables:
        W = np.multiply.outer(W, wts)
    axes = [t[0] for t in tables]
    coords = (0.0,) * pinned + tuple(np.meshgrid(*axes, indexing="ij", sparse=True))
    return W, coords, tuple(len(a) for a in axes)


def _galerkin(factors, terms, pinned: int = 0):
    """The einsum kernel: CSR matrix of the sum over terms (alpha, beta, coef)
    of the integral of coef D^alpha u D^beta v on the tensor space of factors.

    alpha and beta index the factors; coef receives `pinned` leading zero
    coordinates before the factors' own.  Rows carry the test function v.
    """
    n = len(factors)
    if n > len(_CELL_LETTERS):
        raise AssemblyError("assembly supports at most 3 tensor axes")
    nders = max(max(alpha + beta) for alpha, beta, _ in terms)
    tables = _local_tables(factors, nders)
    W, coords, grid_shape = _quadrature_grid(tables, pinned)

    R, V = _index_tensors(factors)
    loc_shape = tuple(f.degree + 1 for f in factors)
    cells_shape = tuple(f.cells for f in factors)
    rows_view = R.reshape(cells_shape + loc_shape + (1,) * n)
    cols_view = R.reshape(cells_shape + (1,) * n + loc_shape)
    vrows = V.reshape(cells_shape + loc_shape + (1,) * n)
    vcols = V.reshape(cells_shape + (1,) * n + loc_shape)
    pair_mask = (vrows & vcols).ravel()
    full_shape = cells_shape + loc_shape + loc_shape
    rows_flat = np.broadcast_to(rows_view, full_shape).ravel()[pair_mask]
    cols_flat = np.broadcast_to(cols_view, full_shape).ravel()[pair_mask]

    cw_sub = "".join(c + q for c, q in zip(_CELL_LETTERS[:n], _QUAD_LETTERS[:n]))
    out_sub = _CELL_LETTERS[:n] + _ROW_LETTERS[:n] + _COL_LETTERS[:n]

    data = np.zeros(rows_flat.size)
    for alpha, beta, coef in terms:
        vals = np.broadcast_to(coef(coords), grid_shape)
        CW = W * vals.reshape(W.shape)
        ops = []
        subs = []
        for k in range(n):
            B = tables[k][2]
            # trial function carries alpha, test function carries beta
            ops.append(B[:, :, alpha[k], :])
            subs.append(_CELL_LETTERS[k] + _QUAD_LETTERS[k] + _COL_LETTERS[k])
            ops.append(B[:, :, beta[k], :])
            subs.append(_CELL_LETTERS[k] + _QUAD_LETTERS[k] + _ROW_LETTERS[k])
        ops.append(CW)
        subs.append(cw_sub)
        E = np.einsum(",".join(subs) + "->" + out_sub, *ops, optimize=True)
        data += E.ravel()[pair_mask]

    ndofs = int(np.prod([f.dim for f in factors]))
    A = sp.coo_matrix((data, (rows_flat, cols_flat)), shape=(ndofs, ndofs)).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    return A


def _load(factors, forcing, pinned: int = 0):
    """Load vector: the forcing integrated against every basis function."""
    n = len(factors)
    tables = _local_tables(factors, 0)
    W, coords, grid_shape = _quadrature_grid(tables, pinned)
    f_vals = np.broadcast_to(forcing(coords), grid_shape)
    FW = W * f_vals.reshape(W.shape)
    ops = []
    subs = []
    for k in range(n):
        ops.append(tables[k][2][:, :, 0, :])
        subs.append(_CELL_LETTERS[k] + _QUAD_LETTERS[k] + _ROW_LETTERS[k])
    ops.append(FW)
    subs.append("".join(c + q for c, q in zip(_CELL_LETTERS[:n], _QUAD_LETTERS[:n])))
    Fv = np.einsum(",".join(subs) + "->" + _CELL_LETTERS[:n] + _ROW_LETTERS[:n], *ops,
                   optimize=True)
    R, V = _index_tensors(factors)
    rhs = np.zeros(int(np.prod([f.dim for f in factors])))
    vflat = V.ravel()
    np.add.at(rhs, R.ravel()[vflat], Fv.ravel()[vflat])
    return rhs


def _padded_rows(M):
    """CSR rows padded to the longest one: (data, cols, valid), each (rows, width)."""
    lengths = np.diff(M.indptr)
    width = int(lengths.max())
    valid = np.arange(width)[None, :] < lengths[:, None]
    pos = np.minimum(M.indptr[:-1, None] + np.arange(width)[None, :], M.nnz - 1)
    return np.where(valid, M.data[pos], 0.0), np.where(valid, M.indices[pos], 0), valid


def _kron_sum(blocks):
    """CSR matrix of sum over (A, C) of kron(A, C), where every A shares one
    sparsity pattern and every C another; stored zeros are kept.

    Row (i, r) of a Kronecker product holds A[i, j] C[r, c] for j in row i of
    A and c in row r of C, j-major; with rows padded to equal length that is
    the C-order ravel of an (i, r, j-slot, c-slot) array, less the padding.
    """
    A0, C0 = blocks[0]
    _, a_cols, a_valid = _padded_rows(A0)
    _, c_cols, c_valid = _padded_rows(C0)
    keep = (a_valid[:, None, :, None] & c_valid[None, :, None, :]).ravel()
    acc = np.zeros(keep.size)
    for A, C in blocks:
        a = _padded_rows(A)[0][:, None, :, None]
        c = _padded_rows(C)[0][None, :, None, :]
        acc += (a * c).ravel()
    nc = C0.shape[0]
    indices = (a_cols[:, None, :, None] * nc + c_cols[None, :, None, :]).ravel()[keep]
    row_nnz = np.outer(np.diff(A0.indptr), np.diff(C0.indptr)).ravel()
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    n = A0.shape[0] * nc
    return sp.csr_matrix((acc[keep], indices, indptr), shape=(n, n))


def _symmetrize(M):
    """Replace M by (M + M^T) / 2 in place.  Every assembled pattern is
    symmetric, so M^T in CSR form stores its entries in the same order."""
    M.data = (M.data + M.T.tocsr().data) * 0.5


def _validate_degree(spec: ProblemSpec, degree: int) -> int:
    if degree is None:
        degree = spec.m + 1
    if degree < spec.m:
        raise AssemblyError(
            f"degree {degree} cannot conform for derivative order m={spec.m}"
        )
    return degree


def _where(spec: ProblemSpec, stage: str, ell) -> str:
    at = "on the cross-section (l = inf)" if ell is None else f"at l = {ell:g}"
    return f"{stage} for problem {spec.name or 'unnamed'} {at}"


def _check_finite(spec, stage, ell, **arrays):
    for what, values in arrays.items():
        if not np.all(np.isfinite(values)):
            raise AssemblyError(
                f"{_where(spec, stage, ell)}: assembled {what} contains non-finite entries"
            )


def _unit(coords):
    return np.ones(())


def assemble_cylinder(
    spec: ProblemSpec, ell: float, resolution: int, degree: int | None = None
) -> AssembledSystem:
    """Full problem on (-ell, ell)^p x omega with Dirichlet order m."""
    if ell <= 0:
        raise AssemblyError(
            f"{_where(spec, 'assemble_cylinder', ell)}: half-length must be positive"
        )
    factors = cylinder_factors(spec, ell, resolution, degree)
    p = spec.p
    axial, cross = factors[:p], factors[p:]
    by_axial_part = {}
    n_d_terms = []
    for alpha, beta in sorted(spec.coefficients):
        coef = spec.coefficients[(alpha, beta)]
        if coef.reads_axial(p):
            n_d_terms.append((alpha, beta, coef))
        else:
            by_axial_part.setdefault((alpha[:p], beta[:p]), []).append(
                (alpha[p:], beta[p:], coef)
            )
    symmetric = spec.symmetric
    blocks = [
        (_galerkin(axial, [(a, b, _unit)]), _galerkin(cross, terms, pinned=p))
        for (a, b), terms in by_axial_part.items()
    ]
    if blocks:
        # an infinite entry times a stored zero would make NaNs (and a numpy
        # warning) inside the Kronecker sum, so check the blocks first
        for _, C in blocks:
            _check_finite(spec, "assemble_cylinder", ell, matrix=C.data)
        A = _kron_sum(blocks)
    if n_d_terms:
        # same pattern as the Kronecker part, so the values add entry by entry
        N = _galerkin(factors, n_d_terms)
        if blocks:
            A.data += N.data
        else:
            A = N
    if symmetric:
        _symmetrize(A)
    rhs = _load(factors, spec.forcing)
    _check_finite(spec, "assemble_cylinder", ell, matrix=A.data, rhs=rhs)
    return AssembledSystem(A, rhs, TensorBasis(factors), spec, symmetric, ell=float(ell))


def assemble_limit(
    spec: ProblemSpec, resolution: int, degree: int | None = None
) -> AssembledSystem:
    """Cross-section problem: pairs with purely cross-sectional indices."""
    factors = cylinder_factors(spec, None, resolution, degree)
    terms = [
        (alpha[spec.p :], beta[spec.p :], spec.coefficients[(alpha, beta)])
        for (alpha, beta) in sorted(spec.limit_pairs())
    ]
    if not terms:
        raise AssemblyError(
            f"{_where(spec, 'assemble_limit', None)}: limit problem has no coefficient pairs"
        )
    A = _galerkin(factors, terms, pinned=spec.p)
    symmetric = spec.symmetric
    if symmetric:
        _symmetrize(A)
    rhs = _load(factors, spec.forcing, pinned=spec.p)
    _check_finite(spec, "assemble_limit", None, matrix=A.data, rhs=rhs)
    return AssembledSystem(A, rhs, TensorBasis(factors), spec, symmetric, ell=None)
