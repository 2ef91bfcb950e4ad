"""Galerkin assembly on the cylinder and on the cross-section.

Every matrix is built in one band layout.  On a tensor product of 1-D spline
factors of degrees d_k, two basis functions share a cell exactly when their
indices differ by at most d_k on every axis, so a matrix is an array of shape
(dim_1..dim_n, w_1..w_n), w_k = 2 d_k + 1, whose entry [i_1..i_n, s_1..s_n]
couples row (i_k) with column (i_k + s_k - d_k).  _to_csr drops the slots
whose column falls outside the space and keeps every other one, zeros too.

One einsum kernel builds the band on a tensor product of factors: per-axis
local basis derivative tables are contracted cell-by-cell against quadrature
weights and coefficient values, one einsum per coefficient pair, and each
local test function's element values are added into the rows that
SplineBasis1D.window assigns it.  The load vector is scattered the same way.

The cylinder matrix is a sum of Kronecker products.  A pair (alpha, beta)
whose coefficient reads none of the axial variables x1..xp -- decided
exactly from the expression's free variables by ScalarField.reads_axial --
contributes kron(A_axial[alpha_ax, beta_ax], A_cross[alpha', beta'; a]),
where A_axial is the kernel on the p axial factors with unit coefficient and
A_cross is the kernel on the cross-section factors with the coefficient a,
the block assemble_limit builds; in band layout that is the broadcast
product of the two bands.  Pairs that share an axial part share one product.
Every pair whose coefficient reads x1..xp, which the hypotheses allow when
alpha has an axial component, goes through the kernel on all n factors and
is added slot by slot.  Symmetric problems store (A + A^T) / 2.

Every evaluation and sum runs in a fixed order, each entry summing its cells
in ascending order, so assembling the same problem twice gives
bitwise-identical matrices.

The cross-section (limit) problem keeps only coefficient pairs whose
multi-indices have no axial components; axial coordinates are pinned to zero
when evaluating coefficients and forcing there, which is exactly the
axis-independence the hypothesis validator enforces.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .problem import ProblemSpec
from .splines import SplineBasis1D, TensorBasis, cells_for, composite_gauss

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


def _local_blocks(factors):
    """(cells, r, rows) per tuple r of local function numbers: the cells on
    which the constraint keeps local function r_k, and the rows it is there.
    r runs from degree down to 0, so rows receive cells in ascending order.
    SplineBasis1D's minimum of 2m + 1 cells keeps every r_k on some cell; a
    tuple with an r_k kept on none would add nothing and is skipped."""
    windows = [f.window(np.arange(f.cells)) for f in factors]
    for r in itertools.product(*(range(f.degree, -1, -1) for f in factors)):
        cells, rows = [], []
        for (cols, valid), rk in zip(windows, r):
            kept = np.flatnonzero(valid[:, rk])
            if not kept.size:
                break
            cells.append(slice(kept[0], kept[-1] + 1))
            rows.append(slice(cols[kept[0], rk], cols[kept[-1], rk] + 1))
        else:
            yield tuple(cells), r, tuple(rows)


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


def _band_shape(factors):
    return tuple(f.dim for f in factors) + tuple(2 * f.degree + 1 for f in factors)


def _galerkin(factors, terms, pinned: int = 0):
    """The einsum kernel: band of the sum over terms (alpha, beta, coef) of
    the integral of coef D^alpha u D^beta v on the tensor space of factors.

    alpha and beta index the factors; coef receives `pinned` leading zero
    coordinates before the factors' own.  Rows carry the test function v.
    """
    n = len(factors)
    if n > len(_CELL_LETTERS):
        raise AssemblyError("assembly supports at most 3 tensor axes")
    nders = max(max(alpha + beta) for alpha, beta, _ in terms)
    tables = _local_tables(factors, nders)
    W, coords, grid_shape = _quadrature_grid(tables, pinned)

    cw_sub = "".join(c + q for c, q in zip(_CELL_LETTERS[:n], _QUAD_LETTERS[:n]))
    out_sub = _CELL_LETTERS[:n] + _ROW_LETTERS[:n] + _COL_LETTERS[:n]

    # (cells..., test functions..., trial functions...), summed into each new
    # einsum result so that no second full-size buffer is held
    elements = 0.0
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
        E += elements
        elements = E

    # -0.0 + x is x bit for bit, so every entry is the plain sum of its cells
    band = np.full(_band_shape(factors), -0.0)
    for cells, r, rows in _local_blocks(factors):
        # trial function t of the cell sits in slot t - r + degree of row r
        slots = tuple(slice(f.degree - rk, 2 * f.degree + 1 - rk) for f, rk in zip(factors, r))
        band[rows + slots] += elements[cells + r]
    return band


def _to_csr(band):
    """CSR matrix of a band, columns ascending in every row; slots whose
    column falls outside the space are dropped."""
    n = band.ndim // 2
    keep = np.ones((1,) * (2 * n), dtype=bool)
    offset = np.zeros((), dtype=np.int32)  # column minus row, per slot tuple
    row_nnz = np.ones((), dtype=np.int64)
    for k, (dim, width) in enumerate(zip(band.shape[:n], band.shape[n:])):
        shift = np.arange(width, dtype=np.int32) - width // 2
        col = np.add.outer(np.arange(dim, dtype=np.int32), shift)
        inside = (col >= 0) & (col < dim)
        shape = [1] * (2 * n)
        shape[k], shape[n + k] = dim, width
        keep = keep & inside.reshape(shape)
        offset = np.add.outer(offset * dim, shift)
        row_nnz = np.multiply.outer(row_nnz, inside.sum(axis=1))
    cols = np.add.outer(np.arange(row_nnz.size, dtype=np.int32), offset.ravel())
    indptr = np.concatenate([[0], np.cumsum(row_nnz.ravel())])
    return sp.csr_matrix(
        (band[keep], cols.reshape(band.shape)[keep], indptr), shape=(row_nnz.size,) * 2
    )


def _load(factors, forcing, pinned: int = 0):
    """Load vector: the forcing integrated against every basis function."""
    n = len(factors)
    tables = _local_tables(factors, 0)
    W, coords, grid_shape = _quadrature_grid(tables, pinned)
    FW = W * np.broadcast_to(forcing(coords), grid_shape).reshape(W.shape)
    # one operand per axis (cell, point, test function), then the weights
    subs = [c + q + r for c, q, r in zip(_CELL_LETTERS, _QUAD_LETTERS, _ROW_LETTERS[:n])]
    subs.append("".join(s[:2] for s in subs))
    ops = [B[:, :, 0, :] for _, _, B in tables] + [FW]
    Fv = np.einsum(",".join(subs) + "->" + _CELL_LETTERS[:n] + _ROW_LETTERS[:n], *ops,
                   optimize=True)
    rhs = np.zeros(tuple(f.dim for f in factors))
    for cells, r, rows in _local_blocks(factors):
        rhs[rows] += Fv[cells + r]
    return rhs.ravel()


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


def _cylinder_band(spec: ProblemSpec, factors, ell):
    p = spec.p
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
    band = np.zeros(_band_shape(factors))
    for (a, b), terms in by_axial_part.items():
        C = _galerkin(factors[p:], terms, pinned=p)
        # an infinite entry times a zero would make NaNs (and a numpy
        # warning) in the product, so check the block first
        _check_finite(spec, "assemble_cylinder", ell, matrix=C)
        C = C.reshape(math.prod(C.shape[: C.ndim // 2]), -1)
        A = _galerkin(factors[:p], [(a, b, _unit)])
        A = A.reshape(math.prod(A.shape[:p]), -1)
        # the band as (axial rows, cross rows, axial slots, cross slots); one
        # axial slot at a time keeps the product's temporary small
        grouped = band.reshape(A.shape[0], C.shape[0], A.shape[1], C.shape[1])
        for s in range(A.shape[1]):
            grouped[:, :, s] += A[:, s, None, None] * C
    if n_d_terms:
        band += _galerkin(factors, n_d_terms)
    return band


def assemble_cylinder(
    spec: ProblemSpec, ell: float, resolution: int, degree: int | None = None
) -> AssembledSystem:
    """Full problem on (-ell, ell)^p x omega with Dirichlet order m."""
    if not (math.isfinite(ell) and ell > 0):
        raise AssemblyError(
            f"{_where(spec, 'assemble_cylinder', ell)}: half-length must be finite and positive"
        )
    factors = cylinder_factors(spec, ell, resolution, degree)
    A = _to_csr(_cylinder_band(spec, factors, ell))
    if spec.symmetric:
        _symmetrize(A)
    rhs = _load(factors, spec.forcing)
    _check_finite(spec, "assemble_cylinder", ell, matrix=A.data, rhs=rhs)
    return AssembledSystem(A, rhs, TensorBasis(factors), spec, spec.symmetric, ell=float(ell))


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
    A = _to_csr(_galerkin(factors, terms, pinned=spec.p))
    if spec.symmetric:
        _symmetrize(A)
    rhs = _load(factors, spec.forcing, pinned=spec.p)
    _check_finite(spec, "assemble_limit", None, matrix=A.data, rhs=rhs)
    return AssembledSystem(A, rhs, TensorBasis(factors), spec, spec.symmetric, ell=None)
