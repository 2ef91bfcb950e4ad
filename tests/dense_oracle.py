"""Dense and evaluator views of the package's objects, built only by the tests.

The package evaluates fields cell by cell and never forms a (points x dim)
basis matrix; the oracles here do, from the same local de Boor values, so a
test can compare a contraction against a plain matrix product.  Likewise
the package integrates the H^m norms of spline fields as Kronecker
quadratic forms, and represents u_l - ext(u_inf) once, as one spline field
(analysis.difference_field).  The evaluators here build the same functions
the other way, from values on a grid: ExtensionEvaluator extends a
cross-section field constantly along the axial axes, DifferenceEvaluator
subtracts two evaluators, and ProductEvaluator gives the grid integrator
analysis.norm_Hm the Leibniz product of a field and a cutoff.  A test
compares the two representations.

The package writes its CSR matrix from the same slot walk
(assembly._band_entries) that writes its LAPACK bands.  oracle_csr here
builds it without that walk: the full band summed from the system's pieces,
then _to_csr, then (A + A^T) / 2 from the CSR transpose.
"""

import numpy as np
import scipy.sparse as sp

from cylasym.multiindex import multi_binom, sub, sub_indices


def full_band(system):
    """The band of an AssembledSystem, every slot tuple in every row summed
    from its pieces in the package's order: zero, each Kronecker part, then
    the n-D band."""
    if not system.kron_parts:
        return system.nd_band.copy()
    p, n = system.spec.p, system.basis.naxes
    band = 0.0
    for A, C in system.kron_parts:
        # (axial rows, axial slots, cross rows, cross slots) to band layout
        product = np.multiply.outer(A, C)
        band = band + np.moveaxis(product, range(p, 2 * p), range(n, n + p))
    if system.nd_band is not None:
        band = band + system.nd_band
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


def oracle_csr(system):
    """The CSR matrix of an AssembledSystem, (A + A^T) / 2 for a symmetric
    problem: every assembled pattern is symmetric, so A^T in CSR form
    stores its entries in the same order as A."""
    A = _to_csr(full_band(system))
    if system.symmetric:
        A.data = (A.data + A.T.tocsr().data) * 0.5
    return A


def dense_basis_matrix(basis, x, der: int = 0):
    """Dense (len(x), dim) matrix of the constrained basis derivative der."""
    ders, first = basis.local_ders(x, der)
    cols, valid = basis.window(first)
    Q = ders.shape[0]
    out = np.zeros((Q, basis.dim))
    rows = np.broadcast_to(np.arange(Q)[:, None], cols.shape)
    out[rows[valid], cols[valid]] = ders[:, der, :][valid]
    return out


class ExtensionEvaluator:
    """Constant axial extension of a cross-section field: axial derivatives
    vanish, cross-sectional derivatives broadcast along the axial axes."""

    def __init__(self, cross_field, p: int):
        self._cross = cross_field
        self.p = int(p)

    def __call__(self, axes, alpha):
        shape = tuple(len(a) for a in axes)
        if any(alpha[k] > 0 for k in range(self.p)):
            return np.zeros(shape)
        vals = self._cross.eval_grid(list(axes[self.p :]), tuple(alpha[self.p :]))
        return np.broadcast_to(vals.reshape((1,) * self.p + vals.shape), shape)


class DifferenceEvaluator:
    """Difference of two evaluators, value by value."""

    def __init__(self, left, right):
        self._left = left
        self._right = right

    def __call__(self, axes, alpha):
        return self._left(axes, alpha) - self._right(axes, alpha)


class ProductEvaluator:
    """Leibniz product of two evaluators: D^alpha(fg) expanded exactly.

    norm_Hm asks for every alpha on one grid, and a beta recurs under every
    alpha above it, so the left factor's D^beta values are kept for the last
    grid seen: each is evaluated once per norm.
    """

    def __init__(self, left, right):
        self._left = left
        self._right = right
        self._grid = None
        self._left_values = {}

    def _left_at(self, axes, beta):
        if axes is not self._grid:
            self._grid, self._left_values = axes, {}
        if beta not in self._left_values:
            self._left_values[beta] = self._left(axes, beta)
        return self._left_values[beta]

    def __call__(self, axes, alpha):
        alpha = tuple(alpha)
        shape = tuple(len(a) for a in axes)
        out = np.zeros(shape)
        for beta in sub_indices(alpha):
            gamma = sub(alpha, beta)
            out += (
                multi_binom(alpha, beta)
                * self._left_at(axes, beta)
                * self._right(axes, gamma)
            )
        return out
