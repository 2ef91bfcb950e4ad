"""Dense views of the package's sparse objects, built only by the tests.

The package evaluates fields cell by cell and never forms a (points x dim)
basis matrix; the oracles here do, from the same local de Boor values, so a
test can compare a contraction against a plain matrix product.  Likewise
the package integrates the H^m norms of spline fields as Kronecker
quadratic forms; ProductEvaluator gives the grid integrator analysis.norm_Hm
the Leibniz product of a field and a cutoff, so a test can compare the two.
"""

import numpy as np

from cylasym.multiindex import multi_binom, sub, sub_indices


def dense_basis_matrix(basis, x, der: int = 0):
    """Dense (len(x), dim) matrix of the constrained basis derivative der."""
    ders, first = basis.local_ders(x, der)
    cols, valid = basis.window(first)
    Q = ders.shape[0]
    out = np.zeros((Q, basis.dim))
    rows = np.broadcast_to(np.arange(Q)[:, None], cols.shape)
    out[rows[valid], cols[valid]] = ders[:, der, :][valid]
    return out


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
