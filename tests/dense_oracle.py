"""Dense views of the package's sparse objects, built only by the tests.

The package evaluates fields cell by cell and never forms a (points x dim)
basis matrix; the oracles here do, from the same local de Boor values, so a
test can compare a contraction against a plain matrix product.
"""

import numpy as np


def dense_basis_matrix(basis, x, der: int = 0):
    """Dense (len(x), dim) matrix of the constrained basis derivative der."""
    ders, first = basis.local_ders(x, der)
    cols, valid = basis.window(first)
    Q = ders.shape[0]
    out = np.zeros((Q, basis.dim))
    rows = np.broadcast_to(np.arange(Q)[:, None], cols.shape)
    out[rows[valid], cols[valid]] = ders[:, der, :][valid]
    return out
