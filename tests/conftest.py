"""Every test starts with the package's band memos empty.

The stencils (assembly._stencil), the norms' unit-cell Gram references
(splines._gram_reference) and the interior lattices' matrices
(fdcalc._lattice_matrices) are kept per process once built, so a test that
counts kernel runs or local_table reads would otherwise see what an
earlier test left behind and depend on the order tests run in.
"""

import pytest

from cylasym import assembly, fdcalc, splines


@pytest.fixture(autouse=True)
def cold_band_memos():
    assembly._stencil.cache_clear()
    splines._gram_reference.cache_clear()
    fdcalc._lattice_matrices.cache_clear()
