"""Solver checks against dense references, plus determinism and failure modes."""

import numpy as np
import pytest
import scipy.sparse as sp

from cylasym.linalg import (
    BreakdownError,
    NonConvergenceError,
    cg_jacobi,
    gmres_jacobi,
    smallest_ritz_estimate,
)


def _spd_matrix(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    return sp.csr_matrix(A)


def _nonsym_matrix(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 2 * n * np.eye(n)
    return sp.csr_matrix(A)


def test_cg_hand_oracle():
    A = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]))
    b = np.array([1.0, 2.0, 0.0])
    # elimination by hand: x = (1/13) * [1, 9, -4.5] ... verified against dense
    want = np.linalg.solve(A.toarray(), b)
    res = cg_jacobi(A, b, tol=1e-12)
    assert np.allclose(res.x, want, atol=1e-10)
    assert res.residual <= 1e-12
    assert res.method == "cg"


@pytest.mark.parametrize("n,seed", [(30, 0), (80, 1)])
def test_cg_matches_dense(n, seed):
    A = _spd_matrix(n, seed)
    rng = np.random.default_rng(seed + 100)
    b = rng.standard_normal(n)
    res = cg_jacobi(A, b, tol=1e-11)
    assert np.allclose(res.x, np.linalg.solve(A.toarray(), b), atol=1e-8)
    assert res.residual <= 1e-11


@pytest.mark.parametrize("n,seed", [(30, 2), (80, 3)])
def test_gmres_matches_dense(n, seed):
    A = _nonsym_matrix(n, seed)
    rng = np.random.default_rng(seed + 100)
    b = rng.standard_normal(n)
    res = gmres_jacobi(A, b, tol=1e-11)
    assert np.allclose(res.x, np.linalg.solve(A.toarray(), b), atol=1e-8)
    assert res.residual <= 1e-11
    assert res.method == "gmres"


def test_gmres_restart_path():
    A = _nonsym_matrix(60, 7)
    b = np.ones(60)
    res = gmres_jacobi(A, b, tol=1e-11, restart=5)
    assert res.residual <= 1e-11
    assert res.iterations > 5  # at least one restart happened


def test_solvers_deterministic():
    A = _spd_matrix(50, 4)
    b = np.linspace(-1.0, 1.0, 50)
    r1 = cg_jacobi(A, b, tol=1e-12)
    r2 = cg_jacobi(A, b, tol=1e-12)
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.x, r2.x)
    B = _nonsym_matrix(50, 5)
    g1 = gmres_jacobi(B, b, tol=1e-12)
    g2 = gmres_jacobi(B, b, tol=1e-12)
    assert g1.iterations == g2.iterations
    assert np.array_equal(g1.x, g2.x)


def test_zero_rhs_short_circuits():
    A = _spd_matrix(10, 6)
    for fn in (cg_jacobi, gmres_jacobi):
        res = fn(A, np.zeros(10))
        assert res.iterations == 0
        assert np.array_equal(res.x, np.zeros(10))
        assert res.residual == 0.0


def test_cg_rejects_indefinite():
    # eigenvalues 3 and -1; the rhs is the eigenvector of -1, so p'Ap < 0
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(BreakdownError, match="SPD"):
        cg_jacobi(A, np.array([1.0, -1.0]))


def test_zero_diagonal_breaks_preconditioner():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(BreakdownError, match="diagonal"):
        cg_jacobi(A, np.array([1.0, 1.0]))
    with pytest.raises(BreakdownError, match="diagonal"):
        gmres_jacobi(A, np.array([1.0, 1.0]))


def test_nonconvergence_reports_residual():
    # 1D Laplacian, condition ~ n^2, far too few iterations allowed
    n = 200
    A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
    b = np.ones(n)
    with pytest.raises(NonConvergenceError) as err:
        cg_jacobi(A, b, tol=1e-14, max_iter=3)
    assert 0.0 < err.value.residual


def test_ritz_identity_and_diagonal():
    assert abs(smallest_ritz_estimate(sp.eye(5, format="csr")) - 1.0) <= 1e-12
    A = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    assert abs(smallest_ritz_estimate(A) - 1.0) <= 1e-10


def test_ritz_tridiagonal_laplacian():
    n = 20
    A = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]).tocsr()
    want = float(np.linalg.eigvalsh(A.toarray())[0])
    got = smallest_ritz_estimate(A, iterations=30)
    assert abs(got - want) <= 1e-8 * want
