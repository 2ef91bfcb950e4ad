"""Solver checks against dense references, plus determinism and failure modes."""

import numpy as np
import pytest
import scipy.sparse as sp

from cylasym.assembly import assemble_cylinder
from cylasym.linalg import (
    BACKWARD_ERROR_TOL,
    BreakdownError,
    NonConvergenceError,
    SolverError,
    backward_error,
    cg_jacobi,
    cholesky_solve,
    gmres_jacobi,
    smallest_ritz_estimate,
)
from cylasym.problem import builtin_problem


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


# ------------------------------------------------------------ banded Cholesky


def _lower_storage(A, kd):
    """LAPACK lower band storage of a dense matrix, Fortran-ordered."""
    n = A.shape[0]
    ab = np.zeros((kd + 1, n), order="F")
    for q in range(kd + 1):
        ab[q, : n - q] = np.diagonal(A, -q)
    return ab


def _spd_banded(n, kd, seed):
    rng = np.random.default_rng(seed)
    M = np.triu(np.tril(rng.standard_normal((n, n)), kd), -kd)
    return (M + M.T) / 2 + 2 * (kd + 1) * np.eye(n)


def _solve_dense(A, b, kd, where="solve"):
    return cholesky_solve(_lower_storage(A, kd), b, float(np.abs(A).sum(axis=1).max()),
                          lambda x: A @ x, where)


def test_cholesky_hand_oracle():
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    b = np.array([1.0, 2.0, 0.0])
    res = _solve_dense(A, b, 1)
    assert np.allclose(res.x, np.linalg.solve(A, b), atol=1e-14)
    assert res.method == "cholesky_banded" and res.iterations == 0
    assert res.residual <= 1e-15 and res.backward_error <= 1e-16


@pytest.mark.parametrize("n,kd,seed", [(30, 3, 0), (80, 9, 1), (80, 79, 2)])
def test_cholesky_matches_dense(n, kd, seed):
    A = _spd_banded(n, kd, seed)
    b = np.random.default_rng(seed + 100).standard_normal(n)
    res = _solve_dense(A, b, kd)
    assert np.allclose(res.x, np.linalg.solve(A, b), atol=1e-12)
    r = b - A @ res.x
    assert res.backward_error == backward_error(r, np.abs(A).sum(axis=1).max(), res.x, b)
    assert res.backward_error <= BACKWARD_ERROR_TOL
    assert res.residual == pytest.approx(np.linalg.norm(r) / np.linalg.norm(b))


def test_cholesky_factors_in_place():
    A = _spd_banded(40, 4, 3)
    ab = _lower_storage(A, 4)
    cholesky_solve(ab, np.ones(40), 1.0, lambda x: A @ x)
    L = np.zeros_like(A)
    for q in range(5):
        L += np.diag(ab[q, : 40 - q], -q)
    assert np.allclose(L @ L.T, A, atol=1e-13)


def test_cholesky_deterministic():
    A = _spd_banded(50, 6, 4)
    b = np.linspace(-1.0, 1.0, 50)
    assert np.array_equal(_solve_dense(A, b, 6).x, _solve_dense(A, b, 6).x)


def test_cholesky_zero_rhs():
    res = _solve_dense(_spd_banded(10, 2, 6), np.zeros(10), 2)
    assert np.array_equal(res.x, np.zeros(10))
    assert res.residual == 0.0 and res.backward_error == 0.0


def test_cholesky_rejects_indefinite():
    # eigenvalues 3 and -1: the second leading minor is negative
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SolverError, match="^solve at l = 3: matrix is not positive definite"):
        _solve_dense(A, np.array([1.0, -1.0]), 1, where="solve at l = 3")


def test_cholesky_rejects_a_large_backward_error():
    # the residual is computed from a matrix that differs in the 12th digit
    A = _spd_banded(20, 2, 5)
    ab = _lower_storage(A, 2)
    with pytest.raises(SolverError, match="backward error .* exceeds 1e-14"):
        cholesky_solve(ab, np.ones(20), float(np.abs(A).sum(axis=1).max()),
                       lambda x: (A * (1 + 1e-12)) @ x, "solve")


def test_backward_error_biharmonic_long_cylinder():
    # relres is 1.3e-12 here, above the 1e-12 that a relres gate once asked for
    system = assemble_cylinder(builtin_problem("biharmonic_strip"), ell=16.0, resolution=32)
    ab, a_norm = system.lower_band()
    res = cholesky_solve(ab, system.rhs, a_norm, system.symmetric_matvec)
    assert res.backward_error <= 1e-14
    r = system.rhs - system.matrix @ res.x
    assert backward_error(r, a_norm, res.x, system.rhs) <= 1e-14
