"""Solver checks against dense references, plus determinism and failure modes.

The direct solves are kernels that return x; _accept is the one acceptance
step, and the checks of its numbers run on a kernel's x passed through it.
"""

import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from dense_oracle import assembled_cylinder

from cylasym import linalg
from cylasym.linalg import (
    BACKWARD_ERROR_TOL,
    BreakdownError,
    NonConvergenceError,
    SolverError,
    _accept,
    backward_error,
    band_cholesky,
    band_cholesky_solve,
    cg_jacobi,
    cholesky_solve,
    gmres_jacobi,
    kronecker_solve,
    lu_solve,
    pencil_eigenbasis,
    smallest_ritz_estimate,
)
from cylasym.problem import builtin_problem, parse_problem_config


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


def _accepted(A, b, x, method):
    """_accept's SolveResult of x for the dense A, with its exact |A|_inf."""
    return _accept(x, b, float(np.abs(A).sum(axis=1).max()), lambda v: A @ v, "solve", method)


def _solve_dense(A, b, kd, where="solve"):
    return _accepted(A, b, cholesky_solve(_lower_storage(A, kd), b, where), "cholesky_banded")


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
    cholesky_solve(ab, np.ones(40))
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
    # the kernel checks nothing; the acceptance step computes its residual
    # from a matrix that differs in the 12th digit, and refuses x
    A = _spd_banded(20, 2, 5)
    x = cholesky_solve(_lower_storage(A, 2), np.ones(20))
    with pytest.raises(SolverError, match="^solve at l = 3: backward error .* exceeds 1e-14$"):
        _accept(x, np.ones(20), float(np.abs(A).sum(axis=1).max()),
                lambda v: (A * (1 + 1e-12)) @ v, "solve at l = 3", "cholesky_banded")


def test_backward_error_biharmonic_long_cylinder():
    # relres is 1.3e-12 here, above the 1e-12 that a relres gate once asked for
    system = assembled_cylinder(builtin_problem("biharmonic_strip"), ell=16.0, resolution=32)
    a_norm = system.inf_norm()
    x = cholesky_solve(system.lower_band(), system.rhs)
    res = _accept(x, system.rhs, a_norm, system.matvec, "solve", "cholesky_banded")
    assert res.backward_error <= 1e-14
    r = system.rhs - system.matrix @ res.x
    assert backward_error(r, a_norm, res.x, system.rhs) <= 1e-14


# ------------------------------------------------------------------ numpy band Cholesky


def _band_factor_dense(L, b):
    """The dense factor of matrix b of the batch from band_cholesky's L."""
    kd = L.shape[1] - 1
    n = L.shape[0] - kd
    return sum(np.diag(L[: n - q, q, b], -q) for q in range(min(kd + 1, n)))


def test_band_cholesky_hand_oracle():
    # A = L L^T with L = [[2, 0, 0], [1, 2, 0], [0, 1, 2]]; every step is
    # exact in binary, so the factor and the solution are too
    ab = np.array([[4.0, 5.0, 5.0], [2.0, 2.0, 0.0]])
    L = band_cholesky(ab)
    assert L.shape == (4, 2)
    assert np.array_equal(L, [[2.0, 1.0], [2.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(band_cholesky_solve(L, np.array([2.0, 1.0, 8.0])), [1.0, -1.0, 2.0])
    # a batch on the trailing axis: 4 A factors as 2 L
    L2 = band_cholesky(np.stack([ab, 4.0 * ab], axis=-1))
    assert np.array_equal(L2[..., 0], L) and np.array_equal(L2[..., 1], 2.0 * L)


@pytest.mark.parametrize("n,kd,batch,seed", [(30, 3, 4, 0), (50, 7, 3, 1), (9, 0, 2, 2),
                                             (12, 11, 2, 3), (40, 2, 1, 4)])
def test_band_cholesky_matches_dense(n, kd, batch, seed):
    mats = [_spd_banded(n, kd, seed + 10 * b) for b in range(batch)]
    ab = np.stack([_lower_storage(A, kd) for A in mats], axis=-1)
    before = ab.copy()
    L = band_cholesky(ab)
    assert np.array_equal(ab, before)  # read, not overwritten
    assert not L[n:].any()
    y = np.random.default_rng(seed).standard_normal((n, batch))
    x = band_cholesky_solve(L, y)
    for b, A in enumerate(mats):
        want = np.linalg.cholesky(A)
        assert np.abs(_band_factor_dense(L, b) - want).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(A @ x[:, b] - y[:, b]).max() <= 1e-14 * np.abs(A).sum(axis=1).max() * (
            np.abs(x[:, b]).max())


def test_band_cholesky_marks_the_first_failed_pivot_of_each_matrix():
    # matrix 1's second leading minor is negative, matrix 0 is positive
    # definite: only matrix 1's diagonal stops being positive, from row 1 on
    bad = np.eye(6)
    bad[0, 1] = bad[1, 0] = 2.0
    L = band_cholesky(np.stack([_lower_storage(_spd_banded(6, 1, 5), 1),
                                _lower_storage(bad, 1)], axis=-1))
    assert np.all(L[:6, 0, 0] > 0.0)
    assert L[0, 0, 1] == 1.0 and not np.any(L[1:6, 0, 1] > 0.0)


def test_band_cholesky_is_deterministic():
    mats = [_spd_banded(60, 5, seed) for seed in range(3)]
    ab = np.stack([_lower_storage(A, 5) for A in mats], axis=-1)
    y = np.linspace(-1.0, 1.0, 180).reshape(60, 3)
    first = band_cholesky_solve(band_cholesky(ab), y)
    assert first.tobytes() == band_cholesky_solve(band_cholesky(ab), y).tobytes()


@pytest.mark.parametrize("n,kd,seed", [(30, 3, 0), (80, 9, 1), (80, 79, 2)])
def test_numpy_cholesky_solve_matches_lapack(n, kd, seed):
    A = _spd_banded(n, kd, seed)
    b = np.random.default_rng(seed + 100).standard_normal(n)
    ab = _lower_storage(A, kd)
    res = _accepted(A, b, cholesky_solve(ab, b, lapack=False), "cholesky_banded")
    assert np.array_equal(ab, _lower_storage(A, kd))  # a copy is factored
    assert res.method == "cholesky_banded" and res.backward_error <= BACKWARD_ERROR_TOL
    lapack = _solve_dense(A, b, kd)
    assert np.abs(res.x - lapack.x).max() <= 1e-12 * np.abs(lapack.x).max()


def test_numpy_cholesky_solve_rejects_indefinite():
    # eigenvalues 3 and -1: the second leading minor is negative
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(SolverError, match="^solve at l = 3: matrix is not positive definite "
                                          r"\(the leading minor of order 2 is not\)"):
        cholesky_solve(_lower_storage(A, 1), np.array([1.0, -1.0]), "solve at l = 3",
                       lapack=False)


# ------------------------------------------------------------------ Kronecker


def _kron_pencil(n_ax=12, kd=2, n_c=5, seed=0, c_other=None):
    rng = np.random.default_rng(seed)
    a_top, a_other = _spd_banded(n_ax, kd, seed), _spd_banded(n_ax, kd, seed + 1)
    M = rng.standard_normal((n_c, n_c))
    c_top = M @ M.T + n_c * np.eye(n_c)
    if c_other is None:
        M = rng.standard_normal((n_c, n_c))
        c_other = M @ M.T
    A = np.kron(a_top, c_top) + np.kron(a_other, c_other)
    pencil = ((_lower_storage(a_top, kd), _lower_storage(a_other, kd)), (c_top, c_other))
    return A, pencil


def _kron_dense(A, pencil, b, where="solve"):
    axial, cross = pencil
    x = kronecker_solve(axial, pencil_eigenbasis(*cross, where), b, lambda v: A @ v, where)
    return _accepted(A, b, x, "fast_diagonalization")


@pytest.mark.parametrize("n_ax,kd,n_c,seed", [(12, 2, 5, 0), (30, 4, 9, 1), (7, 6, 1, 2)])
def test_kronecker_matches_dense(n_ax, kd, n_c, seed):
    A, pencil = _kron_pencil(n_ax, kd, n_c, seed)
    b = np.random.default_rng(seed + 100).standard_normal(A.shape[0])
    res = _kron_dense(A, pencil, b)
    assert res.method == "fast_diagonalization" and res.iterations == 0
    assert np.allclose(res.x, np.linalg.solve(A, b), atol=1e-12)
    r = b - A @ res.x
    assert res.backward_error == backward_error(r, np.abs(A).sum(axis=1).max(), res.x, b)
    assert res.backward_error <= 1e-15


def test_kronecker_deterministic():
    A, pencil = _kron_pencil(seed=3)
    b = np.linspace(-1.0, 1.0, A.shape[0])
    assert np.array_equal(_kron_dense(A, pencil, b).x, _kron_dense(A, pencil, b).x)


def test_kronecker_zero_rhs():
    A, pencil = _kron_pencil(seed=4)
    res = _kron_dense(A, pencil, np.zeros(A.shape[0]))
    assert np.array_equal(res.x, np.zeros(A.shape[0]))
    assert res.residual == 0.0 and res.backward_error == 0.0


def test_kronecker_rejects_an_indefinite_top_block():
    A, ((a_top, a_other), (c_top, c_other)) = _kron_pencil(seed=5)
    c_top[0, 0] = -1.0
    with pytest.raises(SolverError, match="^solve at l = 3: cross-section block of the "
                       "highest axial part is not positive definite"):
        _kron_dense(A, ((a_top, a_other), (c_top, c_other)), np.ones(A.shape[0]),
                    "solve at l = 3")


def test_kronecker_rejects_an_indefinite_mode():
    # lam = -10 for every mode: A_top - 10 A_other is indefinite
    A, pencil = _kron_pencil(seed=6, c_other=None)
    (a_top, a_other), (c_top, _) = pencil
    pencil = ((a_top, a_other), (c_top, -10.0 * c_top))
    with pytest.raises(SolverError, match="^solve: axial matrix of cross-section mode 0 "
                       "\\(eigenvalue -10\\) is not positive definite"):
        _kron_dense(A, pencil, np.ones(A.shape[0]))


def test_kronecker_rejects_a_large_backward_error():
    # the refinement residual comes from a matrix 1e-3 away: the refinement
    # step, which reads it, leaves an error near 1e-6 that the acceptance
    # step, with the true matrix, refuses
    A, pencil = _kron_pencil(seed=7)
    b = np.ones(A.shape[0])
    x = kronecker_solve(pencil[0], pencil_eigenbasis(*pencil[1]), b,
                        lambda v: (A * (1 + 1e-3)) @ v)
    with pytest.raises(SolverError, match="^solve: backward error .* exceeds 1e-14$"):
        _accept(x, b, float(np.abs(A).sum(axis=1).max()), lambda v: A @ v, "solve",
                "fast_diagonalization")


# ------------------------------------------------------------------ banded LU


def _general_storage(A, kd):
    """LAPACK general band storage of a dense matrix, Fortran-ordered."""
    n = A.shape[0]
    ab = np.zeros((2 * kd + 1, n), order="F")
    for c in range(-kd, kd + 1):  # column minus row
        ab[kd - c, max(c, 0) : n + min(c, 0)] = np.diagonal(A, c)
    return ab


def _lu_dense(A, b, kd, where="solve"):
    return _accepted(A, b, lu_solve(_general_storage(A, kd), b, where), "lu_banded")


@pytest.mark.parametrize("n,kd,seed", [(30, 3, 0), (80, 9, 1), (40, 39, 2)])
def test_lu_matches_dense(n, kd, seed):
    rng = np.random.default_rng(seed)
    A = np.triu(np.tril(rng.standard_normal((n, n)), kd), -kd)
    b = rng.standard_normal(n)
    res = _lu_dense(A, b, kd)
    assert res.method == "lu_banded" and res.iterations == 0
    assert np.allclose(res.x, np.linalg.solve(A, b), atol=1e-10)
    r = b - A @ res.x
    assert res.backward_error == backward_error(r, np.abs(A).sum(axis=1).max(), res.x, b)
    assert res.backward_error <= BACKWARD_ERROR_TOL


def test_lu_zero_rhs():
    A = np.array([[2.0, 1.0, 0.0], [-1.0, 3.0, 1.0], [0.0, -1.0, 2.0]])
    res = _lu_dense(A, np.zeros(3), 1)
    assert np.array_equal(res.x, np.zeros(3))
    assert res.residual == 0.0 and res.backward_error == 0.0


def test_lu_rejects_a_singular_matrix():
    A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 1.0, 1.0]])
    with pytest.raises(SolverError, match="^solve at l = 2: matrix is singular"):
        _lu_dense(A, np.ones(3), 1, "solve at l = 2")


# ------------------------------------------------------------------ the LAPACK binder

SKEW_CONFIG = (
    "[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
    "a_0_1_0_0 = 1\na_0_1_0_1 = 1\na_1_0_1_0 = 1\n\n[forcing]\nf = 1\n"
)


def _banded(n, kd, seed):
    rng = np.random.default_rng(seed)
    return np.triu(np.tril(rng.standard_normal((n, n)), kd), -kd) + 2 * (kd + 1) * np.eye(n)


_LOWER_BANDS = {  # LAPACK lower band storage of symmetric positive definite matrices
    "kd1": lambda: _lower_storage(_spd_banded(30, 1, 7), 1),
    "kd2": lambda: _lower_storage(_spd_banded(30, 2, 8), 2),
    "biharmonic_two_axes": lambda: assembled_cylinder(builtin_problem("biharmonic_strip"),
                                                     ell=1.0, resolution=5).lower_band(),
}
_GENERAL_BANDS = {  # LAPACK general band storage of nonsymmetric matrices
    "kd1": lambda: _general_storage(_banded(30, 1, 9), 1),
    "kd2": lambda: _general_storage(_banded(30, 2, 10), 2),
    "skew_two_axes": lambda: assembled_cylinder(parse_problem_config(SKEW_CONFIG, "skew"),
                                               ell=1.0, resolution=5).general_band(),
}


@pytest.mark.parametrize("band", _LOWER_BANDS.values(), ids=_LOWER_BANDS.keys())
def test_bound_cholesky_is_scipys_bit_for_bit(band):
    from scipy.linalg import cho_solve_banded, cholesky_banded

    ab = band()
    b = np.random.default_rng(11).standard_normal(ab.shape[1])
    want = cho_solve_banded((cholesky_banded(ab.copy(order="F"), lower=True), True), b)
    assert cholesky_solve(ab, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("band", _GENERAL_BANDS.values(), ids=_GENERAL_BANDS.keys())
def test_bound_lu_is_scipys_bit_for_bit(band):
    from scipy.linalg import solve_banded

    ab = band()
    kd = ab.shape[0] // 2
    b = np.random.default_rng(12).standard_normal(ab.shape[1])
    want = solve_banded((kd, kd), ab.copy(order="F"), b)
    assert lu_solve(ab, b).tobytes() == want.tobytes()


def test_bound_solves_keep_their_messages():
    # eigenvalues 3 and -1; a singular tridiagonal (dgtsv) and a singular
    # pentadiagonal (dgbsv) matrix
    with pytest.raises(SolverError) as failed:
        cholesky_solve(_lower_storage(np.array([[1.0, 2.0], [2.0, 1.0]]), 1), np.ones(2),
                       "solve at l = 3")
    assert str(failed.value) == ("solve at l = 3: matrix is not positive definite "
                                 "(2-th leading minor not positive definite)")
    singular = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 1.0, 1.0]])
    for kd in (1, 2):
        with pytest.raises(SolverError) as failed:
            lu_solve(_general_storage(singular, kd), np.ones(3), "solve at l = 2")
        assert str(failed.value) == "solve at l = 2: matrix is singular (singular matrix)"


def test_the_binder_falls_back_to_scipy_linalg_lapack(monkeypatch):
    # with no _flapack file to load, the routines come from the public module
    import scipy.linalg.lapack as lapack

    lower, general = _LOWER_BANDS["kd2"](), _GENERAL_BANDS["kd2"]()
    b = np.linspace(-1.0, 1.0, 30)
    bound = (cholesky_solve(lower.copy(order="F"), b), lu_solve(general.copy(order="F"), b))
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    linalg._lapack.cache_clear()
    try:
        assert linalg._lapack() == (lapack.dpbtrf, lapack.dpbtrs, lapack.dgbsv, lapack.dgtsv)
        fallback = (cholesky_solve(lower, b), lu_solve(general, b))
    finally:
        linalg._lapack.cache_clear()
    assert [x.tobytes() for x in fallback] == [x.tobytes() for x in bound]


_BIND_THEN_IMPORT = """
import sys
import numpy as np
from cylasym import linalg

rng = np.random.default_rng(0)
lower = np.asfortranarray(np.vstack([6.0 + rng.random(50), rng.random((2, 50)) - 0.5]))
general = np.asfortranarray(np.vstack([rng.random((2, 50)) - 0.5, 6.0 + rng.random(50),
                                       rng.random((2, 50)) - 0.5]))
b = rng.standard_normal(50)
bound = (linalg.cholesky_solve(lower.copy(order="F"), b),
         linalg.lu_solve(general.copy(order="F"), b))
print(sorted(m for m in sys.modules if m.startswith("scipy")))
import scipy.linalg

public = (scipy.linalg.cho_solve_banded((scipy.linalg.cholesky_banded(lower, lower=True), True), b),
          scipy.linalg.solve_banded((2, 2), general, b))
print(all(x.tobytes() == y.tobytes() for x, y in zip(bound, public)),
      scipy.linalg._flapack.dpbtrf is linalg._lapack()[0])
"""


def test_scipy_linalg_imports_after_a_bound_solve():
    # the binder loads _flapack by its path, and leaves no scipy module in
    # sys.modules: a later import of scipy.linalg loads the package as usual,
    # with the same routines and the same answers
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _BIND_THEN_IMPORT], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["[]", "True", "True"]
