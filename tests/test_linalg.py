"""Solver checks against dense references, plus determinism and failure modes.

The direct solves are kernels that return x; _accept is the one acceptance
step, and the checks of its numbers run on a kernel's x passed through it.
"""

import numpy as np
import pytest
from dense_oracle import assembled_cylinder, oracle_csr

from cylasym import linalg
from cylasym.linalg import (
    BACKWARD_ERROR_TOL,
    SolverError,
    _accept,
    backward_error,
    cholesky_solve,
    kronecker_solve,
    lu_solve,
    pencil_eigenbasis,
)
from cylasym.problem import builtin_problem, parse_problem_config


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
    assert res.method == "cholesky_banded"
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


@pytest.mark.parametrize("n,kd,seed", [(30, 3, 0), (80, 9, 1), (80, 79, 2)])
def test_numpy_cholesky_solve_matches_lapack(n, kd, seed):
    # cholesky_solve's routines are bound from the OpenBLAS numpy maps; its x
    # agrees with scipy.linalg.lapack's dpbtrf and dpbtrs on the same band
    from scipy.linalg import lapack

    A = _spd_banded(n, kd, seed)
    b = np.random.default_rng(seed + 100).standard_normal(n)
    ab = np.ascontiguousarray(_lower_storage(A, kd))
    res = _accepted(A, b, cholesky_solve(ab, b), "cholesky_banded")
    assert np.array_equal(ab, _lower_storage(A, kd))  # a C-ordered band is copied, then factored
    assert res.method == "cholesky_banded" and res.backward_error <= BACKWARD_ERROR_TOL
    factor, info = lapack.dpbtrf(_lower_storage(A, kd), lower=1)
    assert info == 0
    want, info = lapack.dpbtrs(factor, b, lower=1)
    assert info == 0
    assert np.abs(res.x - want).max() <= 1e-12 * np.abs(want).max()


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
    r = system.rhs - oracle_csr(system) @ res.x
    assert backward_error(r, a_norm, res.x, system.rhs) <= 1e-14


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


@pytest.mark.parametrize("n_ax,kd,n_c,seed", [(12, 2, 5, 0), (30, 4, 9, 1), (7, 6, 1, 2),
                                              (30, 3, 4, 0), (50, 7, 3, 1), (9, 0, 2, 2),
                                              (12, 11, 2, 3), (40, 2, 1, 4)])
def test_kronecker_matches_dense(n_ax, kd, n_c, seed):
    A, pencil = _kron_pencil(n_ax, kd, n_c, seed)
    b = np.random.default_rng(seed + 100).standard_normal(A.shape[0])
    res = _kron_dense(A, pencil, b)
    assert res.method == "fast_diagonalization"
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


@pytest.mark.parametrize("k", [0, 2], ids=["first", "middle"])
def test_kronecker_names_the_indefinite_mode(k):
    # only mode k's A_top + lam_k A_other, rows k N_ax to (k + 1) N_ax - 1 of
    # the stacked band, is indefinite: every other mode has lam = 1
    _, ((a_top, a_other), _) = _kron_pencil(n_ax=12, n_c=5, seed=8)
    lam = np.ones(5)
    lam[k] = -10.0
    with pytest.raises(SolverError, match=f"^solve: axial matrix of cross-section mode {k} "
                       "\\(eigenvalue -10\\) is not positive definite"):
        kronecker_solve((a_top, a_other), (lam, np.eye(5)), np.ones(60), lambda v: v)


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
    """The storage dgbsv factors of a dense matrix, Fortran-ordered: LAPACK
    general band storage below kd zero rows for the fill-in."""
    n = A.shape[0]
    ab = np.zeros((3 * kd + 1, n), order="F")
    for c in range(-kd, kd + 1):  # column minus row
        ab[2 * kd - c, max(c, 0) : n + min(c, 0)] = np.diagonal(A, c)
    return ab


def _lu_dense(A, b, kd, where="solve"):
    return _accepted(A, b, lu_solve(_general_storage(A, kd), b, where), "lu_banded")


@pytest.mark.parametrize("n,kd,seed", [(30, 3, 0), (80, 9, 1), (40, 39, 2)])
def test_lu_matches_dense(n, kd, seed):
    rng = np.random.default_rng(seed)
    A = np.triu(np.tril(rng.standard_normal((n, n)), kd), -kd)
    b = rng.standard_normal(n)
    res = _lu_dense(A, b, kd)
    assert res.method == "lu_banded"
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
_GENERAL_BANDS = {  # dgbsv's storage of nonsymmetric matrices
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
    # scipy's dgbsv on the same storage, tridiagonal matrices included
    # (scipy's solve_banded would take dgtsv for those)
    from scipy.linalg.lapack import dgbsv

    ab = band()
    kd = (ab.shape[0] - 1) // 3
    b = np.random.default_rng(12).standard_normal(ab.shape[1])
    *_, want, info = dgbsv(kd, kd, ab.copy(order="F"), b)
    assert info == 0 and lu_solve(ab, b).tobytes() == want.tobytes()


def test_lu_factors_its_band_in_place():
    # the storage general_band writes is the one dgbsv factors: lu_solve
    # overwrites it by the factors and keeps no copy of it
    ab = _general_storage(_banded(30, 2, 13), 2)
    b = np.ones(30)
    lu = linalg._lapack()[2](2, 2, ab.copy(order="F"), b)[0]
    lu_solve(ab, b)
    assert ab.tobytes() == lu.tobytes()


def test_bound_solves_keep_their_messages():
    # eigenvalues 3 and -1; a singular matrix in tridiagonal and in
    # pentadiagonal storage
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


@pytest.fixture
def scipy_lapack(monkeypatch):
    """The binder's lookup finds no library, as where numpy links another
    LAPACK: the routines come from the public scipy.linalg.lapack."""
    monkeypatch.setattr(linalg, "_OPENBLAS", "no such library")
    linalg._lapack.cache_clear()
    yield
    linalg._lapack.cache_clear()


def test_the_binder_falls_back_to_scipy_linalg_lapack(scipy_lapack):
    import scipy.linalg.lapack as lapack

    assert linalg._openblas() is None
    assert linalg._lapack() == (lapack.dpbtrf, lapack.dpbtrs, lapack.dgbsv)


@pytest.mark.parametrize("config", [None, SKEW_CONFIG], ids=["biharmonic", "skew"])
def test_the_fallback_solves_pass_the_gate(scipy_lapack, config):
    spec = builtin_problem("biharmonic_strip") if config is None else parse_problem_config(
        config, "skew")
    system = assembled_cylinder(spec, ell=2.0, resolution=8)
    x, method = ((cholesky_solve(system.lower_band(), system.rhs), "cholesky_banded")
                 if system.symmetric else (lu_solve(system.general_band(), system.rhs), "lu_banded"))
    res = _accept(x, system.rhs, system.inf_norm(), system.matvec, "solve", method)
    assert res.backward_error <= BACKWARD_ERROR_TOL
