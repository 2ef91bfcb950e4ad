"""Solvers for the assembled systems.

Every system of a sweep is solved directly, by one of three banded solves:

- kronecker_solve, for a symmetric system A_top (x) C_top + A_other (x)
  C_other (the Poisson and variable-coefficient strips, the Laplacian box):
  fast diagonalization (Lynch, Rice and Thomas, Numer. Math. 6, 1964).  The
  cross-section pencil (C_other, C_top), reduced by the Cholesky factor of
  C_top to a symmetric eigenproblem, turns it into one banded Cholesky of
  A_top + lam_k A_other per cross-section mode k, between two dense
  transforms; one step of iterative refinement follows.  The pencil's
  eigenbasis (pencil_eigenbasis) depends on the cross-section alone, so a
  sweep computes it once and hands it to the solve at every l.  With N_ax
  axial and N_c cross-section unknowns and degree d it costs
  O(N_c^3 + N_ax N_c^2 + N_ax N_c d^2), against O(N_ax N_c^3 d^2) for a
  Cholesky of the whole band, whose half-bandwidth is about d N_c.
- cholesky_solve, for every other symmetric system (more Kronecker parts, as
  the biharmonic strip has, an n-D band, the cross-section system): it
  factors LAPACK lower band storage in place (dpbtrf) and solves with the
  factor (dpbtrs), or, with lapack=False, factors it with band_cholesky.
  The harness hands it each parity block of a cylinder system whose
  cross-section is mirror-symmetric, one after the other, so that each
  band has about half the rows and half the bandwidth of the whole.
- lu_solve, for a nonsymmetric system: LU with partial pivoting on LAPACK
  general band storage (dgbsv; dgtsv for a tridiagonal matrix), on parity
  blocks alike.

band_cholesky, the numpy kernel, factors a batch of band matrices at once
in one pass down their rows, each step vectorized over the batch and the
band offsets, and band_cholesky_solve substitutes the same way.
kronecker_solve factors all its modes with it, and the sweep sends the
cross-section system to it as a batch of one (no batch axis): both have
few enough rows that the Python pass costs less than loading LAPACK.  A
large band, the multi-part cylinder system's, has too many rows for a
Python pass to match LAPACK, so it stays with dpbtrf.

Each is a kernel: it returns x, and raises SolverError only when a
factorization fails, which proves a block or a mode is not positive
definite, or the matrix singular.  Acceptance is one step, _accept, which
the harness runs once per system, on the full system's x: the answer
stands when the normwise backward error
|b - Ax|_inf / (|A|_inf |x|_inf + |b|_inf), with the residual and |A|_inf
computed from another copy of A (for a system with an n-D band, |A|_inf
from the band before it is factored: band_inf_norm), is at most
BACKWARD_ERROR_TOL, the accuracy a backward-stable solve attains; a
relative residual bound does not fit fourth-order problems, whose condition
numbers leave backward-stable answers with relative residuals well above
1e-12.
The LAPACK routines are scipy's: _lapack binds dpbtrf, dpbtrs, dgbsv and
dgtsv once per process, at the first LAPACK solve (cholesky_solve with
lapack=True, lu_solve), from the compiled module scipy.linalg._flapack.
It loads that one file by its path, found next to the scipy package, and
never runs the scipy.linalg package's __init__, whose imports (numpy.f2py,
numpy.testing, numpy.ma through scipy._lib) cost 0.15-0.25 s against 4-10
ms for the file; so the package imports no scipy module, and a sweep
loads LAPACK only when a solve needs it.  The name _flapack is
private to scipy: where no such file is found, _lapack takes the same
functions from the public scipy.linalg.lapack, which re-exports them.
cholesky_solve and lu_solve call the routines as cholesky_banded,
cho_solve_banded and solve_banded do, with the same arguments, so their
x are bit for bit those of scipy's functions.

cg_jacobi, gmres_jacobi and smallest_ritz_estimate no longer serve a sweep,
and the package no longer exports them.  They stay because the benchmark's instrumentation (bench/instrument.py)
patches them by name in the harness, so deleting them needs a change to the
benchmark itself (ROADMAP item 1).  They are plain numpy loops, so
repeated runs produce identical iterates.
"""

import functools
import importlib.machinery
import importlib.util
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

# normwise backward error every direct solve must reach
BACKWARD_ERROR_TOL = 1e-14


class SolverError(RuntimeError):
    pass


class BreakdownError(SolverError):
    """Non-finite or structurally impossible quantity inside an iteration."""


class NonConvergenceError(SolverError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    residual: float  # true relative residual |b - Ax| / |b|
    iterations: int
    method: str
    backward_error: float | None = None  # computed by _accept


def backward_error(r, a_norm: float, x, b) -> float:
    """|r|_inf / (|A|_inf |x|_inf + |b|_inf) for the residual r = b - Ax."""
    denom = a_norm * float(np.abs(x).max(initial=0.0)) + float(np.abs(b).max(initial=0.0))
    return float(np.abs(r).max(initial=0.0)) / denom if denom > 0.0 else 0.0


def band_inf_norm(ab, symmetric: bool) -> float:
    """|A|_inf of A from its LAPACK band storage, the largest row sum of
    the magnitudes: lower band storage of a symmetric A (A[j + q, j] at
    ab[q, j]), each entry below the diagonal counted in its own row and in
    its mirror's, or general band storage (A[i, j] at ab[kd + i - j, j]).
    The symmetric case measures the lower triangle the kernel factors,
    which equals |A|_inf up to the rounding that keeps the assembled A from
    being exactly symmetric.  Read before a factorization overwrites the
    band."""
    mag = np.abs(ab)
    n = ab.shape[1]
    kd = ab.shape[0] - 1 if symmetric else ab.shape[0] // 2
    rows = np.zeros(n)
    for u in range(ab.shape[0]):
        e = u if symmetric else u - kd  # row minus column of band row u
        if e >= 0:
            rows[e:] += mag[u, : n - e]
        else:
            rows[: n + e] += mag[u, -e:]
        if symmetric and u:
            rows[: n - u] += mag[u, : n - u]  # A[j, j + u] in row j
    return float(rows.max(initial=0.0))


def _accept(x, b, a_norm: float, matvec, where: str, method: str) -> SolveResult:
    """The SolveResult of x when its backward error, from the residual
    b - matvec(x) and |A|_inf = a_norm, is at most BACKWARD_ERROR_TOL;
    SolverError, prefixed with `where`, otherwise."""
    r = b - matvec(x)
    bnorm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(r)) / bnorm if bnorm > 0.0 else 0.0
    berr = backward_error(r, a_norm, x, b)
    if not berr <= BACKWARD_ERROR_TOL:
        raise SolverError(
            f"{where}: backward error {berr:.3e} exceeds {BACKWARD_ERROR_TOL:g}"
        )
    return SolveResult(x, residual, 0, method, berr)


def band_cholesky(ab):
    """Cholesky factors of a batch of symmetric positive definite band
    matrices, by one pass down their rows.

    ab holds the matrices in LAPACK lower band storage on its first two
    axes and the batch on the rest, if any: A_b[j + q, j] at ab[q, j, b],
    shape (kd + 1, N, ...).  It is read, not overwritten; entries past the last
    row are ignored.  Returns L, the factors in the transposed storage,
    L_b[j + q, j] at L[j, q, b], of shape (N + kd, kd + 1, ...), whose rows
    from N on are zero workspace.  Step j scales column j by the square
    root of its pivot and subtracts the outer product of the scaled column
    from the kd x kd block after it, for every matrix of the batch at once.
    A matrix that is not positive definite has a diagonal L[j, 0] that is
    not positive (zero or NaN) from its first nonpositive pivot j on.
    """
    kd, n = ab.shape[0] - 1, ab.shape[1]
    batch = ab.shape[2:]
    L = np.zeros((n + kd, kd + 1) + batch)
    L[:n] = np.swapaxes(ab, 0, 1)
    for q in range(1, kd + 1):
        L[n - q : n, q] = 0.0  # past the last row
    # with the rows of L laid end to end, A[i, k] (0 <= i - k <= kd) sits at
    # k kd + i, so the lower triangle of the block A[j + 1 + r, j + 1 + c]
    # is window[j][r >= c]: a view with strides 1 in r and kd in c, whose
    # upper triangle aliases other entries and is never written
    flat = L.reshape(((n + kd) * (kd + 1),) + batch)
    step = flat.strides[0]
    window = as_strided(flat[kd + 1 :], shape=(n, kd, kd) + batch,
                        strides=((kd + 1) * step, step, kd * step) + flat.strides[1:],
                        writeable=True)
    lower = np.tri(kd, dtype=bool).reshape((kd, kd) + (1,) * len(batch))
    with np.errstate(invalid="ignore", divide="ignore"):  # a failed pivot makes NaNs
        for j in range(n):
            col = L[j]
            np.sqrt(col[:1], out=col[:1])
            col[1:] /= col[:1]
            block = window[j]
            np.subtract(block, col[1:, None] * col[None, 1:], out=block, where=lower)
    return L


def band_cholesky_solve(L, y):
    """x with A_b x_b = y_b for every matrix of the batch, from the factors
    L of band_cholesky: y has shape (N, ...), the batch on the later axes.
    The forward and the backward substitution each make one pass down the
    rows, every step vectorized over the batch and the band offsets."""
    kd = L.shape[1] - 1
    n = L.shape[0] - kd
    x = np.zeros((n + kd,) + y.shape[1:])  # rows from n on stay zero
    x[:n] = y
    for j in range(n):  # L z = y
        x[j] /= L[j, 0]
        x[j + 1 : j + kd + 1] -= L[j, 1:] * x[j]
    for j in range(n - 1, -1, -1):  # L^T x = z
        x[j] -= (L[j, 1:] * x[j + 1 : j + kd + 1]).sum(axis=0)
        x[j] /= L[j, 0]
    return x[:n]


def cholesky_solve(ab, b, where: str = "solve", lapack: bool = True):
    """x with Ax = b for a symmetric positive definite A.

    ab is A's LAPACK lower band storage (A[j + q, j] at ab[q, j]).  With
    lapack, dpbtrf overwrites it by the Cholesky factor, in place when
    Fortran-ordered, and dpbtrs solves with it; without, band_cholesky
    factors a copy.  A failed factorization raises SolverError prefixed
    with `where`.
    """
    b = np.asarray(b, dtype=np.float64)
    if not lapack:
        L = band_cholesky(ab)
        failed = ~(L[: b.size, 0] > 0.0)
        if failed.any():
            raise SolverError(f"{where}: matrix is not positive definite (the leading "
                              f"minor of order {np.argmax(failed) + 1} is not)")
        return band_cholesky_solve(L, b)

    dpbtrf, dpbtrs, _, _ = _lapack()
    factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise SolverError(f"{where}: matrix is not positive definite "
                          f"({info}-th leading minor not positive definite)")
    _check_arguments(info, "dpbtrf")
    x, info = dpbtrs(factor, b, lower=1, overwrite_b=0)
    _check_arguments(info, "dpbtrs")
    return x


def pencil_eigenbasis(c_top, c_other, where: str = "solve"):
    """(lam, V) of the symmetric pencil (C_other, C_top), C_top positive
    definite: C_other V = C_top V diag(lam) with V^T C_top V = I.

    With C_top = R R^T (numpy.linalg.cholesky) and R^-1 C_other R^-T = W
    diag(lam) W^T (numpy.linalg.eigh, R^-1 by numpy.linalg.inv), V = R^-T W.
    A failed Cholesky raises SolverError prefixed with `where`.
    """
    try:
        R = np.linalg.cholesky(c_top)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"{where}: cross-section block of the highest axial part is not "
            f"positive definite ({exc})"
        ) from None
    R_inv = np.linalg.inv(R)
    lam, W = np.linalg.eigh(R_inv @ c_other @ R_inv.T)
    return lam, R_inv.T @ W


def kronecker_solve(axial, eigenbasis, b, matvec, where: str = "solve"):
    """x with (A_top (x) C_top + A_other (x) C_other) x = b, by fast
    diagonalization of the cross-section pencil, in numpy alone.

    axial is (A_top, A_other), the symmetric axial blocks in LAPACK lower
    band storage of one shape (kd + 1, N_ax); eigenbasis is (lam, V) of the
    cross-section pencil (C_other, C_top), from pencil_eigenbasis, which
    depends on the cross-section alone, so a sweep computes it once for
    every l.  The (N_ax, N_c) view X of x then solves
    (A_top + lam_k A_other) y_k = (B V)_k for every mode k, and X = Y V^T;
    band_cholesky factors all N_c axial matrices in one pass.  One step of
    iterative refinement follows, with the residual b - matvec(x).  A mode
    that fails to factor raises SolverError prefixed with `where`.
    """
    b = np.asarray(b, dtype=np.float64)
    (a_top, a_other), (lam, V) = axial, eigenbasis
    n_ax = a_top.shape[1]
    L = band_cholesky(a_top[:, :, None] + lam * a_other[:, :, None])
    failed = ~(L[:n_ax, 0] > 0.0).all(axis=0)
    if failed.any():
        k = int(np.argmax(failed))
        raise SolverError(
            f"{where}: axial matrix of cross-section mode {k} "
            f"(eigenvalue {lam[k]:.6g}) is not positive definite"
        )

    def solve(r):
        # column k of r V: mode k of every axial row
        return (band_cholesky_solve(L, r.reshape(n_ax, -1) @ V) @ V.T).ravel()

    x = solve(b)
    x += solve(b - matvec(x))
    return x


def lu_solve(ab, b, where: str = "solve"):
    """x with Ax = b for a general banded A, by LU with partial pivoting.

    ab is A's LAPACK general band storage, (2 kd + 1, N) with A[i, j] at
    ab[kd + i - j, j].  dgtsv solves a tridiagonal A (kd = 1) on ab's rows,
    overwriting them; any other A is copied into the (3 kd + 1, N) storage
    dgbsv factors, below kd rows for the fill-in.  A singular A raises
    SolverError prefixed with `where`.
    """
    _, _, dgbsv, dgtsv = _lapack()
    kd = ab.shape[0] // 2
    if kd == 1:
        *_, x, info = dgtsv(ab[2, :-1], ab[1, :], ab[0, 1:], b, 1, 1, 1, 0)
    else:
        lu = np.zeros((3 * kd + 1, ab.shape[1]))
        lu[kd:] = ab
        *_, x, info = dgbsv(kd, kd, lu, b, overwrite_ab=1, overwrite_b=0)
    if info > 0:
        raise SolverError(f"{where}: matrix is singular (singular matrix)")
    _check_arguments(info, "dgtsv" if kd == 1 else "dgbsv")
    return x


_FLAPACK = "scipy.linalg._flapack"


@functools.cache
def _lapack():
    """(dpbtrf, dpbtrs, dgbsv, dgtsv) of scipy's LAPACK, bound once per
    process from the module _FLAPACK: the one in sys.modules if scipy.linalg
    is loaded, else loaded from its file in scipy's linalg folder, and
    scipy.linalg.lapack's, the same functions, when no such file exists."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        spec = importlib.util.find_spec("scipy")  # finds scipy, imports nothing
        folders = spec.submodule_search_locations if spec is not None else ()
        for folder, suffix in itertools.product(folders,
                                                importlib.machinery.EXTENSION_SUFFIXES):
            path = Path(folder) / "linalg" / f"_flapack{suffix}"
            if path.is_file():
                loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, str(path))
                module = loader.create_module(importlib.util.spec_from_loader(_FLAPACK, loader))
                loader.exec_module(module)
                # its init entered it in sys.modules; a later import of
                # scipy.linalg loads it again as the package's attribute
                sys.modules.pop(_FLAPACK, None)
                break
        else:
            from scipy.linalg import lapack as module
    return module.dpbtrf, module.dpbtrs, module.dgbsv, module.dgtsv


def _check_arguments(info: int, routine: str) -> None:
    """Raise ValueError when LAPACK's info names an illegal argument."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def _jacobi_weights(A) -> np.ndarray:
    d = np.asarray(A.diagonal(), dtype=np.float64)
    if not np.all(np.isfinite(d)) or np.any(d == 0.0):
        raise BreakdownError("Jacobi preconditioner needs a nonzero finite diagonal")
    return 1.0 / d


def _true_residual(A, b, x, bnorm) -> float:
    return float(np.linalg.norm(b - A @ x) / bnorm)


def cg_jacobi(A, b, tol: float = 1e-10, max_iter: int | None = None) -> SolveResult:
    """Preconditioned CG; raises NonConvergenceError past max_iter."""
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0.0, 0, "cg")
    if max_iter is None:
        max_iter = max(1000, 20 * n)
    w = _jacobi_weights(A)
    x = np.zeros(n)
    r = b.copy()
    z = w * r
    p = z.copy()
    rz = float(r @ z)
    it = 0
    restarts = 0
    while it < max_iter:
        Ap = A @ p
        pAp = float(p @ Ap)
        if not np.isfinite(pAp) or pAp <= 0.0:
            raise BreakdownError(
                f"CG breakdown at iteration {it}: p'Ap = {pAp} (matrix not SPD?)"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        it += 1
        if np.linalg.norm(r) <= tol * bnorm:
            true_res = _true_residual(A, b, x, bnorm)
            if true_res <= tol:
                return SolveResult(x, true_res, it, "cg")
            if restarts >= 3:
                raise NonConvergenceError(
                    f"CG recursion converged but true residual stuck at {true_res:.3e}",
                    true_res,
                )
            # recursion drifted from the true residual: restart from x
            restarts += 1
            r = b - A @ x
            z = w * r
            p = z.copy()
            rz = float(r @ z)
            continue
        z = w * r
        rz_new = float(r @ z)
        if not np.isfinite(rz_new):
            raise BreakdownError(f"CG breakdown at iteration {it}: non-finite r'z")
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError(
        f"CG did not reach tol={tol:g} in {max_iter} iterations",
        _true_residual(A, b, x, bnorm),
    )


def gmres_jacobi(
    A, b, tol: float = 1e-10, max_iter: int | None = None, restart: int = 50
) -> SolveResult:
    """Restarted GMRES on A M^-1 with M = diag(A); returns x = M^-1 y."""
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return SolveResult(np.zeros(n), 0.0, 0, "gmres")
    if max_iter is None:
        max_iter = max(1000, 20 * n)
    w = _jacobi_weights(A)
    x = np.zeros(n)
    total = 0
    while total < max_iter:
        r = b - A @ x
        beta = float(np.linalg.norm(r))
        if beta <= tol * bnorm:
            return SolveResult(x, beta / bnorm, total, "gmres")
        k_max = min(restart, max_iter - total)
        V = np.zeros((k_max + 1, n))
        H = np.zeros((k_max + 1, k_max))
        cs = np.zeros(k_max)
        sn = np.zeros(k_max)
        g = np.zeros(k_max + 1)
        g[0] = beta
        V[0] = r / beta
        k_used = 0
        for k in range(k_max):
            wv = A @ (w * V[k])
            if not np.all(np.isfinite(wv)):
                raise BreakdownError(f"GMRES breakdown at iteration {total + k}")
            for i in range(k + 1):  # modified Gram-Schmidt
                H[i, k] = float(V[i] @ wv)
                wv -= H[i, k] * V[i]
            hnext = float(np.linalg.norm(wv))
            for i in range(k):  # stored Givens rotations act on rows (i, i+1)
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = t
            rho = float(np.hypot(H[k, k], hnext))
            if rho == 0.0:
                raise BreakdownError(f"GMRES breakdown: zero rotation at {total + k}")
            cs[k] = H[k, k] / rho
            sn[k] = hnext / rho
            H[k, k] = rho
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_used = k + 1
            if abs(g[k + 1]) <= tol * bnorm or hnext == 0.0:
                break
            if k + 1 < k_max:
                V[k + 1] = wv / hnext
        y = np.linalg.solve(np.triu(H[:k_used, :k_used]), g[:k_used])
        x = x + w * (V[:k_used].T @ y)
        total += k_used
        true_res = _true_residual(A, b, x, bnorm)
        if true_res <= tol:
            return SolveResult(x, true_res, total, "gmres")
    raise NonConvergenceError(
        f"GMRES did not reach tol={tol:g} in {max_iter} iterations",
        _true_residual(A, b, x, bnorm),
    )


def smallest_ritz_estimate(A, iterations: int = 20, inner_tol: float = 1e-12) -> float:
    """Inverse-power estimate of the smallest eigenvalue of a symmetric A.

    Starts from the normalized all-ones vector so repeated calls agree; each
    inverse application is a CG solve.
    """
    n = A.shape[0]
    x = np.ones(n) / np.sqrt(n)
    for _ in range(iterations):
        y = cg_jacobi(A, x, tol=inner_tol).x
        norm = float(np.linalg.norm(y))
        if norm == 0.0 or not np.isfinite(norm):
            raise BreakdownError("inverse power iteration produced a degenerate vector")
        x = y / norm
    return float(x @ (A @ x))
