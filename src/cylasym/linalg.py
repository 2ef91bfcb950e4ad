"""Solvers for the assembled systems.

Every system of a sweep is solved directly, by one of three banded solves on
two LAPACK kernels, banded Cholesky (dpbtrf, dpbtrs) and banded LU (dgbsv):

- kronecker_solve, for a symmetric system that is a sum of Kronecker
  products with one banded x1 factor, in two parts A_top and A_other along
  x1: fast diagonalization (Lynch, Rice and Thomas, Numer. Math. 6, 1964).
  The eigenbasis of the other axes, one group of axes at a time, turns it
  into one banded Cholesky of A_top + lam_k A_other per mode k, between
  two transforms; the modes are stacked into one block-diagonal band,
  which dpbtrf factors in one call, and one step of iterative refinement
  follows.  A group's eigenbasis comes from a symmetric pencil
  (pencil_eigenbasis): a separable Laplacian-type system (the Poisson
  strip, the Laplacian boxes) has one group per axis, the 1-D pencil of its
  stiffness and mass bands, and any other two-part system (the
  variable-coefficient strip) one group of every cross-section axis, the
  pencil of its two dense cross-section blocks.  The cross-section's
  groups depend on it alone, so the sweep's CrossSection computes them
  once; the solve at every l reads them, and a p = 2 box adds the group of
  x2 per l.  With N_ax axial unknowns, M modes of groups of sizes n_g and
  degree d it costs O(sum_g n_g^3 + N_ax M sum_g n_g + N_ax M d^2), against
  O(N_ax M^3 d^2) for a Cholesky of the whole band, whose half-bandwidth
  is about d M.
- cholesky_solve, for every other symmetric system (more Kronecker parts, as
  the biharmonic strip has, an x1-band, the cross-section system): it
  factors LAPACK lower band storage in place (dpbtrf) and solves with the
  factor (dpbtrs).  The harness hands it each parity block of a cylinder
  system whose cross-section is mirror-symmetric, one after the other, so
  that each band has about half the rows and half the bandwidth of the
  whole.
- lu_solve, for a nonsymmetric system: LU with partial pivoting (dgbsv),
  in place on the general band storage with room for the fill-in that
  AssembledSystem.general_band writes, on parity blocks alike.

Each is a kernel: it returns x, and raises SolverError only when a
factorization fails, which proves a block or a mode is not positive
definite, or the matrix singular.  Acceptance is one step, _accept, which
the harness runs once per system, on the full system's x: the answer
stands when the normwise backward error
|b - Ax|_inf / (|A|_inf |x|_inf + |b|_inf), with the residual and |A|_inf
computed from the system's pieces (AssembledSystem.matvec and inf_norm),
not from the band the kernel factored, is at most BACKWARD_ERROR_TOL, the
accuracy a backward-stable solve attains; a relative residual bound does
not fit fourth-order problems, whose condition numbers leave
backward-stable answers with relative residuals well above 1e-12.

_lapack binds the three routines once per process, at the first solve, from
the OpenBLAS that numpy has already mapped (the ILP64 libscipy_openblas64_
of numpy's wheels, found in /proc/self/maps): ctypes calls its LAPACKE
_work entry points in column-major layout, with 64-bit integers and no NaN
scan.  Binding maps no new file and costs about 0.3 ms; scipy's compiled
LAPACK module would map scipy's own OpenBLAS, a second BLAS of 2.5 MiB of
RSS in every process, and scipy.linalg's __init__ would also import
numpy.f2py, numpy.testing and numpy.ma.  So a sweep maps one BLAS and
imports no scipy module.  The wrappers take and return what scipy's f2py
routines of the same names do, and where no such library is mapped
(another OS, or a numpy linked to another LAPACK), _lapack takes those
routines from the public scipy.linalg.lapack instead.
"""

import contextlib
import ctypes
import functools
from dataclasses import dataclass

import numpy as np

# normwise backward error every direct solve must reach
BACKWARD_ERROR_TOL = 1e-14


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    residual: float  # true relative residual |b - Ax| / |b|
    method: str
    backward_error: float | None = None  # computed by _accept


def backward_error(r, a_norm: float, x, b) -> float:
    """|r|_inf / (|A|_inf |x|_inf + |b|_inf) for the residual r = b - Ax."""
    denom = a_norm * float(np.abs(x).max(initial=0.0)) + float(np.abs(b).max(initial=0.0))
    return float(np.abs(r).max(initial=0.0)) / denom if denom > 0.0 else 0.0


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
    return SolveResult(x, residual, method, berr)


def cholesky_solve(ab, b, where: str = "solve"):
    """x with Ax = b for a symmetric positive definite A.

    ab is A's LAPACK lower band storage (A[j + q, j] at ab[q, j]).  dpbtrf
    overwrites it by the Cholesky factor, in place when Fortran-ordered,
    and dpbtrs solves with it.  A failed factorization raises SolverError
    prefixed with `where`.
    """
    b = np.asarray(b, dtype=np.float64)
    dpbtrf, dpbtrs, _ = _lapack()
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
    diagonalization of the pencil (C_other, C_top).

    axial is (A_top, A_other), the symmetric x1 blocks in LAPACK lower
    band storage of one shape (kd + 1, N_ax); eigenbasis is (lam, groups):
    V, the Kronecker product of the groups' matrices in their order, each
    applied along its own axis of the (N_ax, n_1, ..., n_G) view of x, n_g
    its order, has V^T C_top V = I and V^T C_other V = diag(lam), lam over
    the modes in C order.  The
    (N_ax, modes) view X of x then solves (A_top + lam_k A_other) y_k =
    (B V)_k for every mode k, and X = Y V^T; V is never formed, as each
    group's matrix is applied along its own axis (_along).  The axial
    matrices of the modes are stacked into one block-diagonal band, mode k
    in rows k N_ax to (k + 1) N_ax - 1, which dpbtrf factors in one call
    and dpbtrs solves in one call per right-hand side.  One step of
    iterative refinement follows, with the residual b - matvec(x).  A mode
    that fails to factor raises SolverError prefixed with `where`.
    """
    b = np.asarray(b, dtype=np.float64)
    (a_top, a_other), (lam, groups) = axial, eigenbasis
    kd, n_ax = a_top.shape[0] - 1, a_top.shape[1]
    dims = (n_ax,) + tuple(len(V) for V in groups)
    dpbtrf, dpbtrs, _ = _lapack()
    # stacked[k, i] is column i of mode k's band, so its transpose is the
    # stacked band's storage, Fortran-ordered; slots past a mode's last row
    # would couple it to the next mode
    stacked = a_top.T + lam[:, None, None] * a_other.T
    stacked[:, np.add.outer(np.arange(n_ax), np.arange(kd + 1)) >= n_ax] = 0.0
    factor, info = dpbtrf(stacked.reshape(-1, kd + 1).T, lower=1, overwrite_ab=1)
    if info > 0:
        k = (info - 1) // n_ax
        raise SolverError(f"{where}: axial matrix of cross-section mode {k} "
                          f"(eigenvalue {lam[k]:.6g}) is not positive definite")
    _check_arguments(info, "dpbtrf")

    def solve(r):
        R = r.reshape(dims)
        for axis, V in enumerate(groups, 1):
            R = _along(R, V, axis)
        # column k of R: mode k of every axial row
        y, info = dpbtrs(factor, R.reshape(n_ax, -1).T.ravel(), lower=1, overwrite_b=1)
        _check_arguments(info, "dpbtrs")
        Y = np.moveaxis(y.reshape(dims[1:] + (n_ax,)), -1, 0)
        for axis, V in enumerate(groups, 1):
            Y = _along(Y, V.T, axis)
        return Y.ravel()

    x = solve(b)
    x += solve(b - matvec(x))
    return x


def _along(X, V, axis: int):
    """X times V along `axis`: the sum over i of X[..., i, ...] V[i, j],
    one batched matmul over the other axes; X @ V itself for the last axis
    of a matrix."""
    return np.moveaxis(np.moveaxis(X, axis, -1) @ V, -1, axis)


def lu_solve(ab, b, where: str = "solve"):
    """x with Ax = b for a general banded A, by LU with partial pivoting.

    ab is the storage dgbsv factors: (3 kd + 1, N), with A[i, j] at
    ab[2 kd + i - j, j] and the top kd rows zero for the fill-in.  dgbsv
    overwrites it by the factors, in place when Fortran-ordered.  A
    singular A raises SolverError prefixed with `where`.
    """
    _, _, dgbsv = _lapack()
    kd = (ab.shape[0] - 1) // 3
    *_, x, info = dgbsv(kd, kd, ab, b, overwrite_ab=1, overwrite_b=0)
    if info > 0:
        raise SolverError(f"{where}: matrix is singular (singular matrix)")
    _check_arguments(info, "dgbsv")
    return x


# the ILP64 OpenBLAS of numpy's wheels; scipy's wheels ship an LP64 one,
# libscipy_openblas-*, which this prefix does not match
_OPENBLAS = "libscipy_openblas64_"
_COL_MAJOR = 102  # LAPACKE's LAPACK_COL_MAJOR


def _openblas():
    """ctypes.CDLL of the first library in the process's /proc/self/maps
    whose file name starts with _OPENBLAS, or None where there is none, or
    no such file to read, or the library does not open.  Opening a library
    the process has mapped maps nothing new."""
    with contextlib.suppress(OSError), open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split(maxsplit=5)[-1].strip()
            if path.rpartition("/")[2].startswith(_OPENBLAS):
                return ctypes.CDLL(path)
    return None


@functools.cache
def _lapack():
    """(dpbtrf, dpbtrs, dgbsv), bound once per process: from the
    OpenBLAS numpy has mapped (_openblas), or, where there is none,
    scipy.linalg.lapack's."""
    lib = _openblas()
    if lib is None:
        from scipy.linalg import lapack

        return lapack.dpbtrf, lapack.dpbtrs, lapack.dgbsv
    return _bind(lib)


def _bind(lib):
    """(dpbtrf, dpbtrs, dgbsv) of lib's LAPACKE _work entry points,
    called in column-major layout with 64-bit integers.  Each takes and
    returns what scipy.linalg.lapack's routine of its name does: an array
    it may overwrite is overwritten in place when its overwrite flag is set
    and it is a Fortran-ordered float64 array, else a copy is, and info is
    LAPACK's, whose argument numbers do not count LAPACKE's layout."""
    i64, ptr = ctypes.c_int64, ctypes.c_void_p

    def entry(name, *argtypes):
        f = getattr(lib, f"scipy_LAPACKE_{name}_work64_")
        f.restype, f.argtypes = i64, (ctypes.c_int, *argtypes)

        def call(*args):
            info = f(_COL_MAJOR, *args)
            return info + 1 if info < 0 else info

        return call

    pbtrf = entry("dpbtrf", ctypes.c_char, i64, i64, ptr, i64)
    pbtrs = entry("dpbtrs", ctypes.c_char, i64, i64, i64, ptr, i64, ptr, i64)
    gbsv = entry("dgbsv", i64, i64, i64, i64, ptr, i64, ptr, ptr, i64)

    def dpbtrf(ab, lower=0, overwrite_ab=0):
        c = _written(ab, overwrite_ab)
        return c, pbtrf(b"L" if lower else b"U", c.shape[1], c.shape[0] - 1, c.ctypes.data,
                        c.shape[0])

    def dpbtrs(c, b, lower=0, overwrite_b=0):
        c, x = np.asfortranarray(c, np.float64), _written(b, overwrite_b)
        n = c.shape[1]
        return x, pbtrs(b"L" if lower else b"U", n, c.shape[0] - 1, _nrhs(x, n), c.ctypes.data,
                        c.shape[0], x.ctypes.data, max(n, 1))

    def dgbsv(kl, ku, ab, b, overwrite_ab=0, overwrite_b=0):
        lub, x = _written(ab, overwrite_ab), _written(b, overwrite_b)
        n = lub.shape[1]
        piv = np.zeros(n, np.int64)
        return lub, piv, x, gbsv(n, kl, ku, _nrhs(x, n), lub.ctypes.data, lub.shape[0],
                                 piv.ctypes.data, x.ctypes.data, max(n, 1))

    return dpbtrf, dpbtrs, dgbsv


def _written(a, overwrite):
    """The Fortran-ordered float64 array a routine writes in place of a:
    a itself when overwrite is set and a is one, else a copy."""
    return np.asfortranarray(a, np.float64) if overwrite else np.array(a, np.float64, order="F")


def _nrhs(x, n: int) -> int:
    """The number of right-hand sides of x, a vector or one per column, after
    checking that it has the n rows the routine reads and writes."""
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"right-hand side of shape {x.shape} for a matrix of order {n}")
    return 1 if x.ndim == 1 else x.shape[1]


def _check_arguments(info: int, routine: str) -> None:
    """Raise ValueError when LAPACK's info names an illegal argument."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
