"""Deterministic sparse solvers for the assembled systems.

Symmetric positive definite systems go through Jacobi-preconditioned
conjugate gradients; nonsymmetric ones through restarted GMRES with right
Jacobi preconditioning.  Both verify the true residual before reporting
success, and both are plain numpy loops so repeated runs produce identical
iterates.
"""

from dataclasses import dataclass

import numpy as np


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
