"""Tensor-product B-spline spaces conforming in H^m with Dirichlet constraints.

Each coordinate direction carries clamped uniform B-splines of degree d on a
uniform grid of cells.  Dropping the first and last bc_order basis functions
enforces vanishing value and derivatives up to order bc_order - 1 at both
endpoints, so the tensor-product space with bc_order = m is a conforming
subspace of H^m_0 on the box (degree d >= m gives C^{d-1} >= C^{m-1}
smoothness across cells, and d >= m makes the constraint count meaningful).

Basis values and derivatives come from the de Boor triangular recursion
(the derivative variant), vectorized over evaluation points.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

_DOMAIN_RTOL = 1e-12


def _ders_basis_funs(knots, spans, x, p, nders):
    """Nonzero basis functions and derivatives at each point.

    Returns ders of shape (len(x), nders + 1, p + 1): ders[q, k, r] is the
    k-th derivative of basis function (spans[q] - p + r) at x[q].  Standard
    de Boor/Cox derivative recursion; all accessed knot differences are
    positive for valid spans, including at clamped ends.
    """
    Q = x.size
    ndu = np.empty((Q, p + 1, p + 1))
    ndu[:, 0, 0] = 1.0
    left = np.empty((Q, p + 1))
    right = np.empty((Q, p + 1))
    for j in range(1, p + 1):
        left[:, j] = x - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - x
        saved = np.zeros(Q)
        for r in range(j):
            ndu[:, j, r] = right[:, r + 1] + left[:, j - r]
            temp = ndu[:, r, j - 1] / ndu[:, j, r]
            ndu[:, r, j] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        ndu[:, j, j] = saved

    ders = np.zeros((Q, nders + 1, p + 1))
    ders[:, 0, :] = ndu[:, :, p]
    a = np.empty((Q, 2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[:, 0, 0] = 1.0
        for k in range(1, nders + 1):
            d = np.zeros(Q)
            rk = r - k
            pk = p - k
            if r >= k:
                a[:, s2, 0] = a[:, s1, 0] / ndu[:, pk + 1, rk]
                d = a[:, s2, 0] * ndu[:, rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[:, s2, j] = (a[:, s1, j] - a[:, s1, j - 1]) / ndu[:, pk + 1, rk + j]
                d = d + a[:, s2, j] * ndu[:, rk + j, pk]
            if r <= pk:
                a[:, s2, k] = -a[:, s1, k - 1] / ndu[:, pk + 1, r]
                d = d + a[:, s2, k] * ndu[:, r, pk]
            ders[:, k, r] = d
            s1, s2 = s2, s1

    factor = float(p)
    for k in range(1, nders + 1):
        ders[:, k, :] *= factor
        factor *= p - k
    return ders


def cells_for(extent, resolution: int) -> int:
    """Number of uniform cells over extent at resolution cells per unit length."""
    lo, hi = extent
    return max(1, round((hi - lo) * resolution))


def composite_gauss(extent, cells: int, points_per_cell: int):
    """Composite Gauss-Legendre nodes and weights over the uniform cells of
    extent, flattened cell-major."""
    lo, hi = extent
    nodes, weights = leggauss(points_per_cell)
    edges = np.linspace(lo, hi, cells + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * ((hi - lo) / cells)
    pts = (mid[:, None] + half * nodes[None, :]).ravel()
    wts = np.broadcast_to(half * weights[None, :], (cells, points_per_cell)).ravel()
    return pts, wts


class SplineBasis1D:
    """Clamped uniform splines on (lo, hi), first/last bc_order functions dropped."""

    def __init__(self, lo: float, hi: float, cells: int, degree: int, bc_order: int):
        if not lo < hi:
            raise ValueError(f"empty extent ({lo}, {hi})")
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if not 0 <= bc_order <= degree:
            raise ValueError(
                f"constraint order {bc_order} must lie in [0, degree={degree}]"
            )
        if cells < max(1, 2 * bc_order + 1):
            raise ValueError(
                f"need at least {max(1, 2 * bc_order + 1)} cells for bc_order={bc_order}, got {cells}"
            )
        self.lo = float(lo)
        self.hi = float(hi)
        self.cells = int(cells)
        self.degree = int(degree)
        self.bc_order = int(bc_order)
        breakpoints = np.linspace(self.lo, self.hi, self.cells + 1)
        self.knots = np.concatenate(
            [np.full(degree, self.lo), breakpoints, np.full(degree, self.hi)]
        )
        self.h = (self.hi - self.lo) / self.cells

    @property
    def dim(self) -> int:
        return self.cells + self.degree - 2 * self.bc_order

    def cell_of(self, x):
        """Cell index per point; rejects points outside the closed extent."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        tol = _DOMAIN_RTOL * max(1.0, abs(self.lo), abs(self.hi))
        if np.any(x < self.lo - tol) or np.any(x > self.hi + tol):
            raise ValueError(
                f"point outside domain [{self.lo}, {self.hi}]: "
                f"range [{x.min()}, {x.max()}]"
            )
        cells = np.floor((x - self.lo) / self.h).astype(np.int64)
        return np.clip(cells, 0, self.cells - 1)

    def local_ders(self, x, nders: int):
        """(ders, first): ders[q, k, r] for unconstrained functions first[q] + r."""
        if nders > self.degree:
            raise ValueError(
                f"derivative order {nders} exceeds degree {self.degree}"
            )
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        cells = self.cell_of(x)
        spans = cells + self.degree
        xc = np.clip(x, self.lo, self.hi)
        ders = _ders_basis_funs(self.knots, spans, xc, self.degree, nders)
        return ders, cells

    def window(self, first):
        """(cols, valid) for the degree + 1 unconstrained functions first[q] + r:
        their constrained indices, and which of them the constraint keeps."""
        cols = first[:, None] + np.arange(self.degree + 1)[None, :] - self.bc_order
        return cols, (cols >= 0) & (cols < self.dim)

    def basis_matrix(self, x, der: int = 0):
        """Dense (len(x), dim) matrix of the constrained basis derivative der."""
        ders, first = self.local_ders(x, der)
        cols, valid = self.window(first)
        Q = ders.shape[0]
        out = np.zeros((Q, self.dim))
        rows = np.broadcast_to(np.arange(Q)[:, None], cols.shape)
        out[rows[valid], cols[valid]] = ders[:, der, :][valid]
        return out


class TensorBasis:
    """Tensor product of 1D constrained spline bases (C-order flattening)."""

    def __init__(self, factors):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = tuple(factors)

    @property
    def dims(self):
        return tuple(f.dim for f in self.factors)

    @property
    def ndofs(self) -> int:
        return int(np.prod(self.dims))

    @property
    def naxes(self) -> int:
        return len(self.factors)

    @property
    def domain(self):
        return tuple((f.lo, f.hi) for f in self.factors)

    def check_alpha(self, alpha):
        if len(alpha) != self.naxes:
            raise ValueError(f"multi-index {alpha} has wrong length for {self.naxes} axes")
        for k, (a, f) in enumerate(zip(alpha, self.factors)):
            if a < 0:
                raise ValueError(f"negative derivative order in {alpha}")
            if a > f.degree:
                raise ValueError(
                    f"derivative order {a} on axis {k} exceeds degree {f.degree}"
                )


class DiscreteField:
    """Coefficients over a TensorBasis, evaluable with derivatives.

    The coefficient tensor is stored over the constrained basis.
    """

    def __init__(self, basis: TensorBasis, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != basis.dims:
            if coeffs.size == basis.ndofs and coeffs.ndim == 1:
                coeffs = coeffs.reshape(basis.dims)
            else:
                raise ValueError(
                    f"coefficient shape {coeffs.shape} does not match basis dims {basis.dims}"
                )
        self.basis = basis
        self.coeffs = coeffs

    def eval_grid(self, axes, alpha):
        """Values of D^alpha on the tensor grid axes[0] x ... x axes[-1]."""
        self.basis.check_alpha(alpha)
        out = self.coeffs
        for k, (f, ax) in enumerate(zip(self.basis.factors, axes)):
            B = f.basis_matrix(np.asarray(ax, dtype=np.float64), alpha[k])
            out = np.moveaxis(np.tensordot(B, out, axes=(1, k)), 0, k)
        return out

    def eval_points(self, points, alpha):
        """Values of D^alpha at scattered points of shape (Q, n)."""
        self.basis.check_alpha(alpha)
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        nf = self.basis.naxes
        if points.shape[1] != nf:
            raise ValueError(f"points have {points.shape[1]} coordinates, basis has {nf}")
        Q = points.shape[0]
        local = []
        windows = []
        for k, f in enumerate(self.basis.factors):
            ders, first = f.local_ders(points[:, k], alpha[k])
            cols, valid = f.window(first)
            # a function the constraint drops contributes nothing
            local.append(np.where(valid, ders[:, alpha[k], :], 0.0))
            windows.append(np.where(valid, cols, 0))
        # gather (Q, d1+1, ..., dn+1) coefficient windows
        idx = []
        for k in range(nf):
            shape = [Q] + [1] * nf
            shape[k + 1] = windows[k].shape[1]
            idx.append(windows[k].reshape(shape))
        gathered = self.coeffs[tuple(idx)]
        for k in range(nf):
            shape = [Q] + [1] * nf
            shape[k + 1] = local[k].shape[1]
            gathered = gathered * local[k].reshape(shape)
        return gathered.reshape(Q, -1).sum(axis=1)
