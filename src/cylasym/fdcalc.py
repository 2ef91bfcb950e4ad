"""Forward-difference calculus on uniform lattices.

delta_k is the divided first difference (f(x + h e_k) - f(x)) / h (or the
backward variant with step -h); delta_alpha iterates it axis by axis in
ascending axis order, which fixes the floating-point evaluation order.  On
top of these sit the two discrete identities (summation by parts and the
shifted Leibniz rule) as defect calculators, a mean-value containment check,
and the lattice estimator for interior higher-order differences of a
cylinder solution against the extended cross-section solution.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import DifferenceEvaluator, ExtensionEvaluator
from .multiindex import enumerate_upto, in_N1, multi_binom, order, sub_indices

_TOL = 1e-12


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class GridSample:
    """Values on a uniform lattice; origin is the coordinate of values[0,...,0]."""

    origin: tuple
    spacing: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        if values.ndim != len(self.origin) or values.ndim != len(self.spacing):
            raise LatticeError(
                f"values have {values.ndim} axes, origin/spacing describe "
                f"{len(self.origin)}/{len(self.spacing)}"
            )
        if any(not np.isfinite(h) or h <= 0 for h in self.spacing):
            raise LatticeError(f"spacing must be positive, got {self.spacing}")

    @property
    def n(self) -> int:
        return self.values.ndim

    @property
    def box(self):
        return tuple(
            (o, o + h * (s - 1))
            for o, h, s in zip(self.origin, self.spacing, self.values.shape)
        )


def sample_function(fn, box, spacing) -> GridSample:
    """Sample fn(coord arrays) on the lattice covering box with the given spacing."""
    axes = []
    for (lo, hi), h in zip(box, spacing):
        count = int(np.floor((hi - lo) / h + _TOL)) + 1
        axes.append(lo + h * np.arange(count))
    grids = np.meshgrid(*axes, indexing="ij")
    values = np.broadcast_to(fn(tuple(grids)), grids[0].shape)
    return GridSample(tuple(b[0] for b in box), tuple(spacing), np.array(values))


def delta_k(s: GridSample, k: int, backward: bool = False) -> GridSample:
    """Divided difference along axis k; backward uses step -h (Eq. form (f(x)-f(x-h))/h)."""
    if not 0 <= k < s.n:
        raise LatticeError(f"axis {k} out of range for {s.n} axes")
    if s.values.shape[k] < 2:
        raise LatticeError(f"axis {k} has extent {s.values.shape[k]} < 2")
    h = s.spacing[k]
    upper = [slice(None)] * s.n
    lower = [slice(None)] * s.n
    upper[k] = slice(1, None)
    lower[k] = slice(0, -1)
    diff = (s.values[tuple(upper)] - s.values[tuple(lower)]) / h
    origin = list(s.origin)
    if backward:
        origin[k] += h  # defined where x - h e_k exists
    return GridSample(tuple(origin), s.spacing, diff)


def delta_alpha(s: GridSample, alpha, backward: bool = False) -> GridSample:
    """Iterated divided differences, axes in ascending order."""
    if len(alpha) != s.n:
        raise LatticeError(f"multi-index {alpha} does not match {s.n} axes")
    for k, a in enumerate(alpha):
        if a < 0:
            raise LatticeError(f"negative entry in {alpha}")
        if s.values.shape[k] < a + 1:
            raise LatticeError(
                f"axis {k} extent {s.values.shape[k]} cannot take {a} differences"
            )
    out = s
    for k, a in enumerate(alpha):
        for _ in range(a):
            out = delta_k(out, k, backward=backward)
    return out


def _same_lattice(f: GridSample, g: GridSample) -> None:
    if f.values.shape != g.values.shape:
        raise LatticeError(f"shape mismatch {f.values.shape} vs {g.values.shape}")
    for k in range(f.n):
        scale = max(1.0, abs(f.origin[k]), f.spacing[k])
        if abs(f.origin[k] - g.origin[k]) > _TOL * scale or abs(
            f.spacing[k] - g.spacing[k]
        ) > _TOL * f.spacing[k]:
            raise LatticeError("samples live on different lattices")


def summation_by_parts_defect(f: GridSample, eta: GridSample, alpha) -> float:
    """Defect of sum f * delta_h^a eta = (-1)^|a| sum delta_{-h}^a f * eta,

    times the lattice cell volume.  Requires eta to vanish identically on a
    margin of |alpha| layers on every side of every axis, which makes the
    restricted sums equal the full-lattice sums of the compactly supported
    integrands.
    """
    _same_lattice(f, eta)
    total = order(alpha)
    if total == 0:
        return 0.0
    for k in range(eta.n):
        if eta.values.shape[k] < 2 * total + max(alpha) + 1:
            raise LatticeError(f"axis {k} too short for margin {total}")
        sl_lo = [slice(None)] * eta.n
        sl_hi = [slice(None)] * eta.n
        sl_lo[k] = slice(0, total)
        sl_hi[k] = slice(-total, None)
        if np.any(eta.values[tuple(sl_lo)] != 0.0) or np.any(
            eta.values[tuple(sl_hi)] != 0.0
        ):
            raise LatticeError(
                f"margin too small: eta not zero on {total} layers of axis {k}"
            )
    d_eta = delta_alpha(eta, alpha)
    shrink = tuple(slice(0, n - a) for n, a in zip(f.values.shape, alpha))
    s1 = float(np.sum(f.values[tuple(shrink)] * d_eta.values))
    d_f = delta_alpha(f, alpha, backward=True)
    shift = tuple(slice(a, None) for a in alpha)
    s2 = float(np.sum(d_f.values * eta.values[tuple(shift)]))
    cell = float(np.prod(f.spacing))
    return abs(s1 - (-1.0) ** total * s2) * cell


def leibniz_defect(f: GridSample, g: GridSample, alpha) -> float:
    """Max-norm defect of the shifted product rule

    delta^a(fg)(x) = sum_{b <= a} binom(a,b) delta^b f(x + (a-b)h) delta^{a-b} g(x).
    """
    _same_lattice(f, g)
    alpha = tuple(alpha)
    lhs = delta_alpha(
        GridSample(f.origin, f.spacing, f.values * g.values), alpha
    ).values
    out_shape = lhs.shape
    rhs = np.zeros(out_shape)
    for beta in sub_indices(alpha):
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        df = delta_alpha(f, beta).values
        dg = delta_alpha(g, gamma).values
        # delta^b f evaluated at x + gamma*h: offset the start by gamma
        sl_f = tuple(slice(c, c + s) for c, s in zip(gamma, out_shape))
        sl_g = tuple(slice(0, s) for s in out_shape)
        rhs += multi_binom(alpha, beta) * df[sl_f] * dg[sl_g]
    return float(np.abs(lhs - rhs).max())


def mean_value_check(f, dalpha_f, x, alpha, h, samples_per_axis: int = 33):
    """Iterated difference at x vs the range of the analytic derivative.

    Returns (delta_h^alpha f(x), (lo, hi)) where [lo, hi] is the min/max of
    dalpha_f over a dense sampling of the stencil hull
    prod_k [x_k, x_k + alpha_k h_k].  The classical mean value statement for
    divided differences is containment of the first value in the range.
    """
    x = tuple(float(v) for v in x)
    alpha = tuple(alpha)
    h = tuple(float(v) for v in (h if hasattr(h, "__len__") else [h] * len(x)))
    stencil_axes = [xk + hk * np.arange(ak + 1) for xk, hk, ak in zip(x, h, alpha)]
    grids = np.meshgrid(*stencil_axes, indexing="ij")
    vals = np.broadcast_to(f(tuple(grids)), grids[0].shape)
    sample = GridSample(x, h, np.array(vals))
    value = float(delta_alpha(sample, alpha).values.reshape(()))
    hull_axes = [
        np.linspace(xk, xk + ak * hk, samples_per_axis if ak > 0 else 1)
        for xk, hk, ak in zip(x, h, alpha)
    ]
    hull = np.meshgrid(*hull_axes, indexing="ij")
    dvals = np.broadcast_to(dalpha_f(tuple(hull)), hull[0].shape)
    return value, (float(dvals.min()), float(dvals.max()))


def interior_derivative_error(u_l, u_inf, alpha, region, h: float, m: int | None = None) -> float:
    """Lattice H^m-aggregated forward-difference estimator.

    Computes sqrt(sum over |beta| <= m of the trapezoid-lattice integral of
    (delta_h^alpha D^beta (u_l - extension of u_inf))^2) over the region.
    u_inf lives on the cross-section; its extension is constant in the axial
    variables, so axial derivatives of the extension vanish.  The sampling
    lattice is inflated by alpha_k extra layers on the upper side of axis k
    (what the forward differences consume) and must stay inside the domain
    of u_l; when alpha has cross-sectional components the region must be
    strictly interior in the cross-sectional axes.
    """
    n = u_l.basis.naxes
    p = n - u_inf.basis.naxes
    if p < 1:
        raise LatticeError("cross-section field must have fewer axes than the full field")
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise LatticeError(f"multi-index {alpha} does not match {n} axes")
    if m is None:
        m = u_l.basis.factors[0].bc_order
    if order(alpha) > m:
        raise LatticeError(f"|alpha| = {order(alpha)} exceeds m = {m}")
    if h <= 0:
        raise LatticeError(f"spacing must be positive, got {h}")
    domain = u_l.basis.domain
    axes = []
    counts = []
    strict_needed = not in_N1(alpha, p)
    for k, ((lo, hi), (dlo, dhi)) in enumerate(zip(region, domain)):
        if not lo < hi:
            raise LatticeError(f"empty region on axis {k}")
        count = int(np.floor((hi - lo) / h + _TOL)) + 1
        top = lo + h * (count - 1 + alpha[k])
        scale = max(1.0, abs(dlo), abs(dhi))
        if lo < dlo - _TOL * scale or top > dhi + _TOL * scale:
            raise LatticeError(
                f"region inflated by {alpha[k]} layers leaves the domain on axis {k}"
            )
        if strict_needed and k >= p:
            if lo <= dlo + _TOL * scale or top >= dhi - _TOL * scale:
                raise LatticeError(
                    "cross-sectional derivatives need a strictly interior region"
                )
        axes.append(lo + h * np.arange(count + alpha[k]))
        counts.append(count)
    weights = np.ones(())
    for count in counts:
        w = np.ones(count)
        w[0] = w[-1] = 0.5
        weights = np.multiply.outer(weights, w)
    origin = tuple(r[0] for r in region)
    spacing = (float(h),) * n
    diff = DifferenceEvaluator(u_l.eval_grid, ExtensionEvaluator(u_inf, p))
    total = 0.0
    for beta in enumerate_upto(n, m):
        d = delta_alpha(GridSample(origin, spacing, diff(axes, beta)), alpha)
        total += float(np.sum(weights * d.values**2))
    return float(np.sqrt(total * h**n))
