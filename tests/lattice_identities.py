"""Discrete identities of the difference calculus, built only by the tests.

The package's interior estimator (fdcalc.interior_derivative_error)
differences the basis, not a field: its lattice matrices hold the centred
differences of basis derivatives.  The objects here state the calculus its
proof rests on: GridSample is a field's values on a uniform lattice,
delta_k the divided first difference (f(x + h e_k) - f(x)) / h along axis
k, read as standing at x (forward), x + h (backward, step -h) or
x + h / 2 (centred), and delta_alpha iterates it axis by axis in ascending
axis order, which fixes the floating-point evaluation order.
centred_estimate is the estimator's definition on these: a field sampled
by eval_grid, differenced by the centred delta_alpha.  On top of these sit
the two discrete identities, summation by parts and the shifted Leibniz
rule, as defect calculators, and a mean-value containment check.  The
multi-index helpers at the end (leq, sub, multi_binom, sub_indices)
enumerate the sub-indices of a Leibniz expansion.
"""

from dataclasses import dataclass
from itertools import product
from math import comb

import numpy as np

from cylasym.fdcalc import _TOL, LatticeError, _lattice_count, lattice_counts
from cylasym.multiindex import MultiIndex, _check_same_length, enumerate_upto, order


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
    axes = [lo + h * np.arange(_lattice_count(lo, hi, h)) for (lo, hi), h in zip(box, spacing)]
    grids = np.meshgrid(*axes, indexing="ij")
    values = np.broadcast_to(fn(tuple(grids)), grids[0].shape)
    return GridSample(tuple(b[0] for b in box), tuple(spacing), np.array(values))


def delta_k(s: GridSample, k: int, backward: bool = False, centred: bool = False) -> GridSample:
    """Divided difference along axis k; backward uses step -h (Eq. form
    (f(x)-f(x-h))/h), centred step h / 2 both ways ((f(x+h/2)-f(x-h/2))/h)."""
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
    elif centred:
        origin[k] += h / 2  # midway between the two points it reads
    return GridSample(tuple(origin), s.spacing, diff)


def delta_alpha(s: GridSample, alpha, backward: bool = False,
                centred: bool = False) -> GridSample:
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
            out = delta_k(out, k, backward=backward, centred=centred)
    return out


def centred_estimate(w, p: int, alpha, region, h: float, m: int) -> float:
    """The interior estimate of one alpha by its definition: each D^beta
    of the field w sampled by eval_grid on the region's lattice inflated by
    alpha_k h / 2 on both sides of axis k, differenced by the centred
    delta_alpha, which stands on the region's lattice, and summed with
    trapezoid weights, beta in enumerate_upto order."""
    n = w.basis.naxes
    counts = lattice_counts(region, w.basis.domain, [alpha], h, p)
    origin = tuple(lo - a * h / 2 for (lo, _), a in zip(region, alpha))
    axes = [o + h * np.arange(c + a) for o, c, a in zip(origin, counts, alpha)]
    weights = np.ones(())
    for count in counts:
        trapezoid = np.ones(count)
        trapezoid[0] = trapezoid[-1] = 0.5
        weights = np.multiply.outer(weights, trapezoid)
    total = 0.0
    for beta in enumerate_upto(n, m):
        sample = GridSample(origin, (h,) * n, w.eval_grid(axes, beta))
        total += float(np.sum(weights * delta_alpha(sample, alpha, centred=True).values ** 2))
    return float(np.sqrt(total * h**n))


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


# ---------------------------------------------------------------------------
# multi-index sub-indices

def leq(alpha_prime: MultiIndex, alpha: MultiIndex) -> bool:
    """Componentwise alpha' <= alpha."""
    _check_same_length(alpha_prime, alpha)
    return all(a <= b for a, b in zip(alpha_prime, alpha))


def sub(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    """alpha - beta, requiring beta <= alpha componentwise."""
    if not leq(beta, alpha):
        raise ValueError(f"{beta} is not componentwise <= {alpha}")
    return tuple(a - b for a, b in zip(alpha, beta))


def multi_binom(alpha: MultiIndex, alpha_prime: MultiIndex) -> int:
    """Product of componentwise binomial coefficients C(alpha_i, alpha'_i).

    Defined for alpha' <= alpha componentwise; anything else is rejected
    rather than returning 0, since callers enumerate sub-indices explicitly.
    """
    if not leq(alpha_prime, alpha):
        raise ValueError(f"{alpha_prime} is not componentwise <= {alpha}")
    out = 1
    for a, ap in zip(alpha, alpha_prime):
        out *= comb(a, ap)
    return out


def sub_indices(alpha: MultiIndex) -> list[MultiIndex]:
    """All alpha' <= alpha componentwise, graded lexicographic order."""
    out = list(product(*(range(a + 1) for a in alpha)))
    out.sort(key=lambda ap: (sum(ap), ap))
    return out
