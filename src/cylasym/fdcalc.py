"""Forward-difference estimates of interior derivatives on uniform lattices.

The divided first difference along axis k is (f(x + h e_k) - f(x)) / h;
delta_h^alpha iterates it axis by axis in ascending axis order, which fixes
the floating-point evaluation order.  interior_derivative_error is the
lattice estimator for interior higher-order differences of one field: the
sweep passes it u_l - ext(u_inf), built once by analysis.difference_field.
It takes a whole set of alphas for one region: it evaluates each D^beta of
the field once, on one lattice, and every alpha differences a leading
slice.  lattice_counts sizes and checks those lattices.
"""

import numpy as np

from .multiindex import enumerate_upto, in_N1, order

_TOL = 1e-12


class LatticeError(ValueError):
    pass


def _lattice_count(lo, hi, h) -> int:
    """Points of the lattice lo + h * i that lie in [lo, hi], up to rounding."""
    return int(np.floor((hi - lo) / h + _TOL)) + 1


def lattice_counts(region, domain, alphas, h: float, p: int) -> list:
    """Points per axis of the lattice of spacing h on region; raises
    LatticeError unless every axis holds at least 2 points, the fewest the
    trapezoid rule integrates with, and, for every alpha, the lattice
    inflated by alpha_k layers on the upper side of axis k stays inside
    domain, strictly inside on the cross-sectional axes (k >= p) when alpha
    has cross-sectional components.  The sweep plan checks its lattices
    with it before any work."""
    counts = [_lattice_count(lo, hi, h) if lo < hi else 0 for lo, hi in region]
    for k, ((lo, hi), count) in enumerate(zip(region, counts)):
        if count < 2:  # one point would weigh 1/2 in the trapezoid rule
            raise LatticeError(f"axis {k} of the region, [{lo:g}, {hi:g}], holds {count} lattice "
                               f"points at spacing h = {h:g}; the trapezoid rule needs 2")
    for alpha in alphas:
        strict_needed = not in_N1(alpha, p)
        for k, ((lo, _), (dlo, dhi), count) in enumerate(zip(region, domain, counts)):
            top = lo + h * (count - 1 + alpha[k])
            scale = max(1.0, abs(dlo), abs(dhi))
            spans = f"on axis {k} the lattice spans [{lo:g}, {top:g}], domain [{dlo:g}, {dhi:g}]"
            if lo < dlo - _TOL * scale or top > dhi + _TOL * scale:
                raise LatticeError(
                    f"region inflated by {alpha[k]} layers leaves the domain: {spans}"
                )
            if strict_needed and k >= p and (lo <= dlo + _TOL * scale
                                             or top >= dhi - _TOL * scale):
                raise LatticeError(
                    f"cross-sectional derivatives need a strictly interior region: {spans}"
                )
    return counts


def interior_derivative_error(w, p: int, alphas, region, h: float, m: int) -> dict:
    """Lattice H^m-aggregated forward-difference estimators, {alpha: value}.

    For each alpha, in the order given: sqrt(sum over |beta| <= m of the
    trapezoid-lattice integral of (delta_h^alpha D^beta w)^2) over the
    region, w a field on (axial box) x omega whose first p axes are axial:
    in the sweep, w = u_l - ext(u_inf), and m its problem's order.  The
    forward differences of alpha consume alpha_k extra layers on the upper
    side of axis k; that inflated lattice must stay inside the domain of w,
    and when alpha has cross-sectional components the region must be
    strictly interior in the cross-sectional axes.  Each D^beta is
    evaluated once, on the lattice inflated by the largest alpha_k, and
    each alpha differences its leading points: a value depends on its own
    point only, so an estimate equals the one from [alpha] alone.
    """
    n = w.basis.naxes
    if not 0 < p < n:
        raise LatticeError(f"need 0 < p < {n} axial axes, got p = {p}")
    if h <= 0:
        raise LatticeError(f"spacing must be positive, got {h}")
    alphas = [tuple(alpha) for alpha in alphas]
    for alpha in alphas:
        if len(alpha) != n:
            raise LatticeError(f"multi-index {alpha} does not match {n} axes")
        if order(alpha) > m:
            raise LatticeError(f"|alpha| = {order(alpha)} exceeds m = {m}")
    counts = lattice_counts(region, w.basis.domain, alphas, h, p)
    inflate = [max(col) for col in zip((0,) * n, *alphas)]
    axes = [lo + h * np.arange(c + a) for (lo, _), c, a in zip(region, counts, inflate)]
    weights = np.ones(())
    for count in counts:
        trapezoid = np.ones(count)
        trapezoid[0] = trapezoid[-1] = 0.5
        weights = np.multiply.outer(weights, trapezoid)
    totals = dict.fromkeys(alphas, 0.0)
    for beta in enumerate_upto(n, m):
        values = w.eval_grid(axes, beta)
        for alpha in totals:
            d = values[tuple(slice(0, c + a) for c, a in zip(counts, alpha))]
            for k, a in enumerate(alpha):
                for _ in range(a):
                    d = np.diff(d, axis=k) / h
            totals[alpha] += float(np.sum(weights * d**2))
    return {alpha: float(np.sqrt(total * h**n)) for alpha, total in totals.items()}
