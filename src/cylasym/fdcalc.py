"""Centred-difference estimates of interior derivatives on uniform lattices.

The centred divided difference of order a along axis k at x is
h^-a sum_j (-1)^(a - j) C(a, j) f(x + (j - a / 2) h e_k), j = 0..a: the
forward difference read on the lattice shifted by -a h / 2, so it stands
for the derivative at x itself and a reflection of the axis maps it to
(-1)^a times its value at the mirror point.  delta_h^alpha is its product
over the axes.  interior_derivative_error is the lattice estimator for
interior higher-order differences of one field: the sweep passes it
u_l - ext(u_inf), built once by analysis.difference_field.  It evaluates
no field.  Along each axis the centred difference of order a of the b-th
derivatives of the basis at the lattice points is a matrix B^(a,b) of the
basis, each row times the root of its trapezoid weight, so an estimate is
a Kronecker form of the field's coefficients X:
sqrt(h^n sum_beta |(B_1^(alpha_1,beta_1) x .. x B_n^(alpha_n,beta_n)) X|^2).
The matrices of an axis come from one read of a de Boor table, kept per
process (_lattice_matrices): for a lattice on the half-cell grid whose
differences read only cells d or more inside the factor, the table of a
reference lattice of the same cell width, which the x1 lattice of every l
is a whole number of cells from; for any other, the factor's own.
lattice_counts sizes and checks the lattices.
"""

import math
from functools import lru_cache

import numpy as np

from .assembly import kron_applied
from .multiindex import enumerate_upto, in_N1, order
from .splines import SplineBasis1D

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
    inflated by alpha_k h / 2 on both sides of axis k, the points its
    centred differences read, stays inside domain, strictly inside on the
    cross-sectional axes (k >= p) when alpha has cross-sectional
    components.  The sweep plan checks its lattices with it before any
    work."""
    counts = [_lattice_count(lo, hi, h) if lo < hi else 0 for lo, hi in region]
    for k, ((lo, hi), count) in enumerate(zip(region, counts)):
        if count < 2:  # one point would weigh 1/2 in the trapezoid rule
            raise LatticeError(f"axis {k} of the region, [{lo:g}, {hi:g}], holds {count} lattice "
                               f"points at spacing h = {h:g}; the trapezoid rule needs 2")
    for alpha in alphas:
        strict_needed = not in_N1(alpha, p)
        for k, ((lo, _), (dlo, dhi), count) in enumerate(zip(region, domain, counts)):
            reach = h * alpha[k] / 2
            bottom, top = lo - reach, lo + h * (count - 1) + reach
            scale = max(1.0, abs(dlo), abs(dhi))
            spans = f"on axis {k} the lattice spans [{bottom:g}, {top:g}], domain [{dlo:g}, {dhi:g}]"
            if bottom < dlo - _TOL * scale or top > dhi + _TOL * scale:
                raise LatticeError(
                    f"region inflated by {alpha[k]} h / 2 on each side leaves the domain: {spans}"
                )
            if strict_needed and k >= p and (bottom <= dlo + _TOL * scale
                                             or top >= dhi - _TOL * scale):
                raise LatticeError(
                    f"cross-sectional derivatives need a strictly interior region: {spans}"
                )
    return counts


@lru_cache(maxsize=None)
def _lattice_matrices(layout, lo: float, count: int, h: float, amax: int, m: int):
    """(first, {(a, b): B}) of the lattice lo + h * i, i < count, on the
    factor SplineBasis1D(*layout), for a <= amax and b <= m, read-only:
    B[i, j] is the centred difference of order a at x_i of the b-th
    derivative of function first + j, times the root of x_i's trapezoid
    weight; j runs over every function some point of the differences
    reads.  One de Boor table holds those points.  Built on first use in a
    process and kept, as assembly._stencil's bands are."""
    factor = SplineBasis1D(*layout)
    shifts = np.concatenate([np.arange(a + 1) - a / 2 for a in range(amax + 1)])
    vals, cols = factor.local_table((lo + h * (np.arange(count)[:, None] + shifts)).ravel())
    width = vals.shape[2]
    vals = vals.reshape(count, len(shifts), -1, width)
    cols = cols.reshape(count, len(shifts), width)
    first = int(cols.min())
    size = int(cols.max()) + 1 - first
    index = np.arange(count)[:, None, None] * size + cols - first
    root = np.ones((count, 1))
    root[[0, -1]] = math.sqrt(0.5)
    mats, start = {}, 0
    for a in range(amax + 1):
        stencil = slice(start, start + a + 1)
        coef = np.array([(-1) ** (a - j) * math.comb(a, j) for j in range(a + 1)]) / h**a
        for b in range(m + 1):
            terms = coef[:, None] * vals[:, stencil, b, :]
            B = np.bincount(index[:, stencil].ravel(), weights=terms.ravel(),
                            minlength=count * size).reshape(count, size) * root
            B.flags.writeable = False
            mats[a, b] = B
        start += a + 1
    return first, mats


def _axis_matrices(factor, lo: float, count: int, h: float, amax: int, m: int):
    """(columns, {(a, b): B}): _lattice_matrices of one axis's lattice, over
    the slice `columns` of the factor's functions.

    A lattice whose points fall on the half-cell grid of the factor (h half
    a cell, lo a breakpoint or a midpoint) and whose differences read only
    cells d or more inside the factor's ends reads uniform B-splines that
    no constraint drops: its matrices are those of the same lattice on
    cells of the same width d cells inside an unconstrained factor, shifted
    by a whole number of cells.  So the x1 lattice of every l reads one
    reference, since 2 l / (2 l resolution) rounds to the same cell width
    for every l.  Any other lattice reads the factor's own table.
    """
    d = factor.degree
    start = (lo - factor.lo) / factor.h  # in cells
    half = round(2 * start)
    c0 = math.floor(half / 2 - amax / 4)  # the cells the differences read
    c1 = math.floor((half + count - 1) / 2 + amax / 4)
    if (abs(2 * start - half) <= _TOL * max(1.0, abs(half)) and abs(2 * h - factor.h)
            <= _TOL * factor.h and c0 >= d and c1 < factor.cells - d):
        cells = c1 - c0 + 1 + 2 * d
        layout = (0.0, cells * factor.h, cells, d, 0)
        lo, shift = (half / 2 - c0 + d) * factor.h, c0 - d - factor.bc_order
    else:
        layout, shift = (factor.lo, factor.hi, factor.cells, d, factor.bc_order), 0
    first, mats = _lattice_matrices(layout, float(lo), count, float(h), amax, m)
    return slice(first + shift, first + shift + mats[0, 0].shape[1]), mats


def _along(B, X):
    """B applied along the leading axis of X, as a matrix of shape
    (the other axes, B's rows): one gemm that reads X transposed.  So n
    calls apply one matrix along each axis and end in the axis order they
    started from."""
    return X.reshape(B.shape[1], -1).T @ B.T


def interior_derivative_error(w, p: int, alphas, region, h: float, m: int) -> dict:
    """Lattice H^m-aggregated centred-difference estimators, {alpha: value}.

    For each alpha, in the order given: sqrt(sum over |beta| <= m of the
    trapezoid-lattice integral of (delta_h^alpha D^beta w)^2) over the
    region, w a DiscreteField on (axial box) x omega whose first p axes are
    axial: in the sweep, w = u_l - ext(u_inf), and m its problem's order.
    The centred differences of alpha read alpha_k h / 2 beyond the region
    on both sides of axis k; that inflated lattice must stay inside the
    domain of w, and when alpha has cross-sectional components the region
    must be strictly interior in the cross-sectional axes.  Each term is
    the Kronecker form of the axis matrices (_axis_matrices) applied to the
    coefficients, axis by axis (assembly.kron_applied: the terms that
    share a leading run of (alpha_k, beta_k) share its products), so an
    estimate equals the one from [alpha] alone.
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
    columns, mats = zip(*(_axis_matrices(f, lo, c, h, a, m) for f, (lo, _), c, a
                          in zip(w.basis.factors, region, counts, inflate)))
    totals = dict.fromkeys(alphas, 0.0)
    terms = [(alpha, beta) for beta in enumerate_upto(n, m) for alpha in totals]
    products = kron_applied(w.coeffs[columns], [tuple(zip(*term)) for term in terms],
                            lambda k, ab, Y: _along(mats[k][ab], Y))
    for (alpha, _), Y in zip(terms, products):
        totals[alpha] += float(np.vdot(Y, Y))
    return {alpha: float(np.sqrt(total * h**n)) for alpha, total in totals.items()}
