"""Tensor-product B-spline spaces conforming in H^m with Dirichlet constraints.

Each coordinate direction carries clamped uniform B-splines of degree d on a
uniform grid of cells.  Dropping the first and last bc_order basis functions
enforces vanishing value and derivatives up to order bc_order - 1 at both
endpoints, so the tensor-product space with bc_order = m is a conforming
subspace of H^m_0 on the box (degree d >= m gives C^{d-1} >= C^{m-1}
smoothness across cells, and d >= m makes the constraint count meaningful).

Basis values and derivatives come from the de Boor triangular recursion
(the derivative variant), vectorized over evaluation points.  A factor's
local_table computes, for a point array, one read-only table of the
degree + 1 local basis values and derivatives of every point (dropped
functions zeroed) and their constrained column indices, anew on every
call: a factor keeps no table.  What a process keeps is computed from
tables once, in three memos: assembly's stencils (_stencil), the norms'
Gram references (_gram_reference below) and fdcalc's lattice matrices
(_lattice_matrices).  eval_grid evaluates a field cell by cell from the
tables: a value gathers the coefficients of its point's window and sums
them in a fixed order, so it depends on its own point only, and it builds
no dense (points x dim) basis matrix.  The assembly kernel reads its local
values from the same tables; fdcalc sums dense (lattice points x functions
read) matrices from them.

The norms of spline fields are Kronecker forms of banded 1-D Gram
matrices, which analysis applies without evaluating the fields
(axis_grams, on a composite Gauss rule).  On uniform cells a band is
placed (placed), the rule that builds assembly's constant-coefficient
bands: its leading rows and one interior row, read from a reference on
unit cells, then their mirror images, scaled to the cell width.  Two
references per degree, constraint order, m and points per cell, each
built on first use in a process (_gram_reference), cover the whole
extent of a factor and a box at least d cells inside one, so no uncut
band a command integrates reads a table of the factor.  A band with a
cutoff, and one on a box whose ends are not breakpoints, is summed over
the points from the factor's table (gram_band).  No band is kept: each
call places its bands from the references anew.

composite_gauss scales one memoized, read-only Gauss-Legendre rule per
point count, read from a table of the rules of 1 to 8 points, bit for bit
those of numpy.polynomial.legendre.leggauss, so the package does not import
numpy.polynomial; a larger count calls leggauss.
"""

import math
from functools import lru_cache

import numpy as np

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


# numpy.polynomial.legendre.leggauss(n) for n = 1..8 as hex floats, bit for
# bit: (nodes, weights)
_LEGGAUSS = {
    1: ("0x0.0p+0",
        "0x1.0000000000000p+1"),
    2: ("-0x1.279a74590331cp-1 0x1.279a74590331cp-1",
        "0x1.0000000000000p+0 0x1.0000000000000p+0"),
    3: ("-0x1.8c97ef43f7248p-1 0x0.0p+0 0x1.8c97ef43f7248p-1",
        "0x1.1c71c71c71c73p-1 0x1.c71c71c71c71cp-1 0x1.1c71c71c71c73p-1"),
    4: ("-0x1.b8e6dbcf63985p-1 -0x1.5c23fd9dd3dfcp-2 0x1.5c23fd9dd3dfcp-2 "
        "0x1.b8e6dbcf63985p-1",
        "0x1.64340f7e7b666p-2 0x1.4de5f840c24cdp-1 0x1.4de5f840c24cdp-1 0x1.64340f7e7b666p-2"),
    5: ("-0x1.cff6ce0533a69p-1 -0x1.13b23fd99b705p-1 0x0.0p+0 0x1.13b23fd99b705p-1 "
        "0x1.cff6ce0533a69p-1",
        "0x1.e539ec36e0393p-3 0x1.ea1da25ae4158p-2 0x1.23456789abcddp-1 0x1.ea1da25ae4158p-2 "
        "0x1.e539ec36e0393p-3"),
    6: ("-0x1.dd6ca4e80a01dp-1 -0x1.528a09655c95ep-1 -0x1.e8b12d03675c5p-3 "
        "0x1.e8b12d03675c5p-3 0x1.528a09655c95ep-1 0x1.dd6ca4e80a01dp-1",
        "0x1.5edf601e2dbf5p-3 0x1.716b7b5794c1ep-2 0x1.df24d499545e8p-2 0x1.df24d499545e8p-2 "
        "0x1.716b7b5794c1ep-2 0x1.5edf601e2dbf5p-3"),
    7: ("-0x1.e5f178e7c622ap-1 -0x1.7ba9f9be3a1d6p-1 -0x1.9f95df119fd62p-2 0x0.0p+0 "
        "0x1.9f95df119fd62p-2 0x1.7ba9f9be3a1d6p-1 0x1.e5f178e7c622ap-1",
        "0x1.092f69f826d58p-3 0x1.1e6b1713d8648p-2 0x1.86fe74ee32b39p-2 0x1.abfd7e03c2fa4p-2 "
        "0x1.86fe74ee32b39p-2 0x1.1e6b1713d8648p-2 0x1.092f69f826d58p-3"),
    8: ("-0x1.ebab1cb0acc66p-1 -0x1.97e4ab249f41ep-1 -0x1.0d129583284b4p-1 "
        "-0x1.77ac94f3c7344p-3 0x1.77ac94f3c7344p-3 0x1.0d129583284b4p-1 0x1.97e4ab249f41ep-1 "
        "0x1.ebab1cb0acc66p-1",
        "0x1.9ea1d04ca03aep-4 0x1.c76fb531d2b94p-3 0x1.413c50a25560ep-2 0x1.736360b19933dp-2 "
        "0x1.736360b19933dp-2 0x1.413c50a25560ep-2 0x1.c76fb531d2b94p-3 0x1.9ea1d04ca03aep-4"),
}


@lru_cache(maxsize=None)
def _legendre(points_per_cell: int):
    """Gauss-Legendre nodes and weights on (-1, 1), read-only, shared by
    every composite rule that uses them: from _LEGGAUSS, or from leggauss
    for a point count the table does not hold."""
    if points_per_cell in _LEGGAUSS:
        nodes, weights = (np.array([float.fromhex(v) for v in text.split()])
                          for text in _LEGGAUSS[points_per_cell])
    else:
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(points_per_cell)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def composite_gauss(extent, cells: int, points_per_cell: int):
    """Composite Gauss-Legendre nodes and weights over the uniform cells of
    extent, flattened cell-major."""
    lo, hi = extent
    nodes, weights = _legendre(points_per_cell)
    edges = np.linspace(lo, hi, cells + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * ((hi - lo) / cells)
    pts = (mid[:, None] + half * nodes[None, :]).ravel()
    wts = np.broadcast_to(half * weights[None, :], (cells, points_per_cell)).ravel()
    return pts, wts


# Gauss points per cell of the composite rule the norms integrate with
NORM_POINTS_PER_CELL = 3


def gauss_axis(extent, resolution: int, points_per_cell: int):
    """Composite Gauss nodes and weights over one box extent, on the cells
    the resolution puts there."""
    lo, hi = extent
    if not lo < hi:
        raise ValueError(f"empty box extent ({lo}, {hi})")
    return composite_gauss((lo, hi), cells_for((lo, hi), resolution), points_per_cell)


def _window_sum(lines, weights, cols):
    """sum over r, in ascending order, of weights[q, r] * lines[cols[q, r]].

    Row q of the result depends on row q of weights and cols only.  lines is
    gathered as a contiguous copy, so each gather moves whole rows.
    """
    lines = np.ascontiguousarray(lines)
    column = (-1,) + (1,) * (lines.ndim - 1)
    acc = None
    for r in range(cols.shape[1]):
        term = lines[cols[:, r]]
        term *= weights[:, r].reshape(column)
        if acc is None:
            acc = term
        else:
            acc += term
        del term  # freed before the next gather allocates its successor
    return acc


def gram_band(vals, cols, weights, size: int):
    """Band of the Gram matrix G[i, j] = sum_q weights[q] phi_i(x_q) phi_j(x_q)
    of functions phi_0 .. phi_{size - 1}, from their local values.

    vals[q, r] is the value at x_q of function cols[q, r], for the d + 1
    functions that can be nonzero there (r = 0..d, d = vals.shape[1] - 1),
    whose indices differ by at most d; a function whose value is zero may
    carry any index in that range.  The band has assembly's layout: shape
    (size, 2 d + 1), entry [i, s] pairing function i with function
    i + s - d.  Each product is weights[q] * (phi_i phi_j), so the band is
    symmetric bit for bit, and each entry sums its points in ascending order.
    """
    width = 2 * vals.shape[1] - 1
    products = weights[:, None, None] * (vals[:, :, None] * vals[:, None, :])
    slots = cols[:, None, :] - cols[:, :, None] + (width // 2)
    index = cols[:, :, None] * width + slots
    band = np.bincount(index.ravel(), weights=products.ravel(), minlength=size * width)
    return band.reshape(size, width)


def placed(ref, n: int, sign: float = 1.0):
    """The band (or the load, a band of slot width 1) of a 1-D factor of n
    functions on uniform cells, from the reference ref of such a factor:
    assembly's stencil of a pair, or a Gram reference (axis_grams).

    Row i < ceil(n / 2) is ref's row min(i, c), c = (len(ref) - 1) // 2:
    the reference's leading rows, then its centre row, which is an interior
    row on a reference of 3 d + 1 cells and otherwise one of a reference of
    n functions.  Row m(i) = n - 1 - i is row i mirrored, its slots
    reversed and times sign, (-1)^(a + b) for the key (a, b); the centre
    row of an odd n is its own mirror average.  So the result equals its
    signed mirror bitwise.
    """
    half = (n + 1) // 2
    lead = ref[np.minimum(np.arange(half), (len(ref) - 1) // 2)]
    out = np.concatenate([lead, sign * np.flip(lead[: n // 2])])
    if n % 2:
        centre = out[half - 1 : half]
        centre[...] = 0.5 * (centre + sign * np.flip(centre))
    return out


def _gauss_grams(factor, extent, m: int, resolution: int, points_per_cell: int, cutoff=None):
    """axis_grams' per-point kernel: (rows, (G^(0), .., G^(m))) summed over
    the composite Gauss points of extent from the factor's local table."""
    pts, wts = gauss_axis(extent, resolution, points_per_cell)
    vals, cols = factor.local_table(pts)
    lo = int(cols.min())
    cols = cols - lo
    phis = [vals[:, a, :] for a in range(m + 1)]
    if cutoff is not None:
        rho, width = cutoff
        prof = [rho.profile(pts / width, k)[:, None] / width**k for k in range(m + 1)]
        phis = [
            sum(math.comb(a, b) * phis[b] * prof[a - b] for b in range(a + 1))
            for a in range(m + 1)
        ]
    size = int(cols.max()) + 1
    return slice(lo, lo + size), tuple(gram_band(phi, cols, wts, size) for phi in phis)


@lru_cache(maxsize=None)
def _gram_reference(degree: int, bc_order: int, cells: int, margin: int, m: int,
                    points_per_cell: int):
    """The bands G^(0..m) that _placed_grams places from, read-only: the
    kernel's (_gauss_grams) on `cells` unit cells that lie `margin` cells
    inside a factor of unit cells, of the degree and constraint order, each
    made mirror symmetric (placed).  Built on first use in a process and
    kept, as _legendre's rules are."""
    factor = SplineBasis1D(0.0, cells + 2 * margin, cells + 2 * margin, degree, bc_order)
    _, bands = _gauss_grams(factor, (margin, margin + cells), m, 1, points_per_cell)
    refs = tuple(placed(band, len(band)) for band in bands)
    for ref in refs:
        ref.flags.writeable = False
    return refs


def _placed_grams(factor, extent, m: int, resolution: int, points_per_cell: int):
    """axis_grams' placed bands (rows, (G^(0), .., G^(m))), or None unless
    the composite rule of extent runs on the factor's own cells c0..c1 - 1
    (its ends are breakpoints, up to rounding) and these are the whole
    extent or lie d cells or more inside the factor's ends.

    The whole extent places from a reference of its own constraint order,
    and an inner box, whose functions are all uniform B-splines that no
    constraint drops, from one on a box d cells inside an unconstrained
    factor.  A reference has 3 d + 1 cells, or the box's own count when it
    is shorter.
    """
    ends = [float(x) for x in extent]
    c0, c1 = (round((x - factor.lo) / factor.h) for x in ends)
    tol = _DOMAIN_RTOL * max(1.0, abs(factor.lo), abs(factor.hi))
    if c1 - c0 != cells_for(ends, resolution) or any(
            abs(factor.lo + c * factor.h - x) > tol for c, x in zip((c0, c1), ends)):
        return None
    d = factor.degree
    if (c0, c1) == (0, factor.cells):
        bc, margin = factor.bc_order, 0
    elif c0 >= d and c1 <= factor.cells - d:
        bc, margin = 0, d
    else:
        return None
    refs = _gram_reference(d, bc, min(c1 - c0, 3 * d + 1), margin, m, points_per_cell)
    first, size = c0 - factor.bc_order + bc, c1 - c0 + d - 2 * bc
    return slice(first, first + size), tuple(
        placed(ref, size) * factor.h ** (1 - 2 * a) for a, ref in enumerate(refs))


def axis_grams(factor, extent, m: int, resolution: int, points_per_cell: int, cutoff=None):
    """(rows, (G^(0), .., G^(m))): Gram bands of one factor's functions on
    the composite Gauss rule of extent, over the slice `rows` of functions
    nonzero there.

    G^(a)[i, j] sums w_q phi_i^(a)(x_q) phi_j^(a)(x_q), phi the factor's
    basis.  On cells of width h, G^(a) is h^(1 - 2a) times its band on
    unit cells, whose rows are those of one interior row except for the
    leading rows and their mirror images.  So without a cutoff the bands of
    the boxes a command integrates, a factor's whole extent and a box on
    its breakpoints d cells or more inside its ends (the inner cylinder of
    error_Hm), are placed (placed) from a reference on unit cells
    (_placed_grams), as assembly places its bands: bitwise mirror
    symmetric, the same on every translate of the factor, and read from no
    table of the factor.  Every other box, and every band with a cutoff,
    is summed point by point from a local table of the factor
    (_gauss_grams).  A cutoff (rho, width) multiplies each function by
    rho(x / width): by Leibniz, phi^(a) is then the sum over b <= a of
    C(a, b) B^(b) rho^(a - b) / width^(a - b).  G^(a) does not depend on
    m, so the bands of a smaller m are a prefix bit for bit.  Nothing is
    kept: placing costs microseconds, so every call places (or sums) anew.
    """
    if m > factor.degree:
        raise ValueError(f"derivative order {m} exceeds degree {factor.degree}")
    uncut = None if cutoff else _placed_grams(factor, extent, m, resolution, points_per_cell)
    return uncut or _gauss_grams(factor, extent, m, resolution, points_per_cell, cutoff)


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

    def local_table(self, x):
        """(vals, cols) for the points x, computed on every call.

        vals[q, k, r] is the k-th derivative, k <= degree, of unconstrained
        function first[q] + r at x[q], zero where the constraint drops it;
        cols[q, r] is its constrained index, clamped into range.  Derivative
        k of the recursion does not depend on how many are computed, so one
        table serves every order bit for bit, and each row depends on its
        own point only.  Both arrays are read-only.
        """
        ders, first = self.local_ders(x, self.degree)
        cols, valid = self.window(first)
        vals = np.where(valid[:, None, :], ders, 0.0)
        cols = np.clip(cols, 0, self.dim - 1)
        vals.flags.writeable = cols.flags.writeable = False
        return vals, cols


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
            vals, cols = f.local_table(ax)
            lead = _window_sum(np.moveaxis(out, k, 0), vals[:, alpha[k], :], cols)
            out = np.moveaxis(lead, 0, k)
        return np.ascontiguousarray(out)
