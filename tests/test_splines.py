"""Spline basis oracles: partition of unity, boundary constraints, polynomial
reproduction (values and derivatives), the two field evaluation paths
agreeing with each other, and the cell-local evaluation against the dense
basis matrix: values, locality, tables and memory."""

import itertools
import tracemalloc

import numpy as np
import pytest
from dense_oracle import dense_basis_matrix
from numpy.polynomial.legendre import leggauss

import cylasym.splines as splines
from cylasym.analysis import CutoffRho, _gauss_grid
from cylasym.assembly import CrossSection
from cylasym.problem import builtin_problem
from cylasym.splines import (
    DiscreteField,
    SplineBasis1D,
    TensorBasis,
    axis_grams,
    composite_gauss,
    gram_band,
)


def _poly_eval(coeffs, x, der=0):
    """Derivative of sum_k coeffs[k] x^k, computed symbolically as the oracle."""
    c = np.array(coeffs, dtype=float)
    for _ in range(der):
        c = c[1:] * np.arange(1, len(c))
        if len(c) == 0:
            return np.zeros_like(np.asarray(x, dtype=float))
    return sum(ck * np.asarray(x, dtype=float) ** k for k, ck in enumerate(c))


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_partition_of_unity(degree):
    basis = SplineBasis1D(0.0, 2.0, cells=7, degree=degree, bc_order=0)
    x = np.linspace(0.0, 2.0, 113)
    B = dense_basis_matrix(basis, x, der=0)
    assert np.allclose(B.sum(axis=1), 1.0, atol=1e-13)
    assert np.all(B >= -1e-14)
    for der in range(1, degree + 1):
        D = dense_basis_matrix(basis, x, der=der)
        scale = max(1.0, np.abs(D).max())
        assert np.abs(D.sum(axis=1)).max() <= 1e-12 * scale


@pytest.mark.parametrize("degree,bc", [(1, 1), (2, 1), (3, 2), (4, 2)])
def test_endpoint_constraints(degree, bc):
    basis = SplineBasis1D(-1.0, 3.0, cells=9, degree=degree, bc_order=bc)
    ends = np.array([-1.0, 3.0])
    for der in range(bc):
        B = dense_basis_matrix(basis, ends, der=der)
        assert np.abs(B).max() <= 1e-13 * max(1.0, basis.h ** (-der))


def test_dimension_formula():
    assert SplineBasis1D(0.0, 1.0, cells=8, degree=2, bc_order=1).dim == 8
    assert SplineBasis1D(0.0, 1.0, cells=8, degree=3, bc_order=2).dim == 7
    assert SplineBasis1D(0.0, 1.0, cells=5, degree=2, bc_order=0).dim == 7
    b = SplineBasis1D(-2.0, 2.0, cells=16, degree=3, bc_order=1)
    assert b.dim == 16 + 3 - 2


@pytest.mark.parametrize("degree,bc", [(1, 1), (2, 0), (2, 1), (3, 2)])
def test_window_holds_every_constrained_function(degree, bc):
    basis = SplineBasis1D(0.0, 1.0, cells=7, degree=degree, bc_order=bc)
    cols, valid = basis.window(np.arange(basis.cells))
    assert cols.shape == valid.shape == (basis.cells, degree + 1)
    assert np.all((cols[valid] >= 0) & (cols[valid] < basis.dim))
    assert not np.any((cols[~valid] >= 0) & (cols[~valid] < basis.dim))
    assert set(cols[valid]) == set(range(basis.dim))
    # dropped functions are the first and last bc on each end cell
    assert valid[0].sum() == degree + 1 - bc and valid[-1].sum() == degree + 1 - bc
    # the nonzeros of the dense basis matrix lie in the kept window of each point's cell
    x = np.linspace(0.0, 1.0, 50)
    B = dense_basis_matrix(basis, x)
    point_cols, point_valid = basis.window(basis.cell_of(x))
    for q in range(x.size):
        assert set(np.flatnonzero(B[q])) <= set(point_cols[q][point_valid[q]])


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_polynomial_reproduction_with_derivatives(degree):
    # Unconstrained degree-d splines contain all polynomials of degree <= d.
    basis = SplineBasis1D(0.5, 2.5, cells=6, degree=degree, bc_order=0)
    rng = np.random.default_rng(7)
    poly = rng.uniform(-2.0, 2.0, size=degree + 1)
    xs = np.linspace(0.5, 2.5, 4 * basis.dim + 1)
    B = dense_basis_matrix(basis, xs, der=0)
    coeffs, *_ = np.linalg.lstsq(B, _poly_eval(poly, xs), rcond=None)
    xt = np.linspace(0.5, 2.5, 57)
    for der in range(degree + 1):
        got = dense_basis_matrix(basis, xt, der=der) @ coeffs
        want = _poly_eval(poly, xt, der=der)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-10 * scale


def test_constrained_space_contains_bubble():
    # x(1-x) vanishes to order 1 at both ends, so it lies in the bc_order=1 space.
    basis = SplineBasis1D(0.0, 1.0, cells=8, degree=2, bc_order=1)
    xs = np.linspace(0.0, 1.0, 65)
    B = dense_basis_matrix(basis, xs)
    coeffs, res, *_ = np.linalg.lstsq(B, xs * (1.0 - xs), rcond=None)
    xt = np.linspace(0.0, 1.0, 41)
    got = dense_basis_matrix(basis, xt) @ coeffs
    assert np.abs(got - xt * (1.0 - xt)).max() <= 1e-12
    dgot = dense_basis_matrix(basis, xt, der=1) @ coeffs
    assert np.abs(dgot - (1.0 - 2.0 * xt)).max() <= 1e-11


def test_hat_basis_nodal():
    # degree 1, no constraint: hats are nodal at the breakpoints
    basis = SplineBasis1D(0.0, 4.0, cells=4, degree=1, bc_order=0)
    nodes = np.linspace(0.0, 4.0, 5)
    B = dense_basis_matrix(basis, nodes)
    assert np.allclose(B, np.eye(5), atol=1e-14)


def test_quadrature_exactness():
    for ppc in (2, 3, 4):
        pts, wts = composite_gauss((-1.0, 2.0), 5, ppc)
        assert pts.shape == wts.shape == (5 * ppc,)
        # exact for polynomials up to degree 2*ppc - 1
        for k in range(2 * ppc):
            exact = (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            assert abs((wts * pts**k).sum() - exact) <= 1e-12 * max(1.0, abs(exact))


def test_gauss_rule_is_computed_once_per_point_count():
    splines._legendre.cache_clear()
    first = composite_gauss((0.0, 1.0), 4, 3)
    second = composite_gauss((-2.0, 5.0), 7, 3)
    info = splines._legendre.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    nodes, weights = splines._legendre(3)
    assert not nodes.flags.writeable and not weights.flags.writeable
    fresh = leggauss(3)
    assert np.array_equal(nodes, fresh[0]) and np.array_equal(weights, fresh[1])
    edges = np.linspace(-2.0, 5.0, 8)
    mid = 0.5 * (edges[:-1] + edges[1:])
    assert np.array_equal(second[0], (mid[:, None] + 0.5 * (7.0 / 7) * fresh[0]).ravel())
    assert first[0].flags.writeable  # the composite rule is the caller's own


def test_the_tabulated_rules_are_leggauss_bit_for_bit():
    assert sorted(splines._LEGGAUSS) == list(range(1, 9))
    splines._legendre.cache_clear()
    for n in list(splines._LEGGAUSS) + [max(splines._LEGGAUSS) + 1]:  # the last one is lazy
        nodes, weights = splines._legendre(n)
        x, w = leggauss(n)
        assert nodes.tobytes() == x.tobytes() and weights.tobytes() == w.tobytes(), n
        assert not nodes.flags.writeable and not weights.flags.writeable


@pytest.mark.parametrize("degree,bc_order", [(2, 0), (2, 1), (3, 2)])
def test_gram_band_matches_dense_oracle(degree, bc_order):
    # quadrature cells of another width than the spline's, so points from
    # one quadrature cell fall into two spline cells
    f = SplineBasis1D(-1.3, 2.0, 7, degree, bc_order)
    pts, wts = composite_gauss((-1.0, 1.7), 5, 3)
    vals, cols = f.local_table(pts)
    d = degree
    for a in range(degree + 1):
        band = gram_band(vals[:, a, :], cols, wts, f.dim)
        B = dense_basis_matrix(f, pts, a)
        want = B.T @ (wts[:, None] * B)
        got = np.zeros_like(want)
        for i in range(f.dim):
            for s in range(2 * d + 1):
                j = i + s - d
                if 0 <= j < f.dim:
                    got[i, j] = band[i, s]
                    assert band[i, s] == band[j, 2 * d - s]  # symmetric bit for bit
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("degree,bc_order", [
    (d, b) for d in (1, 2, 3) for b in (0, 1, 2) if b <= d
])
@pytest.mark.parametrize("cutoff", [False, True], ids=["plain", "cutoff"])
@pytest.mark.parametrize("extent", [(-2.0, 2.0), (-1.0, 1.0)], ids=["whole", "inner"])
def test_axis_grams_leave_out_of_space_slots_zero(degree, bc_order, cutoff, extent):
    # assembly.band_apply reads a Gram band as it is, so every slot whose
    # column falls outside the band's rows must hold exactly 0.0
    f = SplineBasis1D(-2.0, 2.0, 8, degree, bc_order)
    m = degree
    rows, bands = axis_grams(f, extent, m, 2, 3, (CutoffRho(m), 1.0) if cutoff else None)
    assert len(bands) == m + 1
    for band in bands:
        size, width = band.shape
        assert size == rows.stop - rows.start
        col = np.arange(size)[:, None] + np.arange(width) - width // 2
        outside = (col < 0) | (col >= size)
        assert outside.any() and np.all(band[outside] == 0.0)
        assert not np.signbit(band[outside]).any()


def test_axis_grams_gives_the_same_bands_bit_for_bit_on_every_call():
    # nothing is kept on the factor: every call places (or, with a cutoff,
    # sums) its bands anew, bit for bit those of the last call and those a
    # new factor gives, per (extent, m, resolution, points per cell)
    f = SplineBasis1D(-2.0, 2.0, 8, 3, 2)
    for args in [((-1.0, 1.0), 2, 2, 3), ((-2.0, 2.0), 2, 2, 3), ((-1.0, 1.0), 1, 2, 3),
                 ((-1.0, 1.0), 2, 4, 3), ((-1.0, 1.0), 2, 2, 4),
                 ((-1.0, 1.0), 2, 2, 3, (CutoffRho(2), 1.0))]:
        rows, bands = axis_grams(f, *args)
        for again in (axis_grams(f, *args), axis_grams(SplineBasis1D(-2.0, 2.0, 8, 3, 2), *args)):
            assert again[0] == rows
            assert [g.tobytes() for g in again[1]] == [g.tobytes() for g in bands]
            assert not any(a is b for a, b in zip(again[1], bands))


# per degree d, (factor (lo, hi, cells), box) of every kind of box
# axis_grams places: the whole extent, a box d cells or more inside the
# factor's ends, and each of them shorter than 3 d + 1 cells
_PLACED_BOXES = {
    "whole": lambda d: ((-4.0, 4.0, 64), (-4.0, 4.0)),
    "inner": lambda d: ((-4.0, 4.0, 64), (-1.0, 1.0)),
    "short_whole": lambda d: ((0.0, 1.0, 3 * d), (0.0, 1.0)),
    "short_inner": lambda d: ((-4.0, 4.0, 64), (-0.125, 0.125)),
}


@pytest.mark.parametrize("box", _PLACED_BOXES)
@pytest.mark.parametrize("degree,bc_order", [
    (d, b) for d in (1, 2, 3) for b in (0, d)
])
def test_placed_gram_bands_match_the_per_point_kernel(monkeypatch, degree, bc_order, box):
    # measured: at most 1.5e-13 of the band's largest entry over degrees
    # 1-3, constraint orders 0 and m, and factors within |x| <= 16; the
    # gap is the kernel's rounding of x - knot at the physical points
    (lo, hi, cells), extent = _PLACED_BOXES[box](degree)
    resolution = round(cells / (hi - lo))
    f = SplineBasis1D(lo, hi, cells, degree, bc_order)
    reads = []
    monkeypatch.setattr(f, "local_table",
                        lambda x: reads.append(x) or SplineBasis1D.local_table(f, x))
    rows, bands = axis_grams(f, extent, degree, resolution, 3)
    assert reads == []  # placed: no local table of the factor was computed
    want_rows, want = splines._gauss_grams(SplineBasis1D(lo, hi, cells, degree, bc_order),
                                           extent, degree, resolution, 3)
    assert rows == want_rows
    for band, kernel in zip(bands, want):
        assert np.abs(band - kernel).max() <= 4e-13 * np.abs(kernel).max()
        # bitwise mirror symmetric, rows and slots reversed
        assert np.array_equal(band, band[::-1, ::-1])


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_placed_gram_bands_are_the_same_on_every_translate(degree):
    # on (1000, 1001) the kernel rounds x - knot a thousand times coarser;
    # the placed bands depend on the cell width and the function count only
    for bc_order in (0, degree):
        for cells, (a, b) in ((24, (0.0, 1.0)), (96, (1.0, 3.0))):
            hi = cells / 24
            here = axis_grams(SplineBasis1D(0.0, hi, cells, degree, bc_order), (a, b),
                              degree, 24, 3)
            there = axis_grams(SplineBasis1D(1000.0, 1000.0 + hi, cells, degree, bc_order),
                               (1000.0 + a, 1000.0 + b), degree, 24, 3)
            assert here[0] == there[0]
            assert all(np.array_equal(g, h) for g, h in zip(here[1], there[1]))


def test_domain_and_order_errors():
    basis = SplineBasis1D(0.0, 1.0, cells=8, degree=2, bc_order=1)
    with pytest.raises(ValueError, match="outside domain"):
        dense_basis_matrix(basis, np.array([1.5]))
    with pytest.raises(ValueError, match="exceeds degree"):
        dense_basis_matrix(basis, np.array([0.5]), der=3)
    with pytest.raises(ValueError):
        SplineBasis1D(0.0, 1.0, cells=2, degree=2, bc_order=1)
    with pytest.raises(ValueError):
        SplineBasis1D(0.0, 1.0, cells=8, degree=1, bc_order=2)
    with pytest.raises(ValueError):
        SplineBasis1D(1.0, 1.0, cells=4, degree=1, bc_order=0)


def test_endpoint_evaluation_is_clamped():
    basis = SplineBasis1D(0.0, 1.0, cells=4, degree=2, bc_order=0)
    # both endpoints evaluate (no domain error) and hit a single basis function
    B = dense_basis_matrix(basis, np.array([0.0, 1.0]))
    assert abs(B[0, 0] - 1.0) <= 1e-14 and abs(B[0, 1:]).max() <= 1e-14
    assert abs(B[1, -1] - 1.0) <= 1e-14 and abs(B[1, :-1]).max() <= 1e-14


def _random_field(seed, dims_spec):
    rng = np.random.default_rng(seed)
    factors = [
        SplineBasis1D(lo, hi, cells, degree, bc)
        for (lo, hi, cells, degree, bc) in dims_spec
    ]
    basis = TensorBasis(factors)
    return DiscreteField(basis, rng.standard_normal(basis.dims)), rng


def test_field_grid_matches_polynomial():
    # interpolate a separable polynomial, check mixed derivatives on a grid
    bx = SplineBasis1D(0.0, 1.0, cells=6, degree=3, bc_order=0)
    by = SplineBasis1D(0.0, 1.0, cells=6, degree=3, bc_order=0)
    basis = TensorBasis([bx, by])
    xs = np.linspace(0.0, 1.0, 31)
    Bx = dense_basis_matrix(bx, xs)
    px = np.array([0.5, -1.0, 0.0, 2.0])  # 0.5 - x + 2 x^3
    py = np.array([1.0, 0.0, 3.0, -1.0])  # 1 + 3 y^2 - y^3
    cx, *_ = np.linalg.lstsq(Bx, _poly_eval(px, xs), rcond=None)
    cy, *_ = np.linalg.lstsq(dense_basis_matrix(by, xs), _poly_eval(py, xs), rcond=None)
    field = DiscreteField(basis, np.outer(cx, cy))
    gx = np.linspace(0.0, 1.0, 11)
    gy = np.linspace(0.0, 1.0, 9)
    for alpha in [(0, 0), (1, 0), (2, 1), (3, 3)]:
        got = field.eval_grid([gx, gy], alpha)
        want = np.outer(_poly_eval(px, gx, alpha[0]), _poly_eval(py, gy, alpha[1]))
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


def test_field_shape_validation():
    basis = TensorBasis([SplineBasis1D(0.0, 1.0, 5, 2, 1)])
    with pytest.raises(ValueError, match="does not match"):
        DiscreteField(basis, np.zeros((3, 2)))
    field = DiscreteField(basis, np.zeros(basis.ndofs))
    with pytest.raises(ValueError, match="wrong length"):
        field.eval_grid([np.array([0.5])], (0, 0))


# ------------------------------------------------------------ cell-local evaluation

_FIELDS = {
    1: [(-2.0, 2.0, 8, 3, 2)],
    2: [(-2.0, 2.0, 8, 3, 2), (0.0, 1.0, 5, 2, 1)],
    3: [(-1.0, 1.0, 4, 2, 1), (0.0, 1.0, 3, 3, 0), (0.0, 2.0, 5, 2, 1)],
}


def _oracle_grid(field, axes, alpha):
    """D^alpha on the grid by dense matrix products, one axis at a time."""
    out = field.coeffs
    for k, (f, ax) in enumerate(zip(field.basis.factors, axes)):
        B = dense_basis_matrix(f, ax, alpha[k])
        out = np.moveaxis(np.tensordot(B, out, axes=(1, k)), 0, k)
    return out


def _test_axes(field, rng):
    # every breakpoint, both ends among them, plus points inside cells
    return [
        np.sort(np.concatenate([np.linspace(f.lo, f.hi, f.cells + 1), rng.uniform(f.lo, f.hi, 7)]))
        for f in field.basis.factors
    ]


@pytest.mark.parametrize("naxes", sorted(_FIELDS))
def test_eval_grid_matches_dense_oracle(naxes):
    field, rng = _random_field(11 + naxes, _FIELDS[naxes])
    axes = _test_axes(field, rng)
    factors = field.basis.factors
    for alpha in itertools.product(*(range(f.degree + 1) for f in factors)):
        want = _oracle_grid(field, axes, alpha)
        # roundoff scales with the coefficients times each axis's row sum of
        # |D^alpha_k B|, which is 1 for values (partition of unity)
        rows = [
            np.abs(dense_basis_matrix(f, ax, a)).sum(axis=1).max()
            for f, ax, a in zip(factors, axes, alpha)
        ]
        scale = np.abs(field.coeffs).max() * np.prod(rows)
        got = field.eval_grid(axes, alpha)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * scale, alpha


@pytest.mark.parametrize("naxes", sorted(_FIELDS))
def test_eval_grid_values_depend_on_their_own_point_only(naxes):
    field, rng = _random_field(23 + naxes, _FIELDS[naxes])
    axes = _test_axes(field, rng)
    picks = [np.sort(rng.choice(len(ax), size=len(ax) // 3, replace=False)) for ax in axes]
    sub_axes = [ax[pick] for ax, pick in zip(axes, picks)]
    for alpha in itertools.product(*(range(f.degree + 1) for f in field.basis.factors)):
        full = field.eval_grid(axes, alpha)
        assert np.array_equal(field.eval_grid(sub_axes, alpha), full[np.ix_(*picks)]), alpha


def _counting_recursion(monkeypatch):
    calls = []
    recursion = splines._ders_basis_funs

    def counted(*args):
        calls.append(args[2].size)
        return recursion(*args)

    monkeypatch.setattr(splines, "_ders_basis_funs", counted)
    return calls


def test_tables_give_equal_values_for_equal_points():
    # no factor keeps a table: a repeat call, another derivative order in
    # between, and equal points in a fresh array compute equal values
    field, rng = _random_field(31, _FIELDS[2])
    axes = _test_axes(field, rng)
    first = field.eval_grid(axes, (1, 2))
    field.eval_grid(axes, (0, 0))
    assert np.array_equal(field.eval_grid(axes, (1, 2)), first)
    assert np.array_equal(field.eval_grid([ax.copy() for ax in axes], (1, 2)), first)
    for f, ax in zip(field.basis.factors, axes):
        for got, want in zip(f.local_table(ax.copy()), f.local_table(ax)):
            assert np.array_equal(got, want)


def test_tables_are_read_only():
    basis = SplineBasis1D(0.0, 1.0, cells=6, degree=3, bc_order=2)
    vals, cols = basis.local_table(np.linspace(0.0, 1.0, 13))
    assert vals.shape == (13, 4, 4) and cols.shape == (13, 4)
    for array in (vals, cols):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1
    # the dropped functions are zeroed and their columns clamped into range
    assert np.all(vals[0, :, :2] == 0.0) and np.all(vals[-1, :, 2:] == 0.0)
    assert cols.min() == 0 and cols.max() == basis.dim - 1


def test_points_outside_the_domain_raise_on_every_call(monkeypatch):
    field, _ = _random_field(37, _FIELDS[1])
    calls = _counting_recursion(monkeypatch)
    outside = [np.array([0.0, 2.5])]
    for _ in range(2):
        with pytest.raises(ValueError, match="outside domain"):
            field.eval_grid(outside, (0,))
    assert calls == []
    field.eval_grid([np.array([0.0, 2.0])], (0,))
    assert calls == [2]


def test_eval_grid_peak_memory_is_a_few_outputs():
    # the l = 16, 32 cells/unit biharmonic field over its full Gauss grid, the
    # largest grid a biharmonic sweep evaluates; a dense (points, dim) basis
    # matrix per axis peaks at 11x the output here
    spec = builtin_problem("biharmonic_strip")
    basis = CrossSection(spec, 32).cylinder_basis(16.0)
    field = DiscreteField(basis, np.random.default_rng(5).standard_normal(basis.dims))
    axes, _ = _gauss_grid(basis.domain, 32, 3)
    tracemalloc.start()
    try:
        vals = field.eval_grid(axes, (1, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vals.shape == (3072, 96)
    assert peak <= 4 * vals.nbytes
