"""Difference-calculus oracles: exactness on monomials (bitwise for dyadic
spacings), the two discrete identities on random lattices, mean-value
containment, and the interior estimator's zero case and guard rails."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from cylasym.fdcalc import (
    GridSample,
    LatticeError,
    delta_alpha,
    delta_k,
    interior_derivative_error,
    leibniz_defect,
    mean_value_check,
    sample_function,
    summation_by_parts_defect,
)
from cylasym.splines import DiscreteField, SplineBasis1D, TensorBasis


def _grid_1d(fn, lo, h, count):
    x = lo + h * np.arange(count)
    return GridSample((lo,), (h,), fn(x))


def test_delta_k_quadratic_example():
    s = _grid_1d(lambda x: x**2, 0.0, 0.1, 21)
    d = delta_k(s, 0)
    # (1.21 - 1) / 0.1 at x = 1, lattice index 10
    assert abs(d.values[10] - 2.1) <= 1e-13
    assert d.values.shape == (20,)
    assert d.origin == (0.0,)


def test_delta_k_constant_and_linear():
    c = _grid_1d(lambda x: np.full_like(x, 3.5), 0.0, 0.25, 9)
    assert np.array_equal(delta_k(c, 0).values, np.zeros(8))
    lin = _grid_1d(lambda x: 2.0 * x, -1.0, 0.25, 9)
    assert np.array_equal(delta_k(lin, 0).values, np.full(8, 2.0))


def test_delta_k_backward_shifts_origin():
    s = _grid_1d(lambda x: x**2, 0.0, 0.25, 9)
    fwd = delta_k(s, 0)
    bwd = delta_k(s, 0, backward=True)
    assert bwd.origin == (0.25,)
    assert fwd.origin == (0.0,)
    # same array of values, interpreted at shifted points
    assert np.array_equal(fwd.values, bwd.values)


def test_delta_alpha_monomial_cases():
    x = 0.5 * np.arange(8)
    y = 0.5 * np.arange(6)
    X, Y = np.meshgrid(x, y, indexing="ij")
    sq = GridSample((0.0, 0.0), (0.5, 0.5), X**2)
    assert np.array_equal(delta_alpha(sq, (2, 0)).values, np.full((6, 6), 2.0))
    xy = GridSample((0.0, 0.0), (0.5, 0.5), X * Y)
    assert np.array_equal(delta_alpha(xy, (1, 1)).values, np.ones((7, 5)))
    cube = _grid_1d(lambda t: t**3, 0.0, 0.25, 9)
    assert np.array_equal(delta_alpha(cube, (3,)).values, np.full(6, 6.0))


@pytest.mark.parametrize("h", [1.0, 0.5, 0.1])
@pytest.mark.parametrize("alpha", [(1,), (2,), (3,)])
def test_exact_on_matching_monomial(alpha, h):
    # delta^a of x^a is a! for any spacing
    k = alpha[0]
    s = _grid_1d(lambda t: t**k, 0.0, h, k + 5)
    got = delta_alpha(s, alpha).values
    assert np.allclose(got, math.factorial(k), rtol=1e-12, atol=0)


def test_commutation_exact_when_axis_order_aligns():
    rng = np.random.default_rng(3)
    s = GridSample((0.0, 0.0), (0.5, 0.25), rng.standard_normal((10, 10)))
    # second call touches no earlier axis than the first finished with
    a1 = delta_alpha(delta_alpha(s, (1, 1)), (0, 2))
    a2 = delta_alpha(s, (1, 3))
    assert np.array_equal(a1.values, a2.values)
    b1 = delta_alpha(delta_alpha(s, (2, 0)), (1, 1))
    b2 = delta_alpha(s, (3, 1))
    assert np.array_equal(b1.values, b2.values)


def test_commutation_close_in_general():
    # cross-axis reordering regroups the divisions, so only near-equality holds
    rng = np.random.default_rng(4)
    s = GridSample((0.0, 0.0), (0.5, 0.25), rng.standard_normal((10, 10)))
    c1 = delta_alpha(delta_alpha(s, (0, 1)), (1, 0))
    c2 = delta_alpha(s, (1, 1))
    scale = np.abs(c2.values).max()
    assert np.abs(c1.values - c2.values).max() <= 1e-12 * scale


def test_insufficient_extent_errors():
    s = _grid_1d(lambda x: x, 0.0, 0.5, 3)
    with pytest.raises(LatticeError, match="extent"):
        delta_alpha(s, (3,))
    tiny = GridSample((0.0,), (1.0,), np.array([1.0]))
    with pytest.raises(LatticeError):
        delta_k(tiny, 0)


def _eta_with_margin(rng, shape, margin):
    eta = np.zeros(shape)
    inner = tuple(slice(margin, s - margin) for s in shape)
    eta[inner] = rng.standard_normal(tuple(s - 2 * margin for s in shape))
    return eta


def test_summation_by_parts_zero_eta():
    f = GridSample((0.0,), (0.25,), np.arange(12.0))
    eta = GridSample((0.0,), (0.25,), np.zeros(12))
    assert summation_by_parts_defect(f, eta, (1,)) == 0.0


def test_summation_by_parts_margin_error():
    rng = np.random.default_rng(0)
    f = GridSample((0.0, 0.0), (0.25, 0.25), rng.standard_normal((12, 12)))
    eta = GridSample((0.0, 0.0), (0.25, 0.25), rng.standard_normal((12, 12)))
    with pytest.raises(LatticeError, match="margin"):
        summation_by_parts_defect(f, eta, (2, 1))


def test_summation_by_parts_two_one():
    rng = np.random.default_rng(1)
    h = (0.25, 0.5)
    f = GridSample((0.0, 0.0), h, rng.standard_normal((12, 12)))
    eta = GridSample((0.0, 0.0), h, _eta_with_margin(rng, (12, 12), 3))
    defect = summation_by_parts_defect(f, eta, (2, 1))
    volume = (11 * h[0]) * (11 * h[1])
    scale = np.abs(f.values).max() * np.abs(eta.values).max() * volume
    assert defect <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(10))
def test_summation_by_parts_random_lattices(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    alpha = tuple(int(v) for v in rng.integers(0, 4, size=n))
    if sum(alpha) == 0:
        alpha = (1,) * n
    while sum(alpha) > 3:
        alpha = tuple(max(0, a - 1) for a in alpha)
    margin = sum(alpha)
    shape = tuple(int(rng.integers(2 * margin + max(alpha) + 2, 17)) for _ in range(n))
    h = tuple(float(rng.uniform(0.2, 0.5)) for _ in range(n))
    f = GridSample((0.0,) * n, h, rng.standard_normal(shape))
    eta = GridSample((0.0,) * n, h, _eta_with_margin(rng, shape, margin))
    defect = summation_by_parts_defect(f, eta, alpha)
    volume = float(np.prod([(s - 1) * hk for s, hk in zip(shape, h)]))
    scale = np.abs(f.values).max() * np.abs(eta.values).max() * volume
    assert defect <= 1e-12 * max(scale, 1e-30)


def test_leibniz_linear_exact():
    s = _grid_1d(lambda x: x, 0.0, 0.5, 10)
    assert leibniz_defect(s, s, (2,)) <= 1e-13


def test_leibniz_alpha_zero():
    rng = np.random.default_rng(2)
    f = GridSample((0.0,), (0.5,), rng.standard_normal(8))
    g = GridSample((0.0,), (0.5,), rng.standard_normal(8))
    assert leibniz_defect(f, g, (0,)) == 0.0


def test_leibniz_random_10x10():
    rng = np.random.default_rng(5)
    f = GridSample((0.0, 0.0), (0.25, 0.25), rng.standard_normal((10, 10)))
    g = GridSample((0.0, 0.0), (0.25, 0.25), rng.standard_normal((10, 10)))
    defect = leibniz_defect(f, g, (1, 1))
    scale = np.abs(f.values).max() * np.abs(g.values).max() / 0.25**2
    assert defect <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(10))
def test_leibniz_random_lattices(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 3))
    alpha = tuple(int(v) for v in rng.integers(0, 4, size=n))
    while sum(alpha) > 3:
        alpha = tuple(max(0, a - 1) for a in alpha)
    shape = tuple(int(rng.integers(sum(alpha) + 2, 14)) for _ in range(n))
    h = tuple(float(rng.uniform(0.2, 0.5)) for _ in range(n))
    f = GridSample((0.0,) * n, h, rng.standard_normal(shape))
    g = GridSample((0.0,) * n, h, rng.standard_normal(shape))
    defect = leibniz_defect(f, g, alpha)
    scale = (
        np.abs(f.values).max()
        * np.abs(g.values).max()
        / min(h) ** max(1, sum(alpha))
    )
    assert defect <= 1e-12 * scale


def test_mean_value_cubic():
    value, (lo, hi) = mean_value_check(
        lambda c: c[0] ** 3, lambda c: 6.0 * c[0], x=(0.0,), alpha=(2,), h=0.5
    )
    assert value == 3.0
    assert (lo, hi) == (0.0, 6.0)
    assert lo <= value <= hi


def test_mean_value_linear_exact():
    value, (lo, hi) = mean_value_check(
        lambda c: 2.5 * c[0] - 1.0, lambda c: np.full_like(c[0], 2.5),
        x=(0.3,), alpha=(1,), h=0.2,
    )
    assert abs(value - 2.5) <= 1e-13
    assert lo <= value <= hi


def test_mean_value_sine_refines_to_cosine():
    errs = []
    for h in (0.2, 0.1, 0.05):
        value, (lo, hi) = mean_value_check(
            lambda c: np.sin(c[0]), lambda c: np.cos(c[0]), x=(0.3,), alpha=(1,), h=h
        )
        assert lo <= value <= hi
        errs.append(abs(value - math.cos(0.3)))
    assert errs[2] < errs[1] < errs[0]


def test_mean_value_2d_containment():
    # D^(2,1) of x^2 y is the constant 2: the range degenerates to a point,
    # so containment is checked with a one-ulp cushion
    value, (lo, hi) = mean_value_check(
        lambda c: c[0] ** 2 * c[1],
        lambda c: 2.0 * np.ones_like(c[0]),
        x=(0.1, 0.4),
        alpha=(2, 1),
        h=0.25,
    )
    assert lo - 1e-12 <= value <= hi + 1e-12
    assert abs(value - 2.0) <= 1e-12


class _Extension:
    """Duck-typed cylinder field equal to the constant axial extension of a
    cross-section field; lets the zero case of the estimator be exact."""

    def __init__(self, cross: DiscreteField, axial_extent, p):
        self._cross = cross
        self._p = p
        factors = tuple(
            SimpleNamespace(lo=lo, hi=hi, bc_order=cross.basis.factors[0].bc_order)
            for (lo, hi) in ([axial_extent] * p + list(cross.basis.domain))
        )
        self.basis = SimpleNamespace(
            naxes=p + cross.basis.naxes,
            factors=factors,
            domain=tuple((f.lo, f.hi) for f in factors),
        )

    def eval_grid(self, axes, alpha):
        shape = tuple(len(a) for a in axes)
        if any(a > 0 for a in alpha[: self._p]):
            return np.zeros(shape)
        vals = self._cross.eval_grid(axes[self._p :], alpha[self._p :])
        return np.broadcast_to(vals.reshape((1,) * self._p + vals.shape), shape).copy()


def _cross_field(seed=0):
    basis = TensorBasis([SplineBasis1D(0.0, 1.0, 8, 2, 1)])
    rng = np.random.default_rng(seed)
    return DiscreteField(basis, rng.standard_normal(basis.dims))


def test_interior_error_zero_for_exact_extension():
    u_inf = _cross_field()
    u_l = _Extension(u_inf, (-2.0, 2.0), p=1)
    region = ((-0.5, 0.5), (0.25, 0.75))
    for alpha in [(0, 0), (1, 0), (0, 1)]:
        err = interior_derivative_error(u_l, u_inf, alpha, region, h=1.0 / 16, m=1)
        assert err == 0.0


def test_interior_error_positive_for_perturbed_field():
    u_inf = _cross_field()
    u_l = _Extension(_cross_field(seed=9), (-2.0, 2.0), p=1)
    err = interior_derivative_error(
        u_l, u_inf, (0, 1), ((-0.5, 0.5), (0.25, 0.75)), h=1.0 / 16, m=1
    )
    assert err > 0.01


def test_interior_error_region_guards():
    u_inf = _cross_field()
    u_l = _Extension(u_inf, (-2.0, 2.0), p=1)
    with pytest.raises(LatticeError, match="strictly interior"):
        interior_derivative_error(
            u_l, u_inf, (0, 1), ((-0.5, 0.5), (0.0, 0.75)), h=1.0 / 16, m=1
        )
    with pytest.raises(LatticeError, match="leaves the domain"):
        interior_derivative_error(
            u_l, u_inf, (0, 1), ((-0.5, 0.5), (0.25, 1.0)), h=1.0 / 16, m=1
        )
    # alpha in N1 may touch the cross boundary
    err = interior_derivative_error(
        u_l, u_inf, (1, 0), ((-0.5, 0.5), (0.0, 1.0)), h=1.0 / 16, m=1
    )
    assert err == 0.0
    with pytest.raises(LatticeError, match="leaves the domain"):
        interior_derivative_error(
            u_l, u_inf, (1, 0), ((-2.5, 0.5), (0.25, 0.75)), h=1.0 / 16, m=1
        )
    with pytest.raises(LatticeError, match="exceeds m"):
        interior_derivative_error(
            u_l, u_inf, (1, 1), ((-0.5, 0.5), (0.25, 0.75)), h=1.0 / 16, m=1
        )


def test_sample_function_lattice():
    s = sample_function(
        lambda c: c[0] + 10.0 * c[1], ((0.0, 1.0), (0.0, 0.5)), (0.25, 0.25)
    )
    assert s.values.shape == (5, 3)
    assert s.box == ((0.0, 1.0), (0.0, 0.5))
    assert s.values[0, 0] == 0.0 and s.values[4, 2] == 6.0


def test_gridsample_validation():
    with pytest.raises(LatticeError, match="spacing"):
        GridSample((0.0,), (0.0,), np.zeros(3))
    with pytest.raises(LatticeError, match="axes"):
        GridSample((0.0,), (0.5, 0.5), np.zeros((3, 3)))
