"""Difference-calculus oracles: exactness on monomials (bitwise for dyadic
spacings), the two discrete identities on random lattices, mean-value
containment, and the interior estimator's zero case and guard rails."""

import math

import numpy as np
import pytest

from cylasym import cli, harness
from cylasym.analysis import difference_field
from cylasym.fdcalc import LatticeError, interior_derivative_error, lattice_counts
from cylasym.harness import SweepPlan, run_sweep
from cylasym.multiindex import enumerate_upto
from cylasym.problem import builtin_problem, parse_problem_config
from cylasym.splines import DiscreteField, SplineBasis1D, TensorBasis

from lattice_identities import (
    GridSample,
    centred_estimate,
    delta_alpha,
    delta_k,
    leibniz_defect,
    mean_value_check,
    sample_function,
    summation_by_parts_defect,
)
from test_sweep_bytes import SIN_X1_CONFIG


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
    mid = delta_k(s, 0, centred=True)
    assert bwd.origin == (0.25,)
    assert fwd.origin == (0.0,)
    assert mid.origin == (0.125,)
    # same array of values, interpreted at shifted points; the centred one
    # is the derivative 2 x at its own points, exactly
    assert np.array_equal(fwd.values, bwd.values)
    assert np.array_equal(mid.values, fwd.values)
    assert np.array_equal(mid.values, 2.0 * (0.125 + 0.25 * np.arange(8)))


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


def _cross_field(seed=0):
    basis = TensorBasis([SplineBasis1D(0.0, 1.0, 8, 2, 1)])
    rng = np.random.default_rng(seed)
    return DiscreteField(basis, rng.standard_normal(basis.dims))


def _extension(cross: DiscreteField):
    """The constant axial extension of a cross-section field to (-2, 2),
    exact on the unconstrained axial splines, which sum to 1."""
    axial = SplineBasis1D(-2.0, 2.0, 16, 2, 0)
    coeffs = np.multiply.outer(np.ones(axial.dim), cross.coeffs)
    return DiscreteField(TensorBasis([axial, *cross.basis.factors]), coeffs)


def _estimate(w, alpha, region, h, m):
    (value,) = interior_derivative_error(w, 1, [alpha], region, h, m=m).values()
    return value


def test_interior_error_zero_for_exact_extension():
    u_inf = _cross_field()
    _, w = difference_field(_extension(u_inf), u_inf)
    region = ((-0.5, 0.5), (0.25, 0.75))
    alphas = [(0, 0), (1, 0), (0, 1)]
    errs = interior_derivative_error(w, 1, alphas, region, h=1.0 / 16, m=1)
    assert list(errs) == alphas
    assert all(err == 0.0 for err in errs.values())


def test_interior_error_positive_for_perturbed_field():
    u_inf = _cross_field()
    _, w = difference_field(_extension(_cross_field(seed=9)), u_inf)
    err = _estimate(w, (0, 1), ((-0.5, 0.5), (0.25, 0.75)), h=1.0 / 16, m=1)
    assert err > 0.01


def test_interior_error_order_is_the_m_it_is_given():
    # the difference field's axial factor is unconstrained (bc_order 0); the
    # order bound is the m passed, the cross-section's constraint order 1
    u_inf = _cross_field()
    _, w = difference_field(_extension(_cross_field(seed=9)), u_inf)
    assert w.basis.factors[0].bc_order == 0
    with pytest.raises(LatticeError, match="exceeds m = 1"):
        interior_derivative_error(w, 1, [(1, 1)], ((-0.5, 0.5), (0.25, 0.75)), h=1.0 / 16, m=1)


def test_interior_error_region_guards():
    u_inf = _cross_field()
    _, w = difference_field(_extension(u_inf), u_inf)
    strict = ((-0.5, 0.5), (0.25, 0.75))
    # the centred difference of (0, 1) reads h / 2 below the region on x2:
    # from x2 = 0 it leaves omega, from x2 = h / 2 it touches its boundary
    with pytest.raises(LatticeError, match="leaves the domain"):
        _estimate(w, (0, 1), ((-0.5, 0.5), (0.0, 0.75)), h=1.0 / 16, m=1)
    with pytest.raises(LatticeError, match="strictly interior"):
        _estimate(w, (0, 1), ((-0.5, 0.5), (0.03125, 0.75)), h=1.0 / 16, m=1)
    with pytest.raises(LatticeError, match="leaves the domain"):
        _estimate(w, (0, 1), ((-0.5, 0.5), (0.25, 1.0)), h=1.0 / 16, m=1)
    # alpha in N1 may touch the cross boundary
    err = _estimate(w, (1, 0), ((-0.5, 0.5), (0.0, 1.0)), h=1.0 / 16, m=1)
    assert err == 0.0
    with pytest.raises(LatticeError, match="leaves the domain"):
        _estimate(w, (1, 0), ((-2.5, 0.5), (0.25, 0.75)), h=1.0 / 16, m=1)
    with pytest.raises(LatticeError, match="exceeds m"):
        _estimate(w, (1, 1), strict, h=1.0 / 16, m=1)
    with pytest.raises(LatticeError, match="does not match"):
        _estimate(w, (1,), strict, h=1.0 / 16, m=1)
    for p in (0, 2):
        with pytest.raises(LatticeError, match="axial axes"):
            interior_derivative_error(w, p, [(0, 0)], strict, h=1.0 / 16, m=1)
    # in a set, every alpha is checked with its own inflation
    with pytest.raises(LatticeError, match="strictly interior"):
        interior_derivative_error(
            w, 1, [(1, 0), (0, 1)], ((-0.5, 0.5), (0.03125, 0.75)), h=1.0 / 16, m=1
        )
    with pytest.raises(LatticeError, match="leaves the domain"):
        interior_derivative_error(
            w, 1, [(0, 0), (1, 0)], ((-0.5, 2.0), (0.25, 0.75)), h=1.0 / 16, m=1
        )
    with pytest.raises(LatticeError, match="exceeds m"):
        interior_derivative_error(w, 1, [(0, 0), (2, 0)], strict, h=1.0 / 16, m=1)


@pytest.mark.parametrize("region,axis,count", [
    (((-0.02, 0.02), (0.49, 0.51)), 0, 1), (((-0.5, 0.5), (0.49, 0.51)), 1, 1),
    (((-0.5, 0.5), (0.75, 0.25)), 1, 0),
])
def test_an_axis_of_fewer_than_two_lattice_points_is_refused(region, axis, count):
    # one point weighs 1/2 in the trapezoid rule on its axis, so the estimate
    # would be neither the region's integral nor zero; an empty region has none
    domain = ((-2.0, 2.0), (0.0, 1.0))
    lo, hi = region[axis]
    with pytest.raises(LatticeError, match=rf"axis {axis} of the region, \[{lo:g}, {hi:g}\], "
                                           rf"holds {count} lattice points at spacing h = 0.0625"):
        lattice_counts(region, domain, [(0, 0)], 1.0 / 16, 1)
    assert lattice_counts(((-0.0625, 0.0625), (0.5, 0.5625)), domain, [(0, 0)], 1.0 / 16,
                          1) == [3, 2]


def test_a_sweep_whose_interior_axis_holds_one_point_exits_one(capsys):
    # margin 0.49 leaves (-0.02, 0.02) of x1 and (0.49, 0.51) of x2: one point
    # of the spacing 1/16 each, where err_H2m_interior read 2.11e-4,
    # 1.49e-4 and 9.94e-5 at 8, 16 and 24 cells/unit, against 7.3e-3 at
    # margin 0.25; the plan refuses the sweep before any work
    code = cli.main(["sweep", "--problem", "poisson_strip", "--l", "2",
                     "--cells-per-unit", "8", "--interior-margin", "0.49"])
    err = capsys.readouterr().err
    assert code == 1
    assert "problem poisson_strip: " in err
    assert "at resolution 8 and interior margin 0.49 is refused" in err
    assert "holds 1 lattice points" in err


def _cylinder_difference(seed=3):
    """u_l - ext(u_inf) for random cylinder and cross-section fields."""
    rng = np.random.default_rng(seed)
    cross = TensorBasis([SplineBasis1D(0.0, 1.0, 8, 3, 2)])
    full = TensorBasis([SplineBasis1D(-2.0, 2.0, 16, 3, 2), SplineBasis1D(0.0, 1.0, 8, 3, 2)])
    u_l = DiscreteField(full, rng.standard_normal(full.dims))
    _, w = difference_field(u_l, DiscreteField(cross, rng.standard_normal(cross.dims)))
    return w


@pytest.mark.parametrize(
    "region,keep",
    [
        (((-0.5, 0.5), (0.25, 0.75)), lambda alpha: True),
        (((-1.0, 1.0), (0.0, 1.0)), lambda alpha: alpha[1] == 0),
    ],
)
def test_interior_error_set_matches_each_alpha_alone(region, keep):
    w = _cylinder_difference()
    alphas = [a for a in enumerate_upto(2, 2) if keep(a)]
    together = interior_derivative_error(w, 1, alphas[::-1], region, 1.0 / 16, m=2)
    assert list(together) == alphas[::-1]
    for alpha in alphas:
        alone = _estimate(w, alpha, region, 1.0 / 16, m=2)
        assert alone > 0.0 and together[alpha] == alone


def test_the_interior_estimate_settles_under_refinement():
    # the Poisson strip with a_1_0_1_0 = 2 + sin(x1), l = 2, at 8, 16 and
    # 32 cells per unit: err_H2m_interior read 3.393171e-2, 3.394274e-2
    # and 3.394649e-2, successive changes of 1.10e-5 and 3.74e-6 (3.3e-4
    # and 1.1e-4 relative).  Forward differences, which stand for the
    # derivative half a step away, read 3.429782e-2, 3.409718e-2 and
    # 3.401706e-2: changes of 2.0e-4 and 8.0e-5
    spec = parse_problem_config(SIN_X1_CONFIG, "strip")
    values = [run_sweep(SweepPlan(spec=spec, ells=(2.0,), resolution=r)).records[0]
              .err_H2m_interior for r in (8, 16, 32)]
    changes = [abs(b - a) for a, b in zip(values, values[1:])]
    assert changes[0] <= 1.25 * 1.10e-5 and changes[1] <= 1.25 * 3.74e-6, changes


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


BOX3D_CONFIG = (
    "[problem]\nm = 1\nn = 3\np = 1\nomega = 0,1;0,1\n\n[coef]\n"
    "a_1_0_0_1_0_0 = 1\na_0_1_0_0_1_0 = 1\na_0_0_1_0_0_1 = 1\n\n[forcing]\n"
    "f = sin(3.141592653589793 * x2) * sin(3.141592653589793 * x3)\n"
)


@pytest.mark.parametrize("spec,resolution", [
    (builtin_problem("biharmonic_strip"), 8),
    (parse_problem_config(BOX3D_CONFIG, "box3d"), 4),
], ids=["biharmonic", "box3d"])
def test_the_sweep_estimates_equal_centred_delta_alpha(monkeypatch, spec, resolution):
    # every alpha set the sweep passes the estimator: |alpha| <= m on the
    # interior region, and N1 on the inner cylinder, on the sweep's own
    # difference fields, against the centred delta_alpha of the field's
    # values, sampled by eval_grid; the lattice matrices difference the
    # basis, not the values, so the two round apart: measured relative gaps
    # at most 1.4e-15 (biharmonic) and 2.0e-16 (box3d)
    calls = []

    def recorded(w, p, alphas, region, h, m):
        out = interior_derivative_error(w, p, alphas, region, h, m=m)
        calls.append((w, p, region, h, m, out))
        return out

    monkeypatch.setattr(harness, "interior_derivative_error", recorded)
    run_sweep(SweepPlan(spec=spec, ells=(2.0, 4.0), resolution=resolution))
    monkeypatch.undo()
    n1 = [a for a in enumerate_upto(spec.n, spec.m) if not any(a[spec.p:])]
    assert [list(out) for *_, out in calls] == [enumerate_upto(spec.n, spec.m), n1] * 2
    gaps = []
    for w, p, region, h, m, out in calls:
        for alpha, value in out.items():
            reference = centred_estimate(w, p, alpha, region, h, m)
            assert value > 0.0
            gaps.append(abs(value - reference) / reference)
    assert max(gaps) <= 1e-14
