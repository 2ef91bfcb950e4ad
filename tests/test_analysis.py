"""Norm oracles, cutoff profile, rate fitting, and report serialization."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from dense_oracle import (
    CutoffEvaluator,
    DifferenceEvaluator,
    ExtensionEvaluator,
    ProductEvaluator,
    cutoff_derivative_bound,
    dense_basis_matrix,
    galerkin_interior_residual,
    kron_parts_per_alpha,
    polynomial_cutoff_profile,
)
from lattice_identities import multi_binom, sub, sub_indices

from cylasym import analysis
from cylasym.analysis import (
    CSV_HEADER,
    FLOOR,
    ConvergenceReport,
    CutoffRho,
    ErrorRecord,
    difference_field,
    error_Hm,
    fit_rate,
    lemma19_check,
    localized_energy,
    norm_Hm,
    write_report_csv,
    write_report_json,
    write_refinement_csv,
    _gauss_grid,
    _kron_parts,
)
from cylasym.multiindex import enumerate_upto
from cylasym.problem import HypothesisReport, builtin_problem
from cylasym.splines import (
    DiscreteField,
    SplineBasis1D,
    TensorBasis,
    cells_for,
    composite_gauss,
)


class _Analytic:
    """Evaluator built from fn(grids, alpha) on the meshgrid of the axes."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, axes, alpha):
        grids = np.meshgrid(*[np.asarray(a, dtype=np.float64) for a in axes], indexing="ij")
        return np.broadcast_to(
            np.asarray(self._fn(grids, tuple(alpha)), dtype=np.float64),
            grids[0].shape,
        )


class _FakeField:
    """DiscreteField stand-in: analytic values on a declared tensor domain."""

    def __init__(self, domain, fn, degree=2):
        self.basis = SimpleNamespace(
            naxes=len(domain),
            domain=tuple(domain),
            factors=tuple(SimpleNamespace(degree=degree) for _ in domain),
        )
        self._eval = _Analytic(fn)

    def eval_grid(self, axes, alpha):
        return np.array(self._eval(axes, alpha))


def _bubble(grids, alpha):
    # t(1-t)/2 in the last coordinate only
    t = grids[-1]
    k = alpha[-1]
    if any(a > 0 for a in alpha[:-1]):
        return np.zeros_like(t)
    if k == 0:
        return t * (1.0 - t) / 2.0
    if k == 1:
        return (1.0 - 2.0 * t) / 2.0
    if k == 2:
        return np.full_like(t, -1.0)
    return np.zeros_like(t)


def _fit(factor, fn):
    """Coefficients of fn (a function of one coordinate in the factor's
    space) by least squares at the factor's Gauss points: exact up to
    roundoff."""
    pts, _ = composite_gauss((factor.lo, factor.hi), factor.cells, factor.degree + 1)
    return np.linalg.lstsq(dense_basis_matrix(factor, pts), fn(pts), rcond=None)[0]


def _spline_pair(ell, axial_terms, cross_fn, resolution=4, cross_bc=0):
    """(u_l, u_inf) on (-ell, ell) x (0, 1) and (0, 1), degree 2, the axial
    factor unconstrained: u_l is the sum of the outer products of the
    axial_terms pairs (axial fn, cross fn), u_inf is cross_fn."""
    axial = SplineBasis1D(-ell, ell, cells_for((-ell, ell), resolution), 2, 0)
    cross = SplineBasis1D(0.0, 1.0, resolution, 2, cross_bc)
    coeffs = sum(np.multiply.outer(_fit(axial, f), _fit(cross, g)) for f, g in axial_terms)
    return (DiscreteField(TensorBasis([axial, cross]), coeffs),
            DiscreteField(TensorBasis([cross]), _fit(cross, cross_fn)))


def _bubble1(t):
    return t * (1.0 - t) / 2.0


def _one(x):
    return np.ones_like(x)


# ------------------------------------------------------------------ norms


def test_norm_L2_of_bubble_matches_closed_form():
    val = norm_Hm(_Analytic(_bubble), [(0.0, 1.0)], m=0, resolution=4)
    assert abs(val - math.sqrt(1.0 / 120.0)) <= 1e-15
    assert abs(val - 0.09128709291752768) <= 1e-15


def test_norm_H1_of_bubble_matches_closed_form():
    # integral of u^2 is 1/120, of (u')^2 is 1/12: total 11/120
    val = norm_Hm(_Analytic(_bubble), [(0.0, 1.0)], m=1, resolution=4)
    assert abs(val - math.sqrt(11.0 / 120.0)) <= 1e-15
    assert abs(val - 0.3027650354097492) <= 1e-15


def test_norm_orders_are_nested():
    vals = [
        norm_Hm(_Analytic(_bubble), [(0.0, 1.0)], m=m, resolution=8) for m in (0, 1, 2)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_norm_rejects_bad_inputs():
    with pytest.raises(ValueError, match="nonnegative"):
        norm_Hm(_Analytic(_bubble), [(0.0, 1.0)], m=-1, resolution=4)
    with pytest.raises(ValueError, match="empty box"):
        norm_Hm(_Analytic(_bubble), [(1.0, 0.0)], m=0, resolution=4)


def test_error_Hm_vanishes_for_exact_extension():
    u_l, u_inf = _spline_pair(2.0, [(_one, _bubble1)], _bubble1, cross_bc=1)
    err_L2, err_Hm = error_Hm(*difference_field(u_l, u_inf), ell0=1.0, m=1, resolution=8)
    assert err_L2 <= err_Hm <= 1e-14


def test_error_Hm_linear_defect_hand_value():
    # u_l - ext(u_inf) = x1: L2^2 over (-1,1)x(0,1) is 2/3, H1 adds 2
    u_l, u_inf = _spline_pair(2.0, [(_one, _bubble1), (lambda x: x, _one)], _bubble1)
    e0, e1 = error_Hm(*difference_field(u_l, u_inf), ell0=1.0, m=1, resolution=4)
    assert abs(e0 - math.sqrt(2.0 / 3.0)) <= 1e-14
    assert abs(e1 - math.sqrt(2.0 / 3.0 + 2.0)) <= 1e-14


def test_error_Hm_rejects_inner_box_outside_domain():
    u_l, u_inf = _spline_pair(2.0, [(_one, _bubble1)], _bubble1)
    with pytest.raises(ValueError, match="exceeds the domain"):
        error_Hm(*difference_field(u_l, u_inf), ell0=3.0, m=1, resolution=4)


def test_extension_norm_ratio_is_sqrt_two():
    # ||ext u||_{H^m((-l,l) x omega)} = (2l)^{1/2} ||u||_{H^m(omega)}
    u_inf = _FakeField([(0.0, 1.0)], _bubble)
    cross = norm_Hm(_Analytic(_bubble), [(0.0, 1.0)], m=1, resolution=4)
    for ell in (2.0, 4.0):
        ext = ExtensionEvaluator(u_inf, p=1)
        full = norm_Hm(ext, [(-ell, ell), (0.0, 1.0)], m=1, resolution=4)
        ratio = full / (math.sqrt(ell) * cross)
        assert abs(ratio - math.sqrt(2.0)) <= 1e-12


# ------------------------------------------------------------------ lemma19


def _record(ell, ratio):
    return ErrorRecord(
        ell=ell,
        dofs=10,
        err_L2=0.5,
        err_Hm=1.0,
        err_H2m_interior=1.0,
        norm_ul_Hm_full=ratio,
        lemma19_ratio=ratio,
        solver_residual=1e-13,
        wall_time_s=0.0,
    )


def test_lemma19_check_bounded_sequence_passes():
    records = [_record(2.0, 1.0), _record(4.0, 1.1), _record(8.0, 1.2)]
    max_ratio, ok = lemma19_check(records)
    assert max_ratio == 1.2
    assert ok


def test_lemma19_check_growth_fails():
    records = [_record(2.0, 1.0), _record(4.0, 2.0), _record(8.0, 3.5)]
    max_ratio, ok = lemma19_check(records)
    assert max_ratio == 3.5
    assert not ok


# ------------------------------------------------------------------ cutoff


def test_cutoff_plateau_and_support():
    rho = CutoffRho(1)
    assert np.array_equal(rho.profile([0.0, 0.3, -0.5, 0.5]), np.ones(4))
    assert np.array_equal(rho.profile([1.0, -1.0, 1.7]), np.zeros(3))


def test_cutoff_midpoint_is_half():
    for m in (1, 2, 3):
        rho = CutoffRho(m)
        assert abs(float(rho.profile(0.75)) - 0.5) <= 1e-14
        assert abs(float(rho.profile(-0.75)) - 0.5) <= 1e-14


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cutoff_profile_is_the_polynomial_bridge_bit_for_bit(m):
    # the plateau, both bridges, both joints, outside, and a derivative
    # order past the bridge's degree
    t = np.concatenate([np.linspace(-1.25, 1.25, 2001), [-0.5, 0.5, -1.0, 1.0, 0.75 + 1e-13]])
    rho = CutoffRho(m)
    for der in range(2 * m + 3):
        got, want = rho.profile(t, der), polynomial_cutoff_profile(m, t, der)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), der


def test_cutoff_bridge_monotone_and_smooth():
    rho = CutoffRho(2)
    t = np.linspace(0.5, 1.0, 101)
    vals = rho.profile(t)
    assert np.all(np.diff(vals) <= 0.0)
    # m derivatives vanish approaching both joints like (2 eps)^(m+1-der)
    eps = 1e-5
    for der in (1, 2):
        bound = 1e3 * (2.0 * eps) ** (2 + 1 - der)
        assert abs(float(rho.profile(0.5 + eps, der))) <= bound
        assert abs(float(rho.profile(1.0 - eps, der))) <= bound


def test_cutoff_first_derivative_hand_value():
    # m = 1 bridge is 1 - S(2t-1) with S = 3s^2 - 2s^3; rho'(3/4) = -2 S'(1/2) = -3
    rho = CutoffRho(1)
    assert abs(float(rho.profile(0.75, 1)) + 3.0) <= 1e-14
    assert abs(float(rho.profile(-0.75, 1)) - 3.0) <= 1e-14
    assert abs(cutoff_derivative_bound(rho, 1) - 3.0) <= 1e-14


def test_cutoff_evaluator_applies_chain_rule():
    # rho((x - c) / w) at (x - c) / w = 3/4: value 1/2, derivative -3 / w
    ev = CutoffEvaluator(CutoffRho(1), [(0.0, 2.0)])
    assert abs(float(ev([np.array([1.5])], (1,))[0]) + 1.5) <= 1e-14
    assert abs(float(ev([np.array([1.5])], (0,))[0]) - 0.5) <= 1e-15
    shifted = CutoffEvaluator(CutoffRho(1), [(1.0, 0.5)])
    assert abs(float(shifted([np.array([1.375])], (1,))[0]) + 6.0) <= 1e-13
    with pytest.raises(ValueError, match="width must be positive"):
        CutoffEvaluator(CutoffRho(1), [(0.0, 0.0)])


def test_cutoff_evaluator_cross_derivatives_vanish():
    ev = CutoffEvaluator(CutoffRho(1), [(0.0, 2.0), None])
    axes = [np.linspace(-2.0, 2.0, 9), np.linspace(0.0, 1.0, 5)]
    assert np.array_equal(ev(axes, (0, 1)), np.zeros((9, 5)))
    vals = ev(axes, (0, 0))
    assert vals.shape == (9, 5)
    assert np.array_equal(vals[:, 0], vals[:, -1])


def test_product_evaluator_matches_leibniz_by_hand():
    f = _Analytic(lambda g, a: {0: g[0] ** 2, 1: 2 * g[0], 2: 2 * np.ones_like(g[0])}.get(a[0], np.zeros_like(g[0])))
    g = _Analytic(lambda gr, a: {0: gr[0] ** 3, 1: 3 * gr[0] ** 2, 2: 6 * gr[0]}.get(a[0], np.zeros_like(gr[0])))
    prod = ProductEvaluator(f, g)
    t = np.linspace(-1.0, 1.0, 7)
    got = prod([t], (2,))
    assert np.allclose(got, 20.0 * t**3, atol=1e-12)


def test_product_evaluator_evaluates_each_left_derivative_once_per_grid():
    calls = []
    wave = _Analytic(lambda g, a: np.sin(g[0] + 2.0 * g[1]) * (1.0 + sum(a)))

    def left(axes, alpha):
        calls.append(tuple(alpha))
        return wave(axes, alpha)

    right = CutoffEvaluator(CutoffRho(2), [(0.0, 2.0), None])
    prod = ProductEvaluator(left, right)
    axes, _ = _gauss_grid([(-2.0, 2.0), (0.0, 1.0)], 4, 3)
    alphas = enumerate_upto(2, 2)
    got = [prod(axes, alpha) for alpha in alphas]
    # 15 (alpha, beta <= alpha) pairs, 6 distinct betas
    assert sorted(calls) == sorted(alphas)
    for alpha, vals in zip(alphas, got):
        want = np.zeros_like(vals)
        for beta in sub_indices(alpha):
            want += (
                multi_binom(alpha, beta) * wave(axes, beta) * right(axes, sub(alpha, beta))
            )
        assert np.array_equal(vals, want), alpha
    # a new grid is evaluated afresh, even with equal points
    prod([ax.copy() for ax in axes], (1, 0))
    assert len(calls) == len(alphas) + 2
    assert norm_Hm(prod, [(-2.0, 2.0), (0.0, 1.0)], 2, 4) > 0.0
    assert len(calls) == 2 * len(alphas) + 2


# ------------------------------------------------------------------ localized energy


def test_localized_energy_vanishes_for_exact_extension():
    u_l, u_inf = _spline_pair(4.0, [(_one, _bubble1)], _bubble1, cross_bc=1)
    assert localized_energy(*difference_field(u_l, u_inf), ell1=2.0, m=1, resolution=4) <= 1e-14


def test_localized_energy_matches_dense_trapezoid():
    # w = x1 (cross-independent), m = 1: the energy reduces to a 1D integral
    u_l, u_inf = _spline_pair(4.0, [(lambda x: x, _one)], np.zeros_like, resolution=16)
    ell1 = 2.0
    got = localized_energy(*difference_field(u_l, u_inf), ell1=ell1, m=1, resolution=16)

    rho = CutoffRho(1)
    x = np.linspace(-ell1, ell1, 400001)
    r = rho.profile(x / ell1)
    dr = rho.profile(x / ell1, 1) / ell1
    integrand = (x * r) ** 2 + (r + x * dr) ** 2
    expected = math.sqrt(np.trapezoid(integrand, x))
    assert abs(got - expected) <= 1e-6 * expected


def test_localized_energy_rejects_oversized_scale():
    u_l, u_inf = _spline_pair(2.0, [(_one, _bubble1)], _bubble1)
    with pytest.raises(ValueError, match="exceeds the axial half-length"):
        localized_energy(*difference_field(u_l, u_inf), ell1=3.0, m=1, resolution=4)


# ------------------------------------------------------------------ Kronecker forms


# (m, degree, p, n, ell, resolution): at l = 2.3 and 5 cells/unit the edges
# of the inner box (-1, 1) and of the cutoff box (-1.15, 1.15) cut cells
_FORM_CASES = [
    (1, 2, 1, 2, 2.3, 5),
    (2, 3, 1, 2, 2.3, 5),
    (1, 2, 1, 3, 2.0, 4),
    (1, 2, 2, 3, 2.3, 5),
]


def _random_pair(m, degree, p, n, ell, resolution, seed=0):
    """(u_l, u_inf) with random coefficients on the constrained spaces of
    (-ell, ell)^p x (0, 1)^(n - p) and (0, 1)^(n - p)."""
    rng = np.random.default_rng(seed)

    def factor(lo, hi):
        return SplineBasis1D(lo, hi, cells_for((lo, hi), resolution), degree, m)

    cross = [factor(0.0, 1.0) for _ in range(n - p)]
    basis = TensorBasis([factor(-ell, ell) for _ in range(p)] + cross)
    u_inf = DiscreteField(TensorBasis(cross), rng.standard_normal(TensorBasis(cross).dims))
    return DiscreteField(basis, rng.standard_normal(basis.dims)), u_inf


@pytest.mark.parametrize("m,degree,p,n,ell,resolution", _FORM_CASES)
def test_kronecker_norms_match_the_grid_oracle(m, degree, p, n, ell, resolution):
    u_l, u_inf = _random_pair(m, degree, p, n, ell, resolution)
    omega = list(u_inf.basis.domain)
    diff = DifferenceEvaluator(u_l.eval_grid, ExtensionEvaluator(u_inf, p))
    inner = [(-1.0, 1.0)] * p + omega
    ell1 = ell / 2.0
    rho = CutoffEvaluator(CutoffRho(m), [(0.0, ell1)] * p + [None] * (n - p))
    errs = error_Hm(*difference_field(u_l, u_inf), 1.0, m, resolution)
    pairs = [(err, norm_Hm(diff, inner, k, resolution)) for err, k in zip(errs, (0, m))]
    pairs.append((
        localized_energy(*difference_field(u_l, u_inf), ell1, m, resolution),
        norm_Hm(ProductEvaluator(diff, rho), [(-ell1, ell1)] * p + omega, m, resolution),
    ))
    for u, box in ((u_l, u_l.basis.domain), (u_l, inner), (u_inf, omega)):
        pairs.append((norm_Hm(u, box, m, resolution), norm_Hm(u.eval_grid, box, m, resolution)))
    pairs.append((
        norm_Hm(u_l, inner, m, resolution, points_per_cell=4),
        norm_Hm(u_l.eval_grid, inner, m, resolution, points_per_cell=4),
    ))
    for got, want in pairs:
        assert abs(got - want) <= 1e-12 * want


def test_kronecker_norm_refuses_bad_boxes_and_orders():
    u_l, u_inf = _random_pair(1, 2, 1, 2, 2.0, 4)
    with pytest.raises(ValueError, match="box has 1 axes"):
        norm_Hm(u_l, [(-1.0, 1.0)], 1, 4)
    with pytest.raises(ValueError, match="exceeds degree"):
        norm_Hm(u_l, u_l.basis.domain, 3, 4)
    with pytest.raises(ValueError, match="outside domain"):
        norm_Hm(u_inf, [(0.0, 2.0)], 1, 4)


@pytest.mark.parametrize("m,degree,n", [(1, 2, 3), (2, 3, 2)])
def test_kron_parts_share_the_bands_of_a_common_prefix(monkeypatch, m, degree, n):
    # the alphas that share a prefix (alpha_1..alpha_k) share its k band
    # applications: 9 of them here, where one alpha at a time makes 12
    u_l, _ = _random_pair(m, degree, 1, n, 2.3, 5)
    box = [(-1.0, 1.0)] + list(u_l.basis.domain[1:])
    calls = []
    band_apply = analysis.band_apply
    monkeypatch.setattr(analysis, "band_apply",
                        lambda *args: calls.append(args) or band_apply(*args))
    parts = _kron_parts(u_l, box, m, 5)
    assert len(calls) == 9 and len(parts) == len(enumerate_upto(n, m))
    assert parts == kron_parts_per_alpha(u_l, box, m, 5)


def test_difference_needs_shared_cross_section_factors():
    u_l, _ = _random_pair(1, 2, 1, 2, 2.0, 4)
    _, finer = _random_pair(1, 2, 1, 2, 2.0, 5)
    _, higher = _random_pair(1, 3, 1, 2, 2.0, 4)
    for u_inf in (finer, higher):
        with pytest.raises(ValueError, match="share their cross-section"):
            difference_field(u_l, u_inf)


@pytest.mark.parametrize("m", [1, 2])
def test_floor_level_difference_has_nonnegative_parts(m):
    # u_l = ext(u_inf) + v, v a 2^-50 relative, x1-independent defect: the
    # parts with an axial derivative vanish in exact arithmetic and their
    # quadratic forms round to either side of zero
    rng = np.random.default_rng(1)
    axial = SplineBasis1D(-4.0, 4.0, 32, m + 1, m)
    cross = SplineBasis1D(0.0, 1.0, 8, m + 1, m)
    U = rng.standard_normal(cross.dim)
    V = U * 2.0**-50 * rng.choice([-1.0, 1.0], cross.dim)
    u_l = DiscreteField(TensorBasis([axial, cross]), np.multiply.outer(np.ones(axial.dim), U + V))
    u_inf = DiscreteField(TensorBasis([cross]), U)
    _, w = difference_field(u_l, u_inf)
    parts = _kron_parts(w, [(-1.0, 1.0), (0.0, 1.0)], m, 4)
    assert all(np.isfinite(parts)) and min(parts) >= 0.0
    err_L2, err_Hm = error_Hm(1, w, 1.0, m, 4)
    assert np.isfinite(err_Hm) and 0.0 < err_L2 <= err_Hm <= 1e-12
    assert err_L2 == math.sqrt(parts[0])


# ------------------------------------------------------------------ interior residual


def test_interior_residual_zero_when_solutions_agree():
    spec = builtin_problem("poisson_strip")
    u_l, u_inf = _spline_pair(4.0, [(_one, _bubble1)], _bubble1)
    # exactly the extension: the difference field's coefficients are zero
    u_l = DiscreteField(u_l.basis, np.multiply.outer(np.ones(u_l.basis.dims[0]), u_inf.coeffs))
    res = galerkin_interior_residual(u_l, u_inf, spec, ell=4.0, resolution=4)
    assert res == 0.0


def test_interior_residual_detects_axial_defect():
    spec = builtin_problem("poisson_strip")
    wiggle = (lambda x: 0.01 * np.sin(x), _one)
    u_l, u_inf = _spline_pair(4.0, [(_one, _bubble1), wiggle], _bubble1)
    res = galerkin_interior_residual(u_l, u_inf, spec, ell=4.0, resolution=4)
    assert res > 1e-5


def test_interior_residual_needs_room_for_bumps():
    spec = builtin_problem("poisson_strip")
    u_l, u_inf = _spline_pair(1.5, [(_one, _bubble1)], _bubble1)
    with pytest.raises(ValueError, match="no room"):
        galerkin_interior_residual(u_l, u_inf, spec, ell=1.5, resolution=4)


# ------------------------------------------------------------------ rate fitting


def test_fit_rate_cubic_example_is_exact():
    fit = fit_rate([(2.0, 1e-2), (4.0, 1.25e-3), (8.0, 1.5625e-4)])
    assert abs(fit.rate - 3.0) <= 1e-12
    assert fit.included == (True, True, True)
    assert not fit.floor_detected


def test_fit_rate_quartic_example_is_exact():
    fit = fit_rate([(2.0, 2.0**-4), (4.0, 4.0**-4), (8.0, 8.0**-4)])
    assert abs(fit.rate - 4.0) <= 1e-12


def test_fit_rate_excludes_stagnating_tail():
    fit = fit_rate([(2.0, 1e-2), (4.0, 1.25e-3), (8.0, 1.5625e-4), (16.0, 1.5e-4)])
    assert fit.included == (True, True, True, False)
    assert fit.floor_detected
    assert abs(fit.rate - 3.0) <= 1e-12


def test_fit_rate_excludes_absolute_floor():
    fit = fit_rate([(2.0, 1e-2), (4.0, 1.25e-3), (8.0, 1.5625e-4), (16.0, 1e-13)])
    assert fit.included == (True, True, True, False)
    assert fit.floor_detected


def test_fit_rate_ratio_flags_do_not_cascade():
    pts = [(2.0, 1e-2), (4.0, 9.5e-3), (8.0, 1e-4), (16.0, 1e-6)]
    fit = fit_rate(pts)
    assert fit.included == (True, False, True, True)
    x = np.log([2.0, 8.0, 16.0])
    y = np.log([1e-2, 1e-4, 1e-6])
    expected = -np.polyfit(x, y, 1)[0]
    assert abs(fit.rate - expected) <= 1e-10


def test_fit_rate_error_paths():
    with pytest.raises(ValueError, match="at least 3"):
        fit_rate([(2.0, 1e-2), (4.0, 1e-3)])
    with pytest.raises(ValueError, match="positive"):
        fit_rate([(2.0, 1e-2), (4.0, 0.0), (8.0, 1e-4)])
    with pytest.raises(ValueError, match="strictly increasing"):
        fit_rate([(2.0, 1e-2), (2.0, 1e-3), (8.0, 1e-4)])
    with pytest.raises(ValueError, match="usable"):
        fit_rate([(2.0, 1.0), (4.0, 0.99), (8.0, 0.98), (16.0, 0.97)])


# ------------------------------------------------------------------ records and writers


def test_error_record_enforces_norm_ordering():
    with pytest.raises(ValueError, match="dominate"):
        ErrorRecord(
            ell=2.0,
            dofs=5,
            err_L2=2.0,
            err_Hm=1.0,
            err_H2m_interior=1.0,
            norm_ul_Hm_full=1.0,
            lemma19_ratio=1.0,
            solver_residual=0.0,
            wall_time_s=0.0,
        )
    with pytest.raises(ValueError, match="nonnegative"):
        _record(2.0, -1.0)


def _report():
    records = [_record(2.0, 1.0), _record(4.0, 1.05)]
    return ConvergenceReport(
        problem_name="poisson_strip",
        problem_hash="deadbeef",
        plan={"ells": [2.0, 4.0]},
        records=records,
        fitted_rate_Hm=3.1,
        fitted_rate_H2m=2.9,
        floor_detected=False,
        hypothesis=None,
        localized_table=[(1.0, 0.5), (2.0, 0.25)],
        rate_masks={"err_Hm": (True, True)},
        warnings=["w1"],
        timings={"total_s": 1.25},
    )


def test_report_requires_increasing_ells():
    records = [_record(4.0, 1.0), _record(2.0, 1.0)]
    with pytest.raises(ValueError, match="strictly increasing"):
        ConvergenceReport(
            problem_name="x",
            problem_hash="h",
            plan={},
            records=records,
            fitted_rate_Hm=None,
            fitted_rate_H2m=None,
            floor_detected=False,
            hypothesis=None,
        )


def test_csv_writer_is_deterministic_and_pins_wall_time(tmp_path):
    report = _report()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_report_csv(report, p1)
    report.records[0].wall_time_s = 99.0  # must not leak into the CSV
    write_report_csv(report, p2)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2"
    assert first[-1] == "0.0"


def test_json_writer_roundtrips_structure(tmp_path):
    report = _report()
    path = tmp_path / "r.json"
    write_report_json(report, path)
    data = json.loads(path.read_text())
    assert data["problem"]["name"] == "poisson_strip"
    assert data["fitted_rate_Hm"] == 3.1
    assert [r["ell"] for r in data["records"]] == [2.0, 4.0]
    assert data["records"][0]["wall_time_s"] == 0.0
    assert data["localized_energy"][1] == {"ell1": 2.0, "value": 0.25, "below_floor": False}
    assert data["hypothesis_report"] is None
    assert data["timings"]["total_s"] == 1.25


def test_json_marks_localized_energy_below_the_floor(tmp_path):
    report = _report()
    write_report_csv(report, tmp_path / "before.csv")
    report.localized_table = [(1.0, 0.5 * FLOOR), (2.0, FLOOR), (4.0, 3e-9), (8.0, 0.0)]
    path = tmp_path / "r.json"
    write_report_json(report, path)
    table = json.loads(path.read_text())["localized_energy"]
    assert [e["below_floor"] for e in table] == [True, False, False, True]
    assert [e["value"] for e in table] == [v for _, v in report.localized_table]
    # the CSV carries the records only
    write_report_csv(report, tmp_path / "after.csv")
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()


def _golden_report():
    records = [
        ErrorRecord(
            ell=2.0, dofs=1024, err_L2=1.0 / 3.0, err_Hm=0.7, err_H2m_interior=1e-3,
            norm_ul_Hm_full=0.125, lemma19_ratio=1.2923, solver_residual=3.5e-13,
            wall_time_s=1.75, solver_method="cholesky_banded", backward_error=2.5e-16,
            interior_alpha={"0_0": 2.5e-4, "1_0": 1e-3}, n1_full_alpha={"0_1": 6.0e-5},
        ),
        ErrorRecord(
            ell=4.5, dofs=2048, err_L2=2.0e-7, err_Hm=1.5e-6, err_H2m_interior=0.0,
            norm_ul_Hm_full=0.25, lemma19_ratio=1.35, solver_residual=0.0,
            wall_time_s=0.5,
        ),
    ]
    hyp = HypothesisReport(
        x1_independent={"a_0_1_0_1": True, "f": False}, lambda_hat=0.75,
        ellipticity_ok=True, sup_norms={"a_0_1_0_1": 1.5, "f": 2.0}, sample_count=64,
        seed=3, warnings=["lambda_hat 0.75 is well below the declared hint 2"],
    )
    return ConvergenceReport(
        problem_name="golden", problem_hash="abc123", plan={"ells": [2.0, 4.5]},
        records=records, fitted_rate_Hm=3.25, fitted_rate_H2m=None, floor_detected=True,
        hypothesis=hyp, localized_table=[(2.0, 0.5)], rate_masks={"err_Hm": (True, False)},
        warnings=["w"], timings={"total_s": 2.0},
    )


# written by the hand-listed writers the record schema replaced
GOLDEN_CSV = (
    "ell,dofs,err_L2,err_Hm,err_H2m_interior,norm_ul_Hm_full,lemma19_ratio,"
    "solver_residual,wall_time_s\n"
    "2,1024,0.3333333333333333,0.7,0.001,0.125,1.2923,3.5e-13,0.0\n"
    "4.5,2048,2e-07,1.5e-06,0.0,0.25,1.35,0.0,0.0\n"
)

GOLDEN_RECORD = """\
    {
      "backward_error": 2.5e-16,
      "dofs": 1024,
      "ell": 2.0,
      "err_H2m_interior": 0.001,
      "err_Hm": 0.7,
      "err_L2": 0.3333333333333333,
      "interior_alpha": {
        "0_0": 0.00025,
        "1_0": 0.001
      },
      "lemma19_ratio": 1.2923,
      "n1_full_alpha": {
        "0_1": 6e-05
      },
      "norm_ul_Hm_full": 0.125,
      "solver_method": "cholesky_banded",
      "solver_residual": 3.5e-13,
      "wall_time_s": 1.75
    },
"""

GOLDEN_HYPOTHESIS = """\
  "hypothesis_report": {
    "ellipticity_ok": true,
    "lambda_hat": 0.75,
    "passed": false,
    "sample_count": 64,
    "seed": 3,
    "sup_norms": {
      "a_0_1_0_1": 1.5,
      "f": 2.0
    },
    "warnings": [
      "lambda_hat 0.75 is well below the declared hint 2"
    ],
    "x1_independent": {
      "a_0_1_0_1": true,
      "f": false
    }
  },
"""


def test_report_writers_match_golden_bytes(tmp_path):
    report = _golden_report()
    write_report_csv(report, tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text() == GOLDEN_CSV
    write_report_json(report, tmp_path / "r.json")
    text = (tmp_path / "r.json").read_text()
    assert GOLDEN_RECORD in text
    assert GOLDEN_HYPOTHESIS in text
    data = json.loads(text)
    assert data["records"][1] == {
        "backward_error": None, "dofs": 2048, "ell": 4.5, "err_H2m_interior": 0.0,
        "err_Hm": 1.5e-06, "err_L2": 2e-07, "interior_alpha": {}, "lemma19_ratio": 1.35,
        "n1_full_alpha": {}, "norm_ul_Hm_full": 0.25, "solver_method": "",
        "solver_residual": 0.0, "wall_time_s": 0.5,
    }


def test_refinement_csv_layout(tmp_path):
    rows = [
        {"resolution": 8, "h": 0.125, "dofs_limit": 9, "err_Hm_limit": 1e-2, "order": None, "err_Hm_cyl_vs_limit": 0.5},
        {"resolution": 16, "h": 0.0625, "dofs_limit": 17, "err_Hm_limit": 2.5e-3, "order": 2.0, "err_Hm_cyl_vs_limit": None},
    ]
    path = tmp_path / "refine.csv"
    write_refinement_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "resolution,h,dofs_limit,err_Hm_limit,order,err_Hm_cyl_vs_limit"
    assert lines[1].startswith("8,0.125,9,0.01,")
    assert lines[2].endswith(",2.0,")
