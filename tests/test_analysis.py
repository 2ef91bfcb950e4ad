"""Norm oracles, cutoff profile, rate fitting, and report serialization."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cylasym.analysis import (
    CSV_HEADER,
    ConvergenceReport,
    CutoffEvaluator,
    CutoffRho,
    DifferenceEvaluator,
    ErrorRecord,
    ExtensionEvaluator,
    FieldEvaluator,
    ProductEvaluator,
    error_Hm,
    fit_rate,
    galerkin_interior_residual,
    lemma19_check,
    localized_energy,
    norm_Hm,
    write_report_csv,
    write_report_json,
    write_refinement_csv,
)
from cylasym.problem import builtin_problem


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
    u_l = _FakeField([(-2.0, 2.0), (0.0, 1.0)], _bubble)
    u_inf = _FakeField([(0.0, 1.0)], _bubble)
    assert error_Hm(u_l, u_inf, ell0=1.0, m=1, resolution=8) <= 1e-14


def test_error_Hm_linear_defect_hand_value():
    # u_l - ext(u_inf) = x1: L2^2 over (-1,1)x(0,1) is 2/3, H1 adds 2
    def with_drift(grids, alpha):
        base = _bubble(grids, alpha)
        if alpha == (0, 0):
            return base + grids[0]
        if alpha == (1, 0):
            return base + 1.0
        return base

    u_l = _FakeField([(-2.0, 2.0), (0.0, 1.0)], with_drift)
    u_inf = _FakeField([(0.0, 1.0)], _bubble)
    e0 = error_Hm(u_l, u_inf, ell0=1.0, m=0, resolution=4)
    e1 = error_Hm(u_l, u_inf, ell0=1.0, m=1, resolution=4)
    assert abs(e0 - math.sqrt(2.0 / 3.0)) <= 1e-14
    assert abs(e1 - math.sqrt(2.0 / 3.0 + 2.0)) <= 1e-14


def test_error_Hm_rejects_inner_box_outside_domain():
    u_l = _FakeField([(-2.0, 2.0), (0.0, 1.0)], _bubble)
    u_inf = _FakeField([(0.0, 1.0)], _bubble)
    with pytest.raises(ValueError, match="exceeds the domain"):
        error_Hm(u_l, u_inf, ell0=3.0, m=1, resolution=4)


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
    assert abs(rho.derivative_bound(1) - 3.0) <= 1e-14


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


# ------------------------------------------------------------------ localized energy


def test_localized_energy_vanishes_for_exact_extension():
    u_l = _FakeField([(-4.0, 4.0), (0.0, 1.0)], _bubble)
    u_inf = _FakeField([(0.0, 1.0)], _bubble)
    assert localized_energy(u_l, u_inf, ell1=2.0, m=1, resolution=4) <= 1e-14


def test_localized_energy_matches_dense_trapezoid():
    # w = x1 (cross-independent), m = 1: the energy reduces to a 1D integral
    def drift(grids, alpha):
        if alpha == (0, 0):
            return grids[0]
        if alpha == (1, 0):
            return np.ones_like(grids[0])
        return np.zeros_like(grids[0])

    u_l = _FakeField([(-4.0, 4.0), (0.0, 1.0)], drift)
    u_inf = _FakeField([(0.0, 1.0)], lambda g, a: np.zeros_like(g[-1]))
    ell1 = 2.0
    got = localized_energy(u_l, u_inf, ell1=ell1, m=1, resolution=16)

    rho = CutoffRho(1)
    x = np.linspace(-ell1, ell1, 400001)
    r = rho.profile(x / ell1)
    dr = rho.profile(x / ell1, 1) / ell1
    integrand = (x * r) ** 2 + (r + x * dr) ** 2
    expected = math.sqrt(np.trapezoid(integrand, x))
    assert abs(got - expected) <= 1e-6 * expected


def test_localized_energy_rejects_oversized_scale():
    u_l = _FakeField([(-2.0, 2.0), (0.0, 1.0)], _bubble)
    u_inf = _FakeField([(0.0, 1.0)], _bubble)
    with pytest.raises(ValueError, match="exceeds the axial half-length"):
        localized_energy(u_l, u_inf, ell1=3.0, m=1, resolution=4)


# ------------------------------------------------------------------ interior residual


def test_interior_residual_zero_when_solutions_agree():
    spec = builtin_problem("poisson_strip")
    u_l = _FakeField([(-4.0, 4.0), (0.0, 1.0)], _bubble)
    u_inf = _FakeField([(0.0, 1.0)], _bubble)
    res = galerkin_interior_residual(u_l, u_inf, spec, ell=4.0, resolution=4)
    assert res == 0.0


def test_interior_residual_detects_axial_defect():
    def with_wiggle(grids, alpha):
        base = _bubble(grids, alpha)
        x = grids[0]
        k = alpha[0]
        if alpha[1] != 0:
            return base
        if k == 0:
            return base + 0.01 * np.sin(x)
        if k == 1:
            return base + 0.01 * np.cos(x)
        return base

    spec = builtin_problem("poisson_strip")
    u_l = _FakeField([(-4.0, 4.0), (0.0, 1.0)], with_wiggle)
    u_inf = _FakeField([(0.0, 1.0)], _bubble)
    res = galerkin_interior_residual(u_l, u_inf, spec, ell=4.0, resolution=4)
    assert res > 1e-5


def test_interior_residual_needs_room_for_bumps():
    spec = builtin_problem("poisson_strip")
    u_l = _FakeField([(-1.5, 1.5), (0.0, 1.0)], _bubble)
    u_inf = _FakeField([(0.0, 1.0)], _bubble)
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
    assert data["localized_energy"][1] == {"ell1": 2.0, "value": 0.25}
    assert data["hypothesis_report"] is None
    assert data["timings"]["total_s"] == 1.25


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
