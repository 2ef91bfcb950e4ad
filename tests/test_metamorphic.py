"""Metamorphic relations of a sweep: scalings whose effect on every
reported value is known exactly.

The problem is linear in its forcing, so doubling f doubles u_inf, every
u_l and every difference u_l - ext(u_inf); a factor of 2 is exact in
floating point, so the errors and norms double bitwise.  Multiplying every
coefficient and the forcing by 4 scales A and b by 4, which leaves every
solution unchanged bitwise: the Cholesky factor doubles, LU pivots alike,
and the cross-section pencil of fast diagonalization keeps its eigenbasis.
So the CSV, which holds no coefficient, is unchanged byte for byte.  Each
relation runs at l = 2, 4, 8 on every pinned sweep of test_sweep_bytes
that no other relation here covers, at the cells per unit its digest
pins: the Poisson, biharmonic and variable-coefficient strips and the
biharmonic strip with f = 1 + x2 (banded Cholesky on parity blocks), the
skew strip at degrees 2 and 1 (banded LU), the 3-D box (fast
diagonalization) and the p = 2 box (the fold of two axial axes, then fast
diagonalization along x2 and x3).

Translating omega moves no exact value.  The section places the blocks of
coefficients and the load of a forcing that read no coordinate of omega
from one stencil on unit cells, and the norms place their Gram bands from
references on unit cells (splines.axis_grams), so on omega = (3, 4) they
are those on (0, 1) bitwise, and so is the whole sweep.  Where a
coefficient or the forcing reads x2, the kernel evaluates it on omega's
own points, and the values round differently there.

Nor does a symmetry of the problem move an exact value: permuting the two
cross-section axes of a 3-D box (fast diagonalization), with its omega,
coefficients and forcing, swapping the two axial axes of a p = 2 box with
its axial coefficients (both axial axes folded), or reflecting x1 in a
coefficient that reads it (the n-D band).  Every value then moves by roundoff only, which grows as
u_l - ext(u_inf) falls towards the solve's floor, so each bound is set
from the gaps measured at each l.

Widening omega from (0, 1) to (0, 2) at half the cells per unit scales the
cross-section pencil by 1/4, so the predicted rate halves up to rounding.
"""

import csv
import dataclasses

import numpy as np
import pytest
from test_sweep_bytes import BIHARMONIC_X2_CONFIG, BOX_CONFIG, BOX_P2_CONFIG, SKEW_CONFIG

from cylasym.analysis import write_report_csv
from cylasym.assembly import CrossSection
from cylasym.harness import SweepPlan, run_sweep
from cylasym.problem import ScalarField, builtin_problem, parse_problem_config
from cylasym.splines import axis_grams

CASES = {
    # (spec, cells per unit, degree or None for m + 1)
    "poisson_strip": (builtin_problem("poisson_strip"), 8, None),
    "biharmonic_strip": (builtin_problem("biharmonic_strip"), 8, None),
    "varcoef_strip": (builtin_problem("varcoef_strip"), 8, None),
    "skew_strip": (parse_problem_config(SKEW_CONFIG, "skew_strip"), 8, None),
    "skew_strip_degree_1": (parse_problem_config(SKEW_CONFIG, "skew_strip"), 8, 1),
    "box3d": (parse_problem_config(BOX_CONFIG, "box3d"), 4, None),
    "box_p2": (parse_problem_config(BOX_P2_CONFIG, "box_p2"), 4, None),
    "biharmonic_x2": (parse_problem_config(BIHARMONIC_X2_CONFIG, "biharmonic_x2"), 8, None),
}
SCALED_FIELDS = ("err_L2", "err_Hm", "err_H2m_interior", "norm_ul_Hm_full")


def _times(factor, field):
    return ScalarField.parse(f"{factor} * ({field.text()})", field.n)


def _scaled(spec, coefficients=None, forcing=None):
    """spec with every coefficient times `coefficients` and the forcing
    times `forcing`, each left as it is when None."""
    return dataclasses.replace(
        spec,
        coefficients={key: field if coefficients is None else _times(coefficients, field)
                      for key, field in spec.coefficients.items()},
        forcing=spec.forcing if forcing is None else _times(forcing, spec.forcing))


def _sweep(spec, resolution, degree=None):
    return run_sweep(SweepPlan(spec=spec, ells=(2.0, 4.0, 8.0), resolution=resolution,
                               degree=degree))


@pytest.mark.parametrize("name", CASES)
def test_doubling_the_forcing_doubles_every_error_and_norm(name):
    spec, resolution, degree = CASES[name]
    base = _sweep(spec, resolution, degree).records
    doubled = _sweep(_scaled(spec, forcing=2), resolution, degree).records
    for r, d in zip(base, doubled):
        for field in SCALED_FIELDS:
            assert getattr(d, field) == 2.0 * getattr(r, field), (r.ell, field)


@pytest.mark.parametrize("name", CASES)
def test_scaling_the_whole_problem_leaves_the_csv_unchanged(name, tmp_path):
    spec, resolution, degree = CASES[name]
    paths = []
    for k, scaled in enumerate((spec, _scaled(spec, coefficients=4, forcing=4))):
        paths.append(tmp_path / f"{k}.csv")
        write_report_csv(_sweep(scaled, resolution, degree), paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _csv_rows(report, path):
    write_report_csv(report, path)
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_translating_omega_moves_every_value_by_roundoff_only(tmp_path):
    # biharmonic strip, f = 1, 8 cells per unit: the CSVs on (3, 4) and
    # (0, 1) are the same bytes, since every block, load and Gram band is
    # placed from unit cells; when the kernel built the norms' Gram bands
    # on omega's points, values agreed within 2.3e-15 relative, and when
    # it built the blocks there, err_Hm moved by 7.4e-11 at l = 4 and 1e-2
    # at l = 8
    spec = builtin_problem("biharmonic_strip")
    moved = dataclasses.replace(spec, omega=((3.0, 4.0),))
    for a, b in ((CrossSection(spec, 8), CrossSection(moved, 8)),
                 (CrossSection(spec, 32),
                  CrossSection(dataclasses.replace(spec, omega=((1000.0, 1001.0),)), 32))):
        assert a.keys == b.keys
        assert all(np.array_equal(C, D) for C, D in zip(a.blocks, b.blocks))
        assert np.array_equal(a.load, b.load)
    rows = [_csv_rows(_sweep(s, 8), tmp_path / f"{k}.csv") for k, s in enumerate((spec, moved))]
    assert [row["ell"] for row in rows[0]] == ["2", "4", "8"] and rows[1] == rows[0]


ERROR_FIELDS = ("err_L2", "err_Hm", "err_H2m_interior")
NORM_FIELDS = ("norm_ul_Hm_full", "lemma19_ratio")


def _gaps(report, other, fields):
    """{(l, field): relative gap} of two sweeps' records."""
    return {(a.ell, f): abs(getattr(b, f) - getattr(a, f)) / abs(getattr(a, f))
            for a, b in zip(report.records, other.records) for f in fields}


def test_translating_omega_with_fields_that_read_it_moves_every_value_by_roundoff_only():
    # the Poisson strip with a_0_1_0_1 = 1 + x2 and f = sin(pi x2) on (0, 1)
    # against the same fields shifted onto (3, 4), at 8 cells per unit.  The
    # Gram bands of omega's factor are the same bitwise, so the gaps come
    # from evaluating the fields on omega's points.  Measured relative gaps:
    # the errors at most 1.6e-13 at l = 2 and 1.0e-10 at l = 4, both norms
    # at most 6.7e-16 at every l.  At l = 8 the errors sit at the floor
    # (err_Hm 3.9e-13) and differ by up to 6.2e-4, so they are left out
    def strip(omega, x2):
        return parse_problem_config(
            f"[problem]\nm = 1\nn = 2\np = 1\nomega = {omega}\n\n[coef]\n"
            f"a_1_0_1_0 = 1\na_0_1_0_1 = 1 + {x2}\n\n[forcing]\n"
            f"f = sin(3.141592653589793 * {x2})\n", "strip")

    specs = [strip("0,1", "x2"), strip("3,4", "(x2 - 3)")]
    (f,), (g,) = (CrossSection(spec, 8).factors for spec in specs)
    for a, b in zip(axis_grams(f, (0.0, 1.0), 1, 8, 3)[1], axis_grams(g, (3.0, 4.0), 1, 8, 3)[1]):
        assert np.array_equal(a, b)
    reports = [_sweep(spec, 8) for spec in specs]
    errors = _gaps(*reports, ERROR_FIELDS)
    for field in ERROR_FIELDS:
        assert errors[2.0, field] <= 5e-13 and errors[4.0, field] <= 3e-10, field
    assert max(_gaps(*reports, NORM_FIELDS).values()) <= 3e-15


def _box(omega, a2, a3, forcing):
    return parse_problem_config(
        f"[problem]\nm = 1\nn = 3\np = 1\nomega = {omega}\n\n[coef]\n"
        f"a_1_0_0_1_0_0 = 1\na_0_1_0_0_1_0 = {a2}\na_0_0_1_0_0_1 = {a3}\n\n[forcing]\n"
        f"f = {forcing}\n", "box")


def test_permuting_the_cross_section_axes_moves_every_value_by_roundoff_only():
    # omega = (0, 1) x (0, 2) with weights 1 and 3 on x2 and x3, against the
    # same box with x2 and x3 swapped everywhere, at 4 cells per unit.
    # Measured relative gaps: the errors at most 7.5e-15 at l = 2 and
    # 4.2e-11 at l = 4, both norms at most 2.4e-16 at every l.  At l = 8
    # the errors sit at the floor (near 1e-14) and differ by up to 5.8e-4,
    # so they are left out there
    pi = "3.141592653589793"
    reports = [_sweep(_box("0,1;0,2", 1, 3, f"sin({pi} * x2) * (1 + x3 / 4)"), 4),
               _sweep(_box("0,2;0,1", 3, 1, f"sin({pi} * x3) * (1 + x2 / 4)"), 4)]
    for report in reports:
        assert {r.solver_method for r in report.records} == {"fast_diagonalization"}
    errors = _gaps(*reports, ERROR_FIELDS)
    for field in ERROR_FIELDS:
        assert errors[2.0, field] <= 3e-14 and errors[4.0, field] <= 2e-10, field
    assert max(_gaps(*reports, NORM_FIELDS).values()) <= 1e-15


def test_reflecting_x1_moves_every_value_by_roundoff_only():
    # the Poisson strip with a_1_0_1_0 = 2 + sin(x1) against 2 - sin(x1),
    # f = 1, 8 cells per unit: the coefficient reads x1, so the solve
    # factors the n-D band.  Measured relative gaps: err_L2 and err_Hm at
    # most 2.3e-16 at l = 2 and 4.1e-13 at l = 4, both norms at most 1.7e-16
    # at every l.  The interior estimates, whose centred differences the
    # reflection maps onto the mirror lattice, at most 5.9e-15 at l = 2 and
    # 2.7e-12 at l = 4 (interior_alpha 1_0).  At l = 8, near the floor,
    # err_Hm differs by 2.6e-9 and the interior estimates by up to 1.7e-8,
    # so the errors are left out there
    specs = [parse_problem_config(
        "[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
        f"a_1_0_1_0 = 2 {sign} sin(x1)\na_0_1_0_1 = 1\n\n[forcing]\nf = 1\n", "strip")
        for sign in "+-"]
    assert all(CrossSection(spec, 8).nd_terms for spec in specs)
    reports = [_sweep(spec, 8) for spec in specs]
    errors = _gaps(*reports, ("err_L2", "err_Hm"))
    for field in ("err_L2", "err_Hm"):
        assert errors[2.0, field] <= 1e-15 and errors[4.0, field] <= 2e-12, field
    assert max(_gaps(*reports, NORM_FIELDS).values()) <= 1e-15
    for a, b in zip(*(report.records[:2] for report in reports)):
        pairs = [(a.err_H2m_interior, b.err_H2m_interior)] + [
            (table_a[k], table_b[k])
            for table_a, table_b in ((a.interior_alpha, b.interior_alpha),
                                     (a.n1_full_alpha, b.n1_full_alpha))
            for k in table_a]
        bound = 1e-12 if a.ell == 2.0 else 1e-11
        assert all(x > 1e-12 and abs(y - x) <= bound * x for x, y in pairs), a.ell


def test_swapping_the_axial_axes_moves_every_value_by_roundoff_only():
    # the p = 2 box with weights 1 on x1 and 3 on x2 against 3 on x1 and 1
    # on x2, f = sin(pi x3), 4 cells per unit: u_l of one is u_l of the
    # other with x1 and x2 swapped, and each solve folds both axial axes.
    # Measured relative gaps: the errors at most 2.0e-15 at l = 2 and
    # 2.3e-13 at l = 4 (err_H2m_interior the largest), both norms at most
    # 2.8e-16 at every l
    def box(a1, a2):
        return parse_problem_config(
            "[problem]\nm = 1\nn = 3\np = 2\nomega = 0,1\n\n[coef]\n"
            f"a_1_0_0_1_0_0 = {a1}\na_0_1_0_0_1_0 = {a2}\na_0_0_1_0_0_1 = 1\n\n[forcing]\n"
            "f = sin(3.141592653589793 * x3)\n", "box")

    reports = [run_sweep(SweepPlan(spec=box(*a), ells=(2.0, 4.0), resolution=4))
               for a in ((1, 3), (3, 1))]
    errors = _gaps(*reports, ERROR_FIELDS)
    for field in ERROR_FIELDS:
        assert errors[2.0, field] <= 1e-14 and errors[4.0, field] <= 1e-12, field
    assert max(_gaps(*reports, NORM_FIELDS).values()) <= 1e-15


@pytest.mark.parametrize("resolution", [8, 16])
def test_widening_omega_halves_the_predicted_rate(resolution):
    # the Poisson strip on (0, 2) at r cells per unit has the cells of
    # (0, 1) at 2 r, twice as wide: its cross-section pencil's eigenvalues
    # are those of (0, 1) over 4, so sqrt(min lam), the predicted rate,
    # halves up to the eigensolver's rounding; measured relative gaps
    # 1.3e-14 at r = 8 and 1.0e-14 at r = 16
    spec = builtin_problem("poisson_strip")
    wide = dataclasses.replace(spec, omega=((0.0, 2.0),))
    narrow_rate, wide_rate = (
        run_sweep(SweepPlan(spec=s, ells=(2.0,), resolution=r)).predicted_rate
        for s, r in ((spec, 2 * resolution), (wide, resolution)))
    assert abs(wide_rate - narrow_rate / 2) <= 1e-13 * (narrow_rate / 2)
