"""Metamorphic relations of a sweep: scalings whose effect on every
reported value is known exactly.

The problem is linear in its forcing, so doubling f doubles u_inf, every
u_l and every difference u_l - ext(u_inf); a factor of 2 is exact in
floating point, so the errors and norms double bitwise.  Multiplying every
coefficient and the forcing by 4 scales A and b by 4, which leaves every
solution unchanged bitwise: the Cholesky factor doubles, LU pivots alike,
and the cross-section pencil of fast diagonalization keeps its eigenbasis.
So the CSV, which holds no coefficient, is unchanged byte for byte.  Each
relation runs on the biharmonic strip (banded Cholesky on parity blocks),
the skew strip (banded LU) and the 3-D box (fast diagonalization), at l =
2, 4, 8 and at most 8 cells per unit.

Translating omega moves no exact value.  The section places the blocks of
coefficients and the load of a forcing that read no coordinate of omega
from one stencil on unit cells, so on omega = (3, 4) they are those on
(0, 1) bitwise; only the norms, whose Gram bands the kernel builds on
omega's own points, round differently there.
"""

import csv
import dataclasses

import numpy as np
import pytest
from test_sweep_bytes import BOX_CONFIG, SKEW_CONFIG

from cylasym.analysis import write_report_csv
from cylasym.assembly import CrossSection
from cylasym.harness import SweepPlan, run_sweep
from cylasym.problem import ScalarField, builtin_problem, parse_problem_config

CASES = {
    # (spec, cells per unit)
    "biharmonic_strip": (builtin_problem("biharmonic_strip"), 8),
    "skew_strip": (parse_problem_config(SKEW_CONFIG, "skew_strip"), 8),
    "box3d": (parse_problem_config(BOX_CONFIG, "box3d"), 4),
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


def _sweep(spec, resolution):
    return run_sweep(SweepPlan(spec=spec, ells=(2.0, 4.0, 8.0), resolution=resolution))


@pytest.mark.parametrize("name", CASES)
def test_doubling_the_forcing_doubles_every_error_and_norm(name):
    spec, resolution = CASES[name]
    base = _sweep(spec, resolution).records
    doubled = _sweep(_scaled(spec, forcing=2), resolution).records
    for r, d in zip(base, doubled):
        for field in SCALED_FIELDS:
            assert getattr(d, field) == 2.0 * getattr(r, field), (r.ell, field)


@pytest.mark.parametrize("name", CASES)
def test_scaling_the_whole_problem_leaves_the_csv_unchanged(name, tmp_path):
    spec, resolution = CASES[name]
    paths = []
    for k, scaled in enumerate((spec, _scaled(spec, coefficients=4, forcing=4))):
        paths.append(tmp_path / f"{k}.csv")
        write_report_csv(_sweep(scaled, resolution), paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _csv_rows(report, path):
    write_report_csv(report, path)
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_translating_omega_moves_every_value_by_roundoff_only(tmp_path):
    # biharmonic strip, f = 1, 8 cells per unit: every CSV value agreed
    # within 2.3e-15 relative (err_H2m_interior bitwise) on (3, 4) and
    # (0, 1); when the kernel built the blocks on omega's knots, err_Hm
    # moved by 7.4e-11 at l = 4 and 1e-2 at l = 8
    spec = builtin_problem("biharmonic_strip")
    moved = dataclasses.replace(spec, omega=((3.0, 4.0),))
    for a, b in ((CrossSection(spec, 8), CrossSection(moved, 8)),
                 (CrossSection(spec, 32),
                  CrossSection(dataclasses.replace(spec, omega=((1000.0, 1001.0),)), 32))):
        assert a.keys == b.keys
        assert all(np.array_equal(C, D) for C, D in zip(a.blocks, b.blocks))
        assert np.array_equal(a.load, b.load)
    rows = [_csv_rows(_sweep(s, 8), tmp_path / f"{k}.csv") for k, s in enumerate((spec, moved))]
    assert [row["ell"] for row in rows[1]] == [row["ell"] for row in rows[0]] == ["2", "4", "8"]
    for here, there in zip(*rows):
        for field, value in here.items():
            x, y = float(value), float(there[field])
            assert abs(x - y) <= 1e-14 * abs(x), (here["ell"], field)
