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
"""

import dataclasses

import pytest
from test_sweep_bytes import BOX_CONFIG, SKEW_CONFIG

from cylasym.analysis import write_report_csv
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
