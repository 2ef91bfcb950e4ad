"""Closed-form oracles: sweeps whose exact errors are known.

The 3-D box, -Laplace u = f on (-l, l) x (0, 1)^2 with Dirichlet data and
f = sin(pi x2) sin(pi x3), has u_inf = f / (2 pi^2) and

    u_l - u_inf = -f cosh(kappa x1) / (2 pi^2 cosh(kappa l)),
    kappa = pi sqrt(2),

so the sweep's err_L2 and err_Hm, the L2 and full H^1 norms of that
difference on (-ell0, ell0) x omega, are integrals of cosh^2 and sinh^2
over (-ell0, ell0) times those of f and its gradient over omega.  The
discrete errors approach them at the spline order: the relative gaps at l =
2 and 4 measured 8.9e-4 and 2.0e-3 (err_L2), 8.2e-4 and 2.8e-4 (err_Hm) at
6 cells per unit, and 6.5e-5, 1.5e-4, 5.6e-5 and 2.7e-5 at 12; the bounds
below are those with a margin, and every gap must shrink at least 8 times
from 6 to 12 cells per unit.
"""

import math

from test_sweep_bytes import BOX_CONFIG

from cylasym.harness import SweepPlan, run_sweep
from cylasym.problem import parse_problem_config

KAPPA = math.pi * math.sqrt(2.0)
# relative gap bounds per (cells per unit, field)
BOX_BOUNDS = {(6, "err_L2"): 3e-3, (6, "err_Hm"): 1.2e-3,
              (12, "err_L2"): 2.5e-4, (12, "err_Hm"): 1e-4}


def _box_errors(ell, ell0):
    """The exact (err_L2, err_Hm) of the box at half-length ell."""
    a = 1.0 / (2.0 * math.pi**2 * math.cosh(KAPPA * ell))
    cosh2 = ell0 + math.sinh(2.0 * KAPPA * ell0) / (2.0 * KAPPA)  # of cosh^2
    sinh2 = cosh2 - 2.0 * ell0  # of sinh^2
    # f^2 integrates to 1/4 over omega, each of its two derivatives to pi^2 / 4
    l2 = cosh2 / 4.0
    h1 = l2 + KAPPA**2 * sinh2 / 4.0 + 2.0 * math.pi**2 * cosh2 / 4.0
    return a * math.sqrt(l2), a * math.sqrt(h1)


def test_the_box_errors_approach_their_closed_form():
    spec = parse_problem_config(BOX_CONFIG, "box3d")
    gaps = {}
    for cells in (6, 12):
        plan = SweepPlan(spec=spec, ells=(2.0, 4.0), resolution=cells)
        for record in run_sweep(plan).records:
            exact = dict(zip(("err_L2", "err_Hm"), _box_errors(record.ell, plan.ell0)))
            for field, want in exact.items():
                gap = abs(getattr(record, field) - want) / want
                assert gap <= BOX_BOUNDS[cells, field], (cells, record.ell, field, gap)
                gaps[cells, record.ell, field] = gap
    for (cells, ell, field), gap in gaps.items():
        if cells == 6:
            assert gaps[12, ell, field] <= gap / 8.0, (ell, field)
