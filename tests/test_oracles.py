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

The Poisson strip, -Laplace u = 1 on (-l, l) x (0, 1) with Dirichlet data,
has u_inf = x2 (1 - x2) / 2, the sum over odd k of 4 sin(k pi x2) / (k pi)^3,
and

    u_l - u_inf = -sum over odd k of 4 sin(k pi x2) cosh(k pi x1)
                  / ((k pi)^3 cosh(k pi l)),

whose modes are orthogonal on omega, in value and in gradient.  The
relative gaps at l = 2 and 4 measured 1.9e-6 and 1.8e-6 (err_L2), 6.8e-6
and 6.9e-6 (err_Hm) at 16 cells per unit, and 1.2e-7, 1.2e-7, 4.2e-7 and
4.3e-7 at 32; the bounds below are those with a margin, and every gap must
shrink at least 8 times from 16 to 32 cells per unit.

The p = 2 box, -Laplace u = sin(pi x3) on (-l, l)^2 x (0, 1) with
Dirichlet data, has u_inf = sin(pi x3) / pi^2 and u_l - u_inf =
sin(pi x3) g, where G = u_l / sin(pi x3) solves -Laplace G + pi^2 G = 1 on
the square with G = 0 on its edges, and

    g = -cosh(pi x2) / (pi^2 cosh(pi l))
        - sum over odd k of c_k cos(nu_k x2) cosh(kappa_k x1)
                            / (kappa_k^2 cosh(kappa_k l)),
    c_k = 4 (-1)^((k - 1) / 2) / (k pi),  nu_k = k pi / (2 l),
    kappa_k = sqrt(pi^2 + nu_k^2):

the 1-D part of the cosine series in x2 summed in closed form, so each
term is at most exp(-kappa_k (l - |x1|)) on the inner square: 400
modes give the same errors bitwise as 200.  g, g_x1 and g_x2 are
integrated over (-ell0, ell0)^2 by a 200-point Gauss rule per axis (300
points move the errors by at most 6.2e-15 relative).  The relative gaps at l = 2 and 4 measured
5.0e-4 and 1.0e-3 (err_L2), 1.7e-3 and 2.3e-3 (err_Hm) at 4 cells per
unit, and 1.4e-5, 2.6e-5, 1.1e-4 and 1.2e-4 at 8; the bounds below are
those with a margin, and every gap must shrink at least 8 times from 4
to 8 cells per unit.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from test_sweep_bytes import BOX_CONFIG, BOX_P2_CONFIG

from cylasym.harness import SweepPlan, run_sweep
from cylasym.problem import builtin_problem, parse_problem_config

KAPPA = math.pi * math.sqrt(2.0)
# relative gap bounds per (cells per unit, field)
BOX_BOUNDS = {(6, "err_L2"): 3e-3, (6, "err_Hm"): 1.2e-3,
              (12, "err_L2"): 2.5e-4, (12, "err_Hm"): 1e-4}
STRIP_BOUNDS = {(16, "err_L2"): 2.5e-6, (16, "err_Hm"): 9e-6,
                (32, "err_L2"): 1.6e-7, (32, "err_Hm"): 5.5e-7}
BOX_P2_BOUNDS = {(4, "err_L2"): 1.3e-3, (4, "err_Hm"): 3e-3,
                 (8, "err_L2"): 3.5e-5, (8, "err_Hm"): 1.5e-4}


def _box_errors(ell, ell0):
    """The exact (err_L2, err_Hm) of the box at half-length ell."""
    a = 1.0 / (2.0 * math.pi**2 * math.cosh(KAPPA * ell))
    cosh2 = ell0 + math.sinh(2.0 * KAPPA * ell0) / (2.0 * KAPPA)  # of cosh^2
    sinh2 = cosh2 - 2.0 * ell0  # of sinh^2
    # f^2 integrates to 1/4 over omega, each of its two derivatives to pi^2 / 4
    l2 = cosh2 / 4.0
    h1 = l2 + KAPPA**2 * sinh2 / 4.0 + 2.0 * math.pi**2 * cosh2 / 4.0
    return a * math.sqrt(l2), a * math.sqrt(h1)


def _strip_errors(ell, ell0):
    """The exact (err_L2, err_Hm) of the Poisson strip at half-length ell:
    each odd mode k contributes a_k^2 / 2 times its integrals over
    (-ell0, ell0), sin^2 and cos^2 integrating to 1/2 over omega; for
    ell - ell0 >= 1 the modes past k = 49 add less than 1e-100 of the
    first."""
    l2 = h1 = 0.0
    for k in range(1, 50, 2):
        kappa = k * math.pi
        a2 = (4.0 / (kappa**3 * math.cosh(kappa * ell)))**2 / 2.0
        cosh2 = ell0 + math.sinh(2.0 * kappa * ell0) / (2.0 * kappa)
        sinh2 = cosh2 - 2.0 * ell0
        l2 += a2 * cosh2
        h1 += a2 * (cosh2 + kappa**2 * (sinh2 + cosh2))
    return math.sqrt(l2), math.sqrt(h1)


def _cosh_ratios(kappa, x, ell):
    """(cosh(kappa x) / cosh(kappa ell), sinh(kappa x) / cosh(kappa ell)),
    for |x| <= ell, without overflow at large kappa."""
    near, far = np.exp(kappa * (np.abs(x) - ell)), np.exp(-kappa * (np.abs(x) + ell))
    scale = 1.0 + np.exp(-2.0 * kappa * ell)
    return (near + far) / scale, np.sign(x) * (near - far) / scale


def _box_p2_errors(ell, ell0, points=200, modes=200):
    """The exact (err_L2, err_Hm) of the p = 2 box at half-length ell."""
    x, w = leggauss(points)
    x, w = ell0 * x, ell0 * w
    k = 2 * np.arange(modes) + 1
    nu = k * math.pi / (2.0 * ell)
    kappa = np.sqrt(math.pi**2 + nu**2)
    a = -4.0 * (-1.0) ** ((k - 1) // 2) / (k * math.pi * kappa**2)
    cosh, sinh = _cosh_ratios(kappa, x[:, None], ell)  # [x1, mode]
    cos, sin = np.cos(nu * x[:, None]), np.sin(nu * x[:, None])  # [x2, mode]
    cosh_pi, sinh_pi = _cosh_ratios(math.pi, x, ell)
    g = (cosh * a) @ cos.T - cosh_pi / math.pi**2  # [x1, x2]
    g_x1 = (sinh * kappa * a) @ cos.T
    g_x2 = -(cosh * a) @ (sin * nu).T - sinh_pi / math.pi
    weights = np.outer(w, w)
    g2 = np.sum(weights * g**2)
    # sin(pi x3)^2 integrates to 1/2 over omega, its derivative's square to pi^2 / 2
    l2 = g2 / 2.0
    h1 = l2 + np.sum(weights * (g_x1**2 + g_x2**2)) / 2.0 + math.pi**2 * g2 / 2.0
    return math.sqrt(l2), math.sqrt(h1)


def _check_closed_form(spec, exact, bounds):
    """Every gap within its bound at both resolutions of bounds, and each
    shrinking at least 8 times from the coarser to the finer."""
    coarse, fine = sorted({cells for cells, _ in bounds})
    gaps = {}
    for cells in (coarse, fine):
        plan = SweepPlan(spec=spec, ells=(2.0, 4.0), resolution=cells)
        for record in run_sweep(plan).records:
            want = dict(zip(("err_L2", "err_Hm"), exact(record.ell, plan.ell0)))
            for field, value in want.items():
                gap = abs(getattr(record, field) - value) / value
                assert gap <= bounds[cells, field], (cells, record.ell, field, gap)
                gaps[cells, record.ell, field] = gap
    for (cells, ell, field), gap in gaps.items():
        if cells == coarse:
            assert gaps[fine, ell, field] <= gap / 8.0, (ell, field)


def test_the_box_errors_approach_their_closed_form():
    _check_closed_form(parse_problem_config(BOX_CONFIG, "box3d"), _box_errors, BOX_BOUNDS)


def test_the_poisson_strip_errors_approach_their_closed_form():
    _check_closed_form(builtin_problem("poisson_strip"), _strip_errors, STRIP_BOUNDS)


def test_the_p2_box_errors_approach_their_closed_form():
    _check_closed_form(parse_problem_config(BOX_P2_CONFIG, "box_p2"), _box_p2_errors,
                       BOX_P2_BOUNDS)
