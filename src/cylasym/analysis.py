"""Norms, decay diagnostics, rate fitting, and report serialization.

Everything here works through one small evaluator protocol: a callable
(axes, alpha) -> grid of D^alpha values on the tensor grid spanned by the
per-axis point arrays.  A discrete field's bound eval_grid is one; constant
axial extensions of cross-section fields, differences, cutoff products, and
analytic solutions all become interchangeable with it under the quadrature.
"""

import csv
import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from .expr import format_number
from .multiindex import enumerate_upto, multi_binom, sub, sub_indices
from .splines import cells_for, composite_gauss

_EPS = 1e-12

# errors below this sit at the discretization/solver floor, not on the decay
FLOOR = 1e-12

# the ErrorRecord fields the CSV report carries, in column order
CSV_FIELDS = (
    "ell", "dofs", "err_L2", "err_Hm", "err_H2m_interior", "norm_ul_Hm_full",
    "lemma19_ratio", "solver_residual", "wall_time_s",
)
CSV_HEADER = ",".join(CSV_FIELDS)


# ---------------------------------------------------------------------------
# evaluators

class ExtensionEvaluator:
    """Constant axial extension of a cross-section field: axial derivatives
    vanish, cross-sectional derivatives broadcast along the axial axes."""

    def __init__(self, cross_field, p: int):
        self._cross = cross_field
        self.p = int(p)

    def __call__(self, axes, alpha):
        shape = tuple(len(a) for a in axes)
        if any(alpha[k] > 0 for k in range(self.p)):
            return np.zeros(shape)
        vals = self._cross.eval_grid(list(axes[self.p :]), tuple(alpha[self.p :]))
        return np.broadcast_to(vals.reshape((1,) * self.p + vals.shape), shape)


class DifferenceEvaluator:
    def __init__(self, left, right):
        self._left = left
        self._right = right

    def __call__(self, axes, alpha):
        return self._left(axes, alpha) - self._right(axes, alpha)


# ---------------------------------------------------------------------------
# quadrature and norms

def _gauss_grid(box, resolution: int, points_per_cell: int):
    """Per-axis composite Gauss nodes over the box and their tensor weights."""
    axes = []
    W = np.ones(())
    for lo, hi in box:
        if not lo < hi:
            raise ValueError(f"empty box extent ({lo}, {hi})")
        pts, wts = composite_gauss((lo, hi), cells_for((lo, hi), resolution), points_per_cell)
        axes.append(pts)
        W = np.multiply.outer(W, wts)
    return axes, W


def norm_Hm(evaluator, box, m: int, resolution: int, points_per_cell: int = 3) -> float:
    """sqrt of sum over |alpha| <= m of the Gauss-quadrature integral of
    (D^alpha u)^2 over the box."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    axes, W = _gauss_grid(box, resolution, points_per_cell)
    total = 0.0
    for alpha in enumerate_upto(len(box), m):
        vals = np.asarray(evaluator(axes, alpha), dtype=np.float64)
        total += float(np.sum(W * vals**2))
    return float(np.sqrt(total))


def _split_p(u_l, u_inf) -> int:
    p = u_l.basis.naxes - u_inf.basis.naxes
    if p < 1:
        raise ValueError("cross-section field must have fewer axes than the full field")
    return p


def error_Hm(u_l, u_inf, ell0: float, m: int, resolution: int) -> float:
    """H^m distance between u_l and the extension of u_inf on the inner
    cylinder (-ell0, ell0)^p x omega."""
    p = _split_p(u_l, u_inf)
    domain = u_l.basis.domain
    for lo, hi in domain[:p]:
        if ell0 > hi + _EPS or -ell0 < lo - _EPS:
            raise ValueError(f"inner half-length {ell0} exceeds the domain {domain[:p]}")
    box = [(-float(ell0), float(ell0))] * p + list(domain[p:])
    w = DifferenceEvaluator(u_l.eval_grid, ExtensionEvaluator(u_inf, p))
    return norm_Hm(w, box, m, resolution)


def lemma19_check(records) -> tuple[float, bool]:
    """Boundedness of the per-record ratio against 3x the first record's."""
    ratios = [r.lemma19_ratio for r in records]
    if not ratios:
        raise ValueError("no records")
    max_ratio = max(ratios)
    return max_ratio, max_ratio <= 3.0 * ratios[0]


# ---------------------------------------------------------------------------
# cutoff and localized energy

class CutoffRho:
    """C^m piecewise-polynomial plateau bump: 1 on [-1/2, 1/2], polynomial
    bridge of degree 2m+1 down to 0 at |t| = 1, zero outside.

    The bridge is the integral of (s(1-s))^m normalized to run from 0 to 1,
    so m derivatives vanish at both joints and max |rho'| stays bounded by a
    constant depending only on m.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.m = int(m)
        kernel = Polynomial([0.0, 1.0]) ** m * Polynomial([1.0, -1.0]) ** m
        s_poly = kernel.integ()
        s_poly = s_poly / s_poly(1.0)
        self._bridge = [s_poly]
        for _ in range(2 * m + 1):
            self._bridge.append(self._bridge[-1].deriv())

    def profile(self, t, der: int = 0):
        """der-th derivative of the 1D profile at t (vectorized, even in t)."""
        if der >= len(self._bridge):
            return np.zeros_like(np.asarray(t, dtype=np.float64))
        t = np.asarray(t, dtype=np.float64)
        a = np.abs(t)
        out = np.zeros_like(a)
        if der == 0:
            out[a <= 0.5] = 1.0
        bridge = (a > 0.5) & (a < 1.0)
        if np.any(bridge):
            s = 2.0 * a[bridge] - 1.0
            vals = -self._bridge[der](s) * 2.0**der
            if der % 2 == 1:
                vals = vals * np.sign(t[bridge])
            if der == 0:
                vals = 1.0 + vals  # rho = 1 - S(s)
            out[bridge] = vals
        return out

    def derivative_bound(self, der: int, samples: int = 4001) -> float:
        t = np.linspace(-1.0, 1.0, samples)
        return float(np.abs(self.profile(t, der)).max())


class CutoffEvaluator:
    """Product over the axes of rho((x_k - c_k) / w_k), with one window
    (c_k, w_k) or None per axis; an axis with None contributes the factor 1.
    Each derivative on a windowed axis carries a factor 1 / w_k."""

    def __init__(self, rho: CutoffRho, windows):
        self._rho = rho
        self._windows = list(windows)
        for win in self._windows:
            if win is not None and not win[1] > 0:
                raise ValueError(f"cutoff width must be positive, got {win[1]}")

    def __call__(self, axes, alpha):
        out = np.ones(())
        for x, a, win in zip(axes, alpha, self._windows):
            if win is None:
                if a > 0:
                    return np.zeros(tuple(len(ax) for ax in axes))
                vals = np.ones(len(x))
            else:
                c, w = win
                vals = self._rho.profile((np.asarray(x, dtype=np.float64) - c) / w, a) / w**a
            out = np.multiply.outer(out, vals)
        return out


class ProductEvaluator:
    """Leibniz product of two evaluators: D^alpha(fg) expanded exactly."""

    def __init__(self, left, right):
        self._left = left
        self._right = right

    def __call__(self, axes, alpha):
        alpha = tuple(alpha)
        shape = tuple(len(a) for a in axes)
        out = np.zeros(shape)
        for beta in sub_indices(alpha):
            gamma = sub(alpha, beta)
            out += (
                multi_binom(alpha, beta)
                * self._left(axes, beta)
                * self._right(axes, gamma)
            )
        return out


def localized_energy(u_l, u_inf, ell1: float, m: int, resolution: int) -> float:
    """H^m norm of (u_l - extension of u_inf) * rho(X1/ell1) over Omega_ell1."""
    p = _split_p(u_l, u_inf)
    domain = u_l.basis.domain
    if ell1 > domain[0][1] + _EPS:
        raise ValueError(f"scale {ell1} exceeds the axial half-length {domain[0][1]}")
    n = u_l.basis.naxes
    w = DifferenceEvaluator(u_l.eval_grid, ExtensionEvaluator(u_inf, p))
    rho = CutoffEvaluator(CutoffRho(m), [(0.0, ell1)] * p + [None] * (n - p))
    box = [(-float(ell1), float(ell1))] * p + list(domain[p:])
    return norm_Hm(ProductEvaluator(w, rho), box, m, resolution)


# ---------------------------------------------------------------------------
# interior residual of the two-solution identity

def galerkin_interior_residual(
    u_l, u_inf, spec, ell: float, resolution: int, margin: float = 1.0
) -> float:
    """max over a family of interior C^m bump test functions phi of
    |sum_pairs integral a_ab D^a(u_l - ext u_inf) D^b phi|.

    The bumps live outside the trial space, so the value measures how far the
    discrete pair is from satisfying the continuous interior identity; it
    shrinks with the mesh.  Bump supports are unit boxes centered on integer
    axial points well inside (-ell, ell), times a bump spanning the
    cross-section.
    """
    p = _split_p(u_l, u_inf)
    m = spec.m
    rho = CutoffRho(m)
    reach = int(np.floor(ell - margin - 1.0 + _EPS))
    if reach < 0:
        raise ValueError(f"no room for unit bumps inside ell={ell} with margin {margin}")
    axial_centers = range(-reach, reach + 1)
    cross_windows = [(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in u_l.basis.domain[p:]]
    degree = max(f.degree for f in u_l.basis.factors)
    ppc = (degree + 2 * m + 3) // 2 + 1
    w = DifferenceEvaluator(u_l.eval_grid, ExtensionEvaluator(u_inf, p))

    worst = 0.0
    for axial in itertools.product(axial_centers, repeat=p):
        windows = [(float(c), 1.0) for c in axial] + cross_windows
        axes, W = _gauss_grid([(c - h, c + h) for c, h in windows], resolution, ppc)
        phi = CutoffEvaluator(rho, windows)
        grids = np.meshgrid(*axes, indexing="ij")
        total = 0.0
        for (alpha, beta), coef in sorted(spec.coefficients.items()):
            a_vals = np.broadcast_to(coef(tuple(grids)), grids[0].shape)
            total += float(np.sum(W * a_vals * w(axes, alpha) * phi(axes, beta)))
        worst = max(worst, abs(total))
    return worst


# ---------------------------------------------------------------------------
# rate fitting

@dataclass(frozen=True)
class RateFit:
    rate: float
    included: tuple
    floor_detected: bool


def fit_rate(points) -> RateFit:
    """Least-squares slope of log(err) against log(ell), floor points excluded.

    A point lands on the floor when it fails to improve on its predecessor by
    10% (computed on raw consecutive pairs) or when its error sits below
    FLOOR.  Fewer than 3 surviving points is an error.
    """
    ells = np.array([float(e) for e, _ in points])
    errs = np.array([float(v) for _, v in points])
    if len(points) < 3:
        raise ValueError(f"need at least 3 points, got {len(points)}")
    if np.any(errs <= 0.0):
        raise ValueError("errors must be positive to fit a rate")
    if np.any(np.diff(ells) <= 0.0):
        raise ValueError("ell values must be strictly increasing")
    included = np.ones(len(points), dtype=bool)
    for i in range(len(points) - 1):
        if errs[i + 1] / errs[i] > 0.9:
            included[i + 1] = False
    included &= errs >= FLOOR
    if included.sum() < 3:
        raise ValueError(
            f"fewer than 3 usable points after floor exclusion "
            f"({int(included.sum())} of {len(points)})"
        )
    x = np.log(ells[included])
    y = np.log(errs[included])
    xbar = x.mean()
    slope = float(((x - xbar) * (y - y.mean())).sum() / ((x - xbar) ** 2).sum())
    return RateFit(-slope, tuple(bool(b) for b in included), bool(not included.all()))


# ---------------------------------------------------------------------------
# records and reports

@dataclass
class ErrorRecord:
    ell: float
    dofs: int
    err_L2: float
    err_Hm: float
    err_H2m_interior: float
    norm_ul_Hm_full: float
    lemma19_ratio: float
    solver_residual: float
    wall_time_s: float
    solver_iterations: int = 0
    interior_alpha: dict = field(default_factory=dict)
    n1_full_alpha: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in (
            "err_L2",
            "err_Hm",
            "err_H2m_interior",
            "norm_ul_Hm_full",
            "lemma19_ratio",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        # the H^m sum includes the L2 term, so this holds up to roundoff
        if self.err_L2 > self.err_Hm * (1.0 + _EPS) + 1e-300:
            raise ValueError("err_Hm must dominate err_L2")


@dataclass
class ConvergenceReport:
    problem_name: str
    problem_hash: str
    plan: dict
    records: list
    fitted_rate_Hm: float | None
    fitted_rate_H2m: float | None
    floor_detected: bool
    hypothesis: object
    localized_table: list = field(default_factory=list)
    rate_masks: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def __post_init__(self):
        ells = [r.ell for r in self.records]
        if any(b <= a for a, b in zip(ells, ells[1:])):
            raise ValueError("records must be strictly increasing in ell")


def _csv_cell(record: ErrorRecord, name: str) -> str:
    if name == "wall_time_s":
        return "0.0"
    value = getattr(record, name)
    if name in ("ell", "dofs"):
        return format_number(value)
    return repr(float(value))


def write_report_csv(report: ConvergenceReport, path) -> None:
    """Deterministic CSV: wall_time_s is pinned to 0.0 so byte-identical
    reruns stay byte-identical; real timings live in the JSON report."""
    lines = [CSV_HEADER]
    for r in report.records:
        lines.append(",".join(_csv_cell(r, name) for name in CSV_FIELDS))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def report_to_dict(report: ConvergenceReport) -> dict:
    from . import __version__

    hyp = report.hypothesis
    hyp_dict = None
    if hyp is not None:
        hyp_dict = dict(asdict(hyp), passed=hyp.passed)
    return {
        "version": __version__,
        "problem": {"name": report.problem_name, "config_sha256": report.problem_hash},
        "plan": dict(report.plan),
        "records": [asdict(r) for r in report.records],
        "fitted_rate_Hm": report.fitted_rate_Hm,
        "fitted_rate_H2m": report.fitted_rate_H2m,
        "floor_detected": report.floor_detected,
        "rate_masks": {k: list(v) for k, v in report.rate_masks.items()},
        "localized_energy": [
            {"ell1": e, "value": v} for e, v in report.localized_table
        ],
        "hypothesis_report": hyp_dict,
        "warnings": list(report.warnings),
        "timings": dict(report.timings),
    }


def write_report_json(report: ConvergenceReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_refinement_csv(rows, path) -> None:
    """Refinement study table; one row per resolution."""
    header = ["resolution", "h", "dofs_limit", "err_Hm_limit", "order", "err_Hm_cyl_vs_limit"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    format_number(row["resolution"]),
                    repr(float(row["h"])),
                    str(int(row["dofs_limit"])),
                    repr(float(row["err_Hm_limit"])),
                    "" if row["order"] is None else repr(float(row["order"])),
                    ""
                    if row.get("err_Hm_cyl_vs_limit") is None
                    else repr(float(row["err_Hm_cyl_vs_limit"])),
                ]
            )
