"""Norms, decay diagnostics, rate fitting, and report serialization.

The sweep measures u_l - ext(u_inf), ext the constant axial extension.
difference_field builds it once, as a DiscreteField: the unconstrained
axial splines, which sum to 1, times the cross-section factors u_inf owns,
with the exact coefficients pad(C_l) - 1 x U_inf.  Every consumer reads that
field: the norms below integrate it, and the interior estimates in fdcalc
apply their lattice matrices to its coefficients.

Every norm is a composite Gauss rule (3 points per cell by default) on the
tensor grid of a box.  Two integrators apply it, equal in exact arithmetic:

- a spline field's norms are Kronecker quadratic forms of its coefficients.
  With tensor weights, sum_q W_q (D^alpha u)^2 = X : (G_1^(alpha_1) x .. x
  G_n^(alpha_n)) X, where G_k^(a) is the banded 1-D Gram matrix of the a-th
  derivatives of the axis-k basis functions on the same Gauss points
  (splines.axis_grams), applied along its axis in assembly's band layout.
  Every cutoff-free Gram band of a norm here (a factor's whole extent, and
  the inner cylinder (-ell0, ell0) of error_Hm when its ends are
  breakpoints d cells or more inside the axial factor) is placed from a
  reference on unit cells, not summed over the Gauss points, anew on every
  call, which costs microseconds.  The plateau cutoff of the localized
  energy is folded into the axial Grams by Leibniz; those Grams, and those of a
  box off the cell grid, are summed over the points.  Each alpha's part is clamped at zero, since a form can round
  below zero where a grid sum of squares cannot; error_Hm returns err_L2,
  the alpha = 0 part of its pass, with err_Hm.
- any other function is an evaluator: a callable (axes, alpha) -> grid of
  D^alpha values on the tensor grid spanned by the per-axis point arrays,
  summed as W * values**2.  A discrete field's bound eval_grid is one, and
  so are analytic solutions; the refinement study's analytic reference and
  the tests' oracles use these.
"""

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .assembly import band_apply, kron_applied, zero_padded
from .expr import format_number
from .multiindex import enumerate_upto
from .splines import (
    NORM_POINTS_PER_CELL,
    DiscreteField,
    SplineBasis1D,
    TensorBasis,
    axis_grams,
    gauss_axis,
)

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
# quadrature and norms

def _gauss_grid(box, resolution: int, points_per_cell: int):
    """Per-axis composite Gauss nodes over the box and their tensor weights."""
    axes = []
    W = np.ones(())
    for extent in box:
        pts, wts = gauss_axis(extent, resolution, points_per_cell)
        axes.append(pts)
        W = np.multiply.outer(W, wts)
    return axes, W


def _kron_parts(u, box, m: int, resolution: int, points_per_cell: int = NORM_POINTS_PER_CELL,
                axial: int = 0, cutoff=None):
    """Per |alpha| <= m, in enumerate_upto order, the Gauss-rule integral of
    (D^alpha u)^2 over the box for the DiscreteField u:
    max(0, X : (G_1^(alpha_1) x .. x G_n^(alpha_n)) X), X its coefficients,
    each band applied along its axis, first to last (assembly.kron_applied,
    so the alphas that share a prefix alpha_1..alpha_k share its k band
    applications).

    The cutoff, if any, multiplies the first `axial` factors.  The
    quadratic form equals the grid sum in exact arithmetic but can round
    below zero where the grid sum of squares cannot, hence the clamp.
    """
    rows, bands = zip(*(axis_grams(f, extent, m, resolution, points_per_cell,
                                   cutoff if k < axial else None)
                        for k, (f, extent) in enumerate(zip(u.basis.factors, box))))
    X = u.coeffs[rows]
    products = kron_applied(X, enumerate_upto(len(box), m),
                            lambda k, a, Y: band_apply(bands[k][a], Y, k))
    return [max(0.0, float(np.sum(X * Y))) for Y in products]


def norm_Hm(u, box, m: int, resolution: int,
            points_per_cell: int = NORM_POINTS_PER_CELL) -> float:
    """sqrt of sum over |alpha| <= m of the Gauss-quadrature integral of
    (D^alpha u)^2 over the box.

    u is a DiscreteField, whose norm is its Kronecker quadratic form, or an
    evaluator, whose D^alpha values are summed on the tensor Gauss grid.
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if isinstance(u, DiscreteField):
        if len(box) != u.basis.naxes:
            raise ValueError(f"box has {len(box)} axes, the field {u.basis.naxes}")
        parts = _kron_parts(u, box, m, resolution, points_per_cell)
        return float(np.sqrt(sum(parts)))
    axes, W = _gauss_grid(box, resolution, points_per_cell)
    total = 0.0
    for alpha in enumerate_upto(len(box), m):
        vals = np.asarray(u(axes, alpha), dtype=np.float64)
        total += float(np.sum(W * vals**2))
    return float(np.sqrt(total))


def _layout(factor):
    return (factor.lo, factor.hi, factor.cells, factor.degree, factor.bc_order)


def difference_field(u_l, u_inf):
    """(p, w): w = u_l - ext(u_inf) as a DiscreteField, p its axial axes.

    w lives on the unconstrained axial splines (bc_order 0) times u_inf's own
    cross-section factors.  Its coefficients pad(C_l) - 1 x U_inf are exact:
    the unconstrained axial functions sum to 1, and both fields share their
    cross-section factors.
    """
    p = u_l.basis.naxes - u_inf.basis.naxes
    if p < 1:
        raise ValueError("cross-section field must have fewer axes than the full field")
    factors = u_l.basis.factors
    if [_layout(f) for f in factors[p:]] != [_layout(f) for f in u_inf.basis.factors]:
        raise ValueError("u_l and u_inf must share their cross-section spline factors")
    axial = [SplineBasis1D(f.lo, f.hi, f.cells, f.degree, 0) for f in factors[:p]]
    pad = [f.bc_order for f in factors[:p]] + [0] * (len(factors) - p)
    basis = TensorBasis(axial + list(u_inf.basis.factors))
    return p, DiscreteField(basis, zero_padded(u_l.coeffs, pad) - u_inf.coeffs)


def error_Hm(p: int, w, ell0: float, m: int, resolution: int):
    """(err_L2, err_Hm): the L2 and H^m distances between u_l and the
    extension of u_inf on the inner cylinder (-ell0, ell0)^p x omega, from
    their difference (p, w) = difference_field(u_l, u_inf).

    One Kronecker pass gives both: err_L2 is the root of its alpha = 0 part,
    bit for bit the value of a pass with m = 0.
    """
    domain = w.basis.domain
    for lo, hi in domain[:p]:
        if ell0 > hi + _EPS or -ell0 < lo - _EPS:
            raise ValueError(f"inner half-length {ell0} exceeds the domain {domain[:p]}")
    box = [(-float(ell0), float(ell0))] * p + list(domain[p:])
    parts = _kron_parts(w, box, m, resolution)
    return float(np.sqrt(parts[0])), float(np.sqrt(sum(parts)))


def lemma19_check(records) -> tuple[float, bool]:
    """Boundedness of the per-record ratio against 3x the first record's."""
    ratios = [r.lemma19_ratio for r in records]
    if not ratios:
        raise ValueError("no records")
    max_ratio = max(ratios)
    return max_ratio, max_ratio <= 3.0 * ratios[0]


# ---------------------------------------------------------------------------
# cutoff and localized energy

def _power(coef, m: int):
    """Coefficients of the m-th power of a polynomial, by m - 1 convolutions."""
    coef = np.array(coef)
    out = coef
    for _ in range(m - 1):
        out = np.convolve(out, coef)
    return out


class CutoffRho:
    """C^m piecewise-polynomial plateau bump: 1 on [-1/2, 1/2], polynomial
    bridge of degree 2m+1 down to 0 at |t| = 1, zero outside.

    The bridge is the integral of (s(1-s))^m normalized to run from 0 to 1,
    so m derivatives vanish at both joints and max |rho'| stays bounded by a
    constant depending only on m.  Its coefficients are plain arrays, built
    with the arithmetic of numpy.polynomial.Polynomial (convolution, then
    term by term integration and differentiation) and evaluated by Horner's
    rule in np.polyval, so the values are Polynomial's bit for bit.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.m = int(m)
        # lowest degree first while building
        kernel = np.convolve(_power((0.0, 1.0), m), _power((1.0, -1.0), m))
        s_coef = np.concatenate(([0.0], kernel / np.arange(1, kernel.size + 1)))
        s_coef = s_coef / np.polyval(s_coef[::-1], 1.0)
        bridge = [s_coef]
        for _ in range(2 * m + 1):
            c = bridge[-1]
            bridge.append(c[1:] * np.arange(1, c.size))
        self._bridge = [c[::-1] for c in bridge]  # np.polyval's order

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
            vals = -np.polyval(self._bridge[der], s) * 2.0**der
            if der % 2 == 1:
                vals = vals * np.sign(t[bridge])
            if der == 0:
                vals = 1.0 + vals  # rho = 1 - S(s)
            out[bridge] = vals
        return out


def localized_energy(p: int, w, ell1: float, m: int, resolution: int) -> float:
    """H^m norm of (u_l - extension of u_inf) * rho(X1/ell1) over Omega_ell1,
    from their difference (p, w) = difference_field(u_l, u_inf)."""
    domain = w.basis.domain
    if ell1 > domain[0][1] + _EPS:
        raise ValueError(f"scale {ell1} exceeds the axial half-length {domain[0][1]}")
    box = [(-float(ell1), float(ell1))] * p + list(domain[p:])
    parts = _kron_parts(w, box, m, resolution, axial=p, cutoff=(CutoffRho(m), float(ell1)))
    return float(np.sqrt(sum(parts)))


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
    solver_method: str = ""
    backward_error: float | None = None
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
    predicted_rate: float | None = None
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
        "predicted_rate": report.predicted_rate,
        "floor_detected": report.floor_detected,
        "rate_masks": {k: list(v) for k, v in report.rate_masks.items()},
        "localized_energy": [
            {"ell1": e, "value": v, "below_floor": bool(v < FLOOR)}
            for e, v in report.localized_table
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
                    repr(float(row["err_Hm_cyl_vs_limit"])),
                ]
            )
