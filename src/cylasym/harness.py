"""Sweep orchestration: solve the cylinder family over growing half-lengths,
measure convergence to the cross-section limit, and emit reports.

The limit problem is solved once in the parent; per-ell jobs are independent
and run either inline or on a process pool.  Workers receive the problem as
canonical config text (cheap to pickle, bit-identical to re-parse), so serial
and parallel runs produce the same floating-point results.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import (
    FLOOR,
    ConvergenceReport,
    DifferenceEvaluator,
    ErrorRecord,
    error_Hm,
    fit_rate,
    lemma19_check,
    localized_energy,
    norm_Hm,
    write_report_csv,
    write_report_json,
    write_refinement_csv,
)
from .assembly import assemble_cylinder, assemble_limit, cylinder_factors
from .fdcalc import interior_derivative_error
from .linalg import cg_jacobi, gmres_jacobi, smallest_ritz_estimate
from .multiindex import encode, enumerate_upto, in_N1
from .problem import (
    ProblemConfigError,
    ProblemSpec,
    analytic_limit,
    parse_problem_config,
    to_config_text,
    validate_hypotheses,
)
from .splines import DiscreteField, TensorBasis


# relative residual every solve must reach
SOLVER_TOL = 1e-12


class HypothesisError(RuntimeError):
    """The problem fails a structural hypothesis; solving would be meaningless."""


@dataclass(frozen=True)
class SweepPlan:
    spec: ProblemSpec
    source: str = ""
    ells: tuple = (2.0, 4.0, 8.0, 16.0)
    ell0: float = 1.0
    resolution: int = 16
    degree: int | None = None  # None picks m+1
    interior_margin: float = 0.25
    workers: int = 1
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self):
        ells = tuple(float(e) for e in self.ells)
        object.__setattr__(self, "ells", ells)
        if len(ells) < 1:
            raise ValueError("need at least one ell value")
        for e in ells + (self.ell0,):
            if not np.isfinite(e):
                raise ValueError(f"ell and ell0 values must be finite, got {e}")
        if any(b <= a for a, b in zip(ells, ells[1:])):
            raise ValueError("ell values must be strictly increasing")
        if self.ell0 <= 0:
            raise ValueError(f"ell0 must be positive, got {self.ell0}")
        if min(ells) <= self.ell0:
            raise ValueError(
                f"smallest ell ({min(ells)}) must exceed ell0 ({self.ell0})"
            )
        if self.resolution < 2 * self.spec.m + 1:
            raise ValueError(
                f"resolution {self.resolution} below 2m+1 = {2 * self.spec.m + 1}"
            )
        if not 0.0 < self.interior_margin < 0.5:
            raise ValueError("interior margin must lie strictly between 0 and 0.5")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if self.degree is not None and self.degree < self.spec.m:
            raise ValueError(
                f"degree {self.degree} cannot conform to order m = {self.spec.m}"
            )

    @property
    def effective_degree(self) -> int:
        return self.degree if self.degree is not None else self.spec.m + 1

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "ells": list(self.ells),
            "ell0": self.ell0,
            "resolution": self.resolution,
            "degree": self.effective_degree,
            "interior_margin": self.interior_margin,
            "workers": self.workers,
            "solver_tol": SOLVER_TOL,
        }


def _solve_system(system):
    if system.symmetric:
        return cg_jacobi(system.matrix, system.rhs, tol=SOLVER_TOL)
    return gmres_jacobi(system.matrix, system.rhs, tol=SOLVER_TOL)


def _shrunk(extent, margin: float):
    lo, hi = extent
    w = hi - lo
    return (lo + margin * w, hi - margin * w)


def interior_region(spec: ProblemSpec, ell0: float, margin: float):
    """Default region for the interior estimates: the middle of the inner
    cylinder, shrunk by the margin fraction per side on every axis."""
    axial = _shrunk((-ell0, ell0), margin)
    return [axial] * spec.p + [_shrunk(ext, margin) for ext in spec.omega]


def _sweep_worker(args):
    (
        text,
        name,
        ell,
        ell0,
        resolution,
        degree,
        margin,
        u_inf_coeffs,
        norm_u_inf,
    ) = args
    spec = parse_problem_config(text, name)
    t0 = time.perf_counter()
    system = assemble_cylinder(spec, ell=ell, resolution=resolution, degree=degree)
    result = _solve_system(system)
    u_l = DiscreteField(system.basis, result.x)
    u_inf = DiscreteField(
        TensorBasis(cylinder_factors(spec, None, resolution, degree)), u_inf_coeffs
    )

    m, n, p = spec.m, spec.n, spec.p
    err_L2 = error_Hm(u_l, u_inf, ell0, 0, resolution)
    err_Hm_val = error_Hm(u_l, u_inf, ell0, m, resolution)
    norm_full = norm_Hm(u_l.eval_grid, u_l.basis.domain, m, resolution)
    ratio = norm_full / (ell ** (p / 2.0) * norm_u_inf) if norm_u_inf > 0.0 else 0.0

    h_lat = 1.0 / (2.0 * resolution)
    strict = interior_region(spec, ell0, margin)
    full = [(-ell0, ell0)] * p + list(spec.omega)
    interior_alpha = {}
    total_sq = 0.0
    for alpha in enumerate_upto(n, m):
        est = interior_derivative_error(u_l, u_inf, alpha, strict, h_lat, m=m)
        interior_alpha[encode(alpha)] = est
        total_sq += est * est
    n1_full_alpha = {}
    for alpha in enumerate_upto(n, m):
        if in_N1(alpha, p):
            n1_full_alpha[encode(alpha)] = interior_derivative_error(
                u_l, u_inf, alpha, full, h_lat, m=m
            )
    wall = time.perf_counter() - t0
    record = ErrorRecord(
        ell=float(ell),
        dofs=system.ndofs,
        err_L2=err_L2,
        err_Hm=err_Hm_val,
        err_H2m_interior=float(np.sqrt(total_sq)),
        norm_ul_Hm_full=norm_full,
        lemma19_ratio=ratio,
        solver_residual=result.residual,
        wall_time_s=wall,
        solver_iterations=result.iterations,
        interior_alpha=interior_alpha,
        n1_full_alpha=n1_full_alpha,
    )
    return record, result.x


def _try_fit(points, warnings, label):
    try:
        return fit_rate(points)
    except ValueError as exc:
        warnings.append(f"rate fit for {label} skipped: {exc}")
        return None


def run_sweep(plan: SweepPlan) -> ConvergenceReport:
    t_start = time.perf_counter()
    spec = plan.spec
    hyp = validate_hypotheses(spec)
    if not hyp.passed:
        raise HypothesisError("; ".join(hyp.summary_lines()))

    degree = plan.effective_degree
    warnings = []
    timings = {}

    t0 = time.perf_counter()
    limit_system = assemble_limit(spec, resolution=plan.resolution, degree=degree)
    limit_result = _solve_system(limit_system)
    u_inf = DiscreteField(limit_system.basis, limit_result.x)
    timings["limit_solve_s"] = time.perf_counter() - t0

    ritz = smallest_ritz_estimate(limit_system.matrix)
    if not ritz > 0.0:
        warnings.append(
            f"smallest Ritz estimate of the limit matrix is {ritz:.3e}; "
            "discrete coercivity is suspect"
        )

    norm_u_inf = norm_Hm(u_inf.eval_grid, list(spec.omega), spec.m, plan.resolution)
    text = to_config_text(spec)
    jobs = [
        (
            text,
            spec.name,
            ell,
            plan.ell0,
            plan.resolution,
            degree,
            plan.interior_margin,
            limit_result.x,
            norm_u_inf,
        )
        for ell in plan.ells
    ]
    if plan.workers > 1:
        with ProcessPoolExecutor(max_workers=min(plan.workers, len(jobs))) as pool:
            outcomes = list(pool.map(_sweep_worker, jobs))
    else:
        outcomes = [_sweep_worker(job) for job in jobs]
    records = [rec for rec, _ in outcomes]
    u_l_max = DiscreteField(
        TensorBasis(cylinder_factors(spec, plan.ells[-1], plan.resolution, degree)),
        outcomes[-1][1],
    )

    fit_hm = _try_fit([(r.ell, r.err_Hm) for r in records], warnings, "err_Hm")
    fit_int = _try_fit(
        [(r.ell, r.err_H2m_interior) for r in records], warnings, "err_H2m_interior"
    )
    floor = any(f is not None and f.floor_detected for f in (fit_hm, fit_int))
    if all(r.err_Hm < FLOOR for r in records):
        floor = True
        warnings.append("every record sits at the discretization floor")

    max_ratio, bounded = lemma19_check(records)
    if not bounded:
        warnings.append(
            f"extension-norm ratio grew to {max_ratio:.3g}, "
            "more than 3x the first record"
        )

    localized = []
    ell1 = plan.ells[-1] / 2.0
    while ell1 >= plan.ell0 - 1e-12:
        localized.append(
            (ell1, localized_energy(u_l_max, u_inf, ell1, spec.m, plan.resolution))
        )
        ell1 /= 2.0

    timings["total_s"] = time.perf_counter() - t_start
    report = ConvergenceReport(
        problem_name=spec.name or plan.source or "unnamed",
        problem_hash=spec.config_hash(),
        plan=plan.to_dict(),
        records=records,
        fitted_rate_Hm=None if fit_hm is None else fit_hm.rate,
        fitted_rate_H2m=None if fit_int is None else fit_int.rate,
        floor_detected=floor,
        hypothesis=hyp,
        localized_table=localized,
        rate_masks={
            k: v.included
            for k, v in (("err_Hm", fit_hm), ("err_H2m_interior", fit_int))
            if v is not None
        },
        warnings=warnings,
        timings=timings,
    )
    if plan.out_csv:
        write_report_csv(report, plan.out_csv)
    if plan.out_json:
        write_report_json(report, plan.out_json)
    return report


def run_refinement(
    spec: ProblemSpec,
    ell: float,
    resolutions,
    degree: int | None = None,
    ell0: float = 1.0,
    out_csv: str | None = None,
):
    """Grid-refinement study against the closed-form limit solution.

    Separates the h-discretization error from the ell-truncation error: the
    analytic column shrinks with resolution while the cylinder-vs-limit
    column stalls at the ell-dependent level, which calibrates the floor
    heuristic used by the rate fitter.
    """
    resolutions = [int(r) for r in resolutions]
    if len(resolutions) < 3:
        raise ValueError(f"need at least 3 resolutions, got {len(resolutions)}")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must be strictly increasing")
    exact = analytic_limit(spec.name)
    if exact is None:
        raise ProblemConfigError(
            f"no closed-form limit solution for {spec.name!r}; "
            "the refinement study needs one as the reference"
        )
    if degree is None:
        degree = spec.m + 1
    m = spec.m
    rows = []
    errs = []
    for res in resolutions:
        limit_system = assemble_limit(spec, resolution=res, degree=degree)
        limit_result = _solve_system(limit_system)
        u_inf_h = DiscreteField(limit_system.basis, limit_result.x)
        diff = DifferenceEvaluator(
            u_inf_h.eval_grid, lambda axes, alpha: exact(axes[0], alpha[0])
        )
        err = norm_Hm(diff, list(spec.omega), m, res, points_per_cell=degree + 1)
        errs.append(err)

        system = assemble_cylinder(spec, ell=ell, resolution=res, degree=degree)
        result = _solve_system(system)
        u_l_h = DiscreteField(system.basis, result.x)
        cyl = error_Hm(u_l_h, u_inf_h, ell0, m, res)

        order = None
        if len(errs) > 1 and errs[-1] > FLOOR and errs[-2] > FLOOR:
            order = float(
                np.log(errs[-2] / errs[-1]) / np.log(resolutions[len(errs) - 1] / resolutions[len(errs) - 2])
            )
        rows.append(
            {
                "resolution": res,
                "h": 1.0 / res,
                "dofs_limit": limit_system.ndofs,
                "err_Hm_limit": err,
                "order": order,
                "err_Hm_cyl_vs_limit": cyl,
            }
        )
    try:
        fit = fit_rate(list(zip([float(r) for r in resolutions], errs)))
    except ValueError:
        fit = None
    if out_csv:
        write_refinement_csv(rows, out_csv)
    return rows, fit
