"""Sweep orchestration: solve the cylinder family over growing half-lengths,
measure convergence to the cross-section limit, and emit reports.

run_sweep builds the half of the sweep that does not depend on l once, as
an assembly.CrossSection: the cross-section factors with their cached de
Boor tables, the cross-section block of every axial part, the load and, for
a two-part system, the pencil's eigenbasis, whose failure names the stage
`cross-section` (l = inf).  The limit system is its zero-axial-part block
and load, solved once in the parent, with the norm of u_inf; per-ell jobs
assemble only the axial pieces and are independent.
The jobs are split into min(workers, jobs) chains (_chains), the largest
ell first onto the least-loaded chain.  A lone chain, as with one worker or
one job, runs inline, the largest ell first, which allocates the largest
Cholesky factor before the smaller jobs have grown the heap.  With more
than one chain, every chain runs in a child of its own (_join_chains),
forked after the CrossSection, u_inf and its norm are built, so the child
inherits them instead of unpickling them, and sends back only one pickle
of its outcomes; the parent runs no job.
Records and reports still follow the plan's order, and when jobs fail the
error raised is that of the smallest failing ell, as a run in plan order
would raise.  Every number is computed from the same arrays inline and in a
child, so serial and parallel runs produce the same floating-point results.
The l_max job also computes the localized-energy table of its difference
field u_l - ext(u_inf), built once per job, so no job sends its solution
back.

_solve_system is the one place a system is solved and accepted, every
system alike, the limit system included.  A cylinder system that commutes
with reflections is solved on its parity blocks
(AssembledSystem.parity_blocks): its even half along every axial axis of an
even section (CrossSection.even: no coefficient reads an axial x_k, and
every pair has alpha_k + beta_k even on it, so u_l is even in x_k), times
each parity along each of the section's parity axes
(CrossSection.parity_axes), a block whose folded load is exactly zero left
out (the odd blocks along an axis whose coordinate the forcing does not
read, since the section places its load there from the stencil, even
bitwise); any other system, one with an n-D band or the cross-section
system, is solved whole.  The kernel is picked once, from the system's structure
(_kernel): a symmetric system of two Kronecker parts
(AssembledSystem.two_part) by fast diagonalization of its cross-section
pencil (linalg.kronecker_solve), any other symmetric system by banded
Cholesky of its lower band (linalg.cholesky_solve), and a nonsymmetric one
by banded LU of its general band (linalg.lu_solve).  All three call the
LAPACK of the OpenBLAS numpy has already mapped, so a sweep maps one BLAS.
The blocks are solved one after the other, each band written, factored and
freed before the next, and joined (AssembledSystem.joined).  The section's
blocks are placed from the stencil along the parity axes, so the full
system commutes with the reflections bitwise and its blocks drop no
coupling.  At
the biharmonic strip's 32 cells/unit, l = 16, the blocks turn one Cholesky
band of 12.3 MB (kd = 96; 24.6 MB unfolded) into the even block's band of
3.4 MB (kd = 51); f = 1 does not read x2, so the odd block, a band of
3.0 MB (kd = 48) for a forcing that reads x2, is left out.  The
backward-error check (linalg._accept) runs once, on
the joined x, with the full system's right-hand side, residual and |A|_inf,
all three from its pieces (AssembledSystem.matvec and inf_norm), so the
record's backward_error, solver_residual and dofs describe the full system.
Solver failures name the problem, ell and stage.
"""

import contextlib
import math
import os
import pickle
import signal
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (
    FLOOR,
    ConvergenceReport,
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
)
from .assembly import (
    CrossSection,
    _validate_degree,
    _where,
    assemble_cylinder,
    assemble_limit,
    check_half_length,
)
from .fdcalc import LatticeError, interior_derivative_error, lattice_counts
from .linalg import (
    BACKWARD_ERROR_TOL,
    _accept,
    cholesky_solve,
    kronecker_solve,
    lu_solve,
)
from .multiindex import encode, enumerate_upto, in_N1
# bench/instrument.py also patches parse_problem_config and to_config_text
# on this module, which no sweep calls any more
from .problem import (  # noqa: F401
    ProblemConfigError,
    ProblemSpec,
    analytic_limit,
    parse_problem_config,
    to_config_text,
    validate_hypotheses,
)
from .splines import DiscreteField, cells_for


def _no_krylov(*args, **kwargs):
    """The Krylov solvers are gone: every system is solved directly."""
    raise NotImplementedError(
        "the Krylov solvers are retired; bench/instrument.py still wraps their names "
        "until its solve hook moves to _solve_system (ROADMAP item 1)")


# bench/instrument.py wraps these three names on this module; no sweep calls them
cg_jacobi = gmres_jacobi = smallest_ritz_estimate = _no_krylov


class HypothesisError(RuntimeError):
    """The problem fails a structural hypothesis; solving would be meaningless."""


class WorkerError(RuntimeError):
    """A forked sweep worker exited without sending its outcomes back."""


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
        if not 0.0 < self.interior_margin < 0.5:
            raise ValueError("interior margin must lie strictly between 0 and 0.5")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if self.workers > 1 and not hasattr(os, "fork"):
            raise ValueError("more than 1 worker needs os.fork, which this platform lacks")
        if self.degree is not None and self.degree < self.spec.m:
            raise ValueError(
                f"degree {self.degree} cannot conform to order m = {self.spec.m}"
            )
        # every spline factor needs 2m + 1 cells, and the interior lattices
        # must fit inside the smallest cylinder
        spec, ell = self.spec, ells[0]
        name = spec.name or self.source or "unnamed"
        _check_cells(spec, name, self.resolution, ell, "the axial extent at the smallest l")
        h, lattices = _interior_lattices(spec, self.ell0, self.interior_margin, self.resolution)
        domain = [(-ell, ell)] * spec.p + list(spec.omega)
        for region, alphas in lattices:
            try:
                lattice_counts(region, domain, alphas, h, spec.p)
            except LatticeError as exc:
                raise ValueError(
                    f"problem {name}: the interior lattice of spacing h = 1/(2 resolution) "
                    f"= {h:g} does not fit in the smallest cylinder, l = {ell:g}: {exc}"
                ) from None

    @property
    def effective_degree(self) -> int:
        return _validate_degree(self.spec, self.degree)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "ells": list(self.ells),
            "ell0": self.ell0,
            "resolution": self.resolution,
            "degree": self.effective_degree,
            "interior_margin": self.interior_margin,
            "workers": self.workers,
            "backward_error_tol": BACKWARD_ERROR_TOL,
        }


def _check_cells(spec: ProblemSpec, name: str, resolution: int, ell: float, axial: str) -> None:
    """Raise ValueError, naming the problem, unless the resolution is at
    least 1 cell per unit length and every spline factor gets a finite
    number of cells at it, at least the 2m + 1 it needs: on the axial
    extent (-ell, ell), which the message calls `axial`, and on each extent
    of the cross-section."""
    if resolution < 1:
        raise ValueError(f"problem {name}: resolution {resolution} is below 1 cell per unit length")
    need = 2 * spec.m + 1
    for what, (lo, hi) in [(axial, (-ell, ell))] + [
        (f"the extent of x{spec.p + k + 1}", extent) for k, extent in enumerate(spec.omega)
    ]:
        try:
            finite = math.isfinite((hi - lo) * resolution)
        except OverflowError:  # a resolution beyond the largest float
            finite = False
        if not finite:
            raise ValueError(f"problem {name}: resolution {resolution} puts no finite number "
                             f"of cells on ({lo:g}, {hi:g}), {what}")
        cells = cells_for((lo, hi), resolution)
        if cells < need:
            raise ValueError(
                f"problem {name}: resolution {resolution} puts {cells} cells on "
                f"({lo:g}, {hi:g}), {what}, below 2m+1 = {need}"
            )


def _solve_system(system):
    """The SolveResult of the system: solved on its parity blocks when it
    folds (AssembledSystem.parity_blocks), by the one kernel its structure
    picks (_kernel), and accepted by the backward-error check on the full
    system's right-hand side, residual and |A|_inf."""
    where = _where(system.spec, "solve", system.ell)
    solve, method = _kernel(system, where)
    blocks = system.parity_blocks()
    if blocks is None:
        x = solve(system)
    else:  # one block after the other, each band freed before the next
        x = system.joined(blocks, [solve(block) for _, block in blocks])
    return _accept(x, system.rhs, system.inf_norm(), system.matvec, where, method)


def _kernel(system, where: str):
    """(solve, method): the kernel of the system's structure, called as
    solve(block) -> y on the system or any of its parity blocks, and its
    name."""
    if system.two_part:
        return (lambda block: kronecker_solve(block.axial_pencil(), system.section.eigenbasis,
                                              block.rhs, block.matvec, where),
                "fast_diagonalization")
    if system.symmetric:
        return (lambda block: cholesky_solve(block.lower_band(), block.rhs, where),
                "cholesky_banded")
    return (lambda block: lu_solve(block.general_band(), block.rhs, where)), "lu_banded"


def _shrunk(extent, margin: float):
    lo, hi = extent
    w = hi - lo
    return (lo + margin * w, hi - margin * w)


def interior_region(spec: ProblemSpec, ell0: float, margin: float):
    """Default region for the interior estimates: the middle of the inner
    cylinder, shrunk by the margin fraction per side on every axis."""
    axial = _shrunk((-ell0, ell0), margin)
    return [axial] * spec.p + [_shrunk(ext, margin) for ext in spec.omega]


def _interior_lattices(spec: ProblemSpec, ell0: float, margin: float, resolution: int):
    """(h, [(region, alphas), ...]) of the sweep's two interior estimates at
    lattice spacing h: every alpha of order at most m on the interior
    region, and the axial-only alphas (N1) on the whole inner cylinder."""
    alphas = enumerate_upto(spec.n, spec.m)
    full = [(-ell0, ell0)] * spec.p + list(spec.omega)
    return 1.0 / (2.0 * resolution), [
        (interior_region(spec, ell0, margin), alphas),
        (full, [a for a in alphas if in_N1(a, spec.p)]),
    ]


def _sweep_worker(args):
    """(record, localized) of one l: localized is the localized-energy
    table [(ell1, energy)] of the scales ell1 the job is given, which only
    the l_max job is, so that no u_l goes back to the parent."""
    section, u_inf, ell, ell0, margin, norm_u_inf, scales = args
    spec, resolution = section.spec, section.resolution
    t0 = time.perf_counter()
    # bench/instrument.py reads ell as a keyword
    system = assemble_cylinder(section, ell=ell)
    result = _solve_system(system)
    u_l = DiscreteField(system.basis, result.x)

    m, p = spec.m, spec.p
    _, w = difference_field(u_l, u_inf)
    err_L2, err_Hm_val = error_Hm(p, w, ell0, m, resolution)
    norm_full = norm_Hm(u_l, u_l.basis.domain, m, resolution)
    ratio = norm_full / (ell ** (p / 2.0) * norm_u_inf) if norm_u_inf > 0.0 else 0.0

    h_lat, lattices = _interior_lattices(spec, ell0, margin, resolution)
    interior, n1_full = (
        interior_derivative_error(w, p, alphas, region, h_lat, m=m) for region, alphas in lattices
    )
    total_sq = 0.0
    for est in interior.values():
        total_sq += est * est
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
        solver_method=result.method,
        backward_error=result.backward_error,
        interior_alpha={encode(a): est for a, est in interior.items()},
        n1_full_alpha={encode(a): est for a, est in n1_full.items()},
    )
    localized = [(ell1, localized_energy(p, w, ell1, m, resolution)) for ell1 in scales]
    return record, localized


def _chains(jobs, workers: int):
    """The job indices split into min(workers, len(jobs)) chains: the
    largest ell first, each onto the chain with the least ell so far."""
    chains = [[] for _ in range(min(workers, len(jobs)))]
    loads = [0.0] * len(chains)
    for k in sorted(range(len(jobs)), key=lambda k: -jobs[k][2]):
        c = loads.index(min(loads))
        chains[c].append(k)
        loads[c] += jobs[k][2]
    return chains


def _run_chain(jobs, chain):
    """{k: (ok, outcome)} of the jobs of the chain, run in its order:
    _sweep_worker's result, or the exception it raised."""
    outcomes = {}
    for k in chain:
        try:
            outcomes[k] = (True, _sweep_worker(jobs[k]))
        except Exception as exc:
            outcomes[k] = (False, exc)
    return outcomes


def _sendable(ell, outcome):
    """outcome, or (False, RuntimeError) carrying its repr when it does not
    survive a pickle round trip."""
    try:
        pickle.loads(pickle.dumps(outcome))
        return outcome
    except Exception:
        return False, RuntimeError(f"the outcome of the job at l = {ell:g} cannot be pickled: "
                                   f"{outcome[1]!r}")


def _fork_chain(jobs, chain):
    """(pid, read end of its pipe) of a child that runs the chain, writes
    one pickle of its outcomes to the pipe and exits; it never returns."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            outcomes = {k: _sendable(jobs[k][2], v) for k, v in _run_chain(jobs, chain).items()}
            with os.fdopen(w, "wb") as pipe:
                pipe.write(pickle.dumps(outcomes))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _join_chains(jobs, chains):
    """{k: (ok, outcome)} of every job, each chain run in a forked child.

    The parent reads each child's pipe to its end and reaps it.  A child
    that exits without its outcomes raises WorkerError; on any exception,
    KeyboardInterrupt included, the parent kills and reaps every child it
    has not reaped yet.
    """
    children = []  # (pid, pipe, chain) of the children not reaped yet
    try:
        for chain in chains:
            children.append(_fork_chain(jobs, chain) + (chain,))
        outcomes = {}
        while children:
            pid, pipe, chain = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            try:
                outcomes.update(pickle.loads(data))
            except Exception:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                name = jobs[0][0].spec.name or "unnamed"
                ells = ", ".join(f"{jobs[k][2]:g}" for k in chain)
                raise WorkerError(f"the sweep worker for problem {name} at l = {ells} exited "
                                  f"without its results (wait status {status}, {how})") from None
        return outcomes
    except BaseException:
        for pid, pipe, _ in children:
            pipe.close()
            with contextlib.suppress(OSError):  # it may have been reaped already
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise


def _run_jobs(jobs, workers: int):
    """Outcomes of the sweep jobs in plan order; the largest ell runs first.

    Every job runs even when one fails, and the error of the first failed
    job in plan order is raised, in one process or in several alike.
    """
    chains = _chains(jobs, workers)
    outcomes = _run_chain(jobs, chains[0]) if len(chains) == 1 else _join_chains(jobs, chains)
    failures = [k for k in sorted(outcomes) if not outcomes[k][0]]
    if failures:
        raise outcomes[failures[0]][1]
    return [outcomes[k][1] for k in range(len(jobs))]


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
    section = CrossSection(spec, plan.resolution, degree)
    limit_system = assemble_limit(section)
    limit_result = _solve_system(limit_system)
    u_inf = DiscreteField(limit_system.basis, limit_result.x)
    timings["limit_solve_s"] = time.perf_counter() - t0

    norm_u_inf = norm_Hm(u_inf, list(spec.omega), spec.m, plan.resolution)
    # the localized energies of u_{l_max} at l_max / 2, l_max / 4, ... down
    # to ell0, computed by the l_max job
    scales = []
    ell1 = plan.ells[-1] / 2.0
    while ell1 >= plan.ell0 - 1e-12:
        scales.append(ell1)
        ell1 /= 2.0
    jobs = [
        (section, u_inf, ell, plan.ell0, plan.interior_margin, norm_u_inf,
         scales if ell == plan.ells[-1] else [])
        for ell in plan.ells
    ]
    outcomes = _run_jobs(jobs, plan.workers)
    records = [rec for rec, _ in outcomes]
    localized = outcomes[-1][1]

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
    heuristic used by the rate fitter.  The geometry is checked, as a sweep
    plan checks it, before any assembly.
    """
    check_half_length(spec, ell)
    if not ell > ell0:
        raise ValueError(f"{_where(spec, 'run_refinement', ell)}: half-length must exceed "
                         f"l0 = {ell0:g}, that of the inner cylinder the error is measured on")
    resolutions = [int(r) for r in resolutions]
    if len(resolutions) < 3:
        raise ValueError(f"need at least 3 resolutions, got {len(resolutions)}")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("resolutions must be strictly increasing")
    for res in resolutions:
        _check_cells(spec, spec.name or "unnamed", res, ell, f"the axial extent at l = {ell:g}")
    exact = analytic_limit(spec.name)
    if exact is None:
        raise ProblemConfigError(
            f"no closed-form limit solution for {spec.name!r}; "
            "the refinement study needs one as the reference"
        )
    degree = _validate_degree(spec, degree)
    m = spec.m
    rows = []
    errs = []
    for res in resolutions:
        section = CrossSection(spec, res, degree)
        limit_system = assemble_limit(section)
        limit_result = _solve_system(limit_system)
        u_inf_h = DiscreteField(limit_system.basis, limit_result.x)

        def diff(axes, alpha):
            return u_inf_h.eval_grid(axes, alpha) - exact(axes[0], alpha[0])

        err = norm_Hm(diff, list(spec.omega), m, res, points_per_cell=degree + 1)
        errs.append(err)

        system = assemble_cylinder(section, ell=ell)
        result = _solve_system(system)
        u_l_h = DiscreteField(system.basis, result.x)
        _, cyl = error_Hm(*difference_field(u_l_h, u_inf_h), ell0, m, res)

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
