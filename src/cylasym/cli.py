"""Command-line front end: sweep, refine, validate.

Exit codes: 0 success, 1 configuration or usage error (an assembly failure
included), 2 structural hypothesis failure, 3 solver failure, 4 a sweep
worker process (--workers > 1) exited without its results.
"""

import argparse
import os
import sys

from .assembly import AssemblyError
from .harness import HypothesisError, SweepPlan, WorkerError, run_refinement, run_sweep
from .linalg import SolverError
from .problem import (
    ProblemConfigError,
    builtin_names,
    builtin_problem,
    load_problem,
    validate_hypotheses,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2
EXIT_SOLVER = 3
EXIT_WORKER = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # hypothesis-failure code; route usage problems to exit 1 instead
    def error(self, message):
        raise _UsageError(message)


def _resolve_problem(source: str):
    if source in builtin_names():
        return builtin_problem(source)
    if os.path.exists(source):
        return load_problem(source)
    raise ProblemConfigError(
        f"unknown problem {source!r}: not a builtin "
        f"({', '.join(builtin_names())}) and not a config file"
    )


def _float_list(text: str):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise _UsageError(f"expected comma-separated numbers, got {text!r}")


def _int_list(text: str):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {text!r}")


def _degree(text: str):
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"--degree takes an integer or 'auto', got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cylasym", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="solve over growing ell and fit decay rates")
    sweep.add_argument("--problem", required=True, help="builtin name or config path")
    sweep.add_argument("--l", default="2,4,8,16", help="comma-separated half-lengths")
    sweep.add_argument("--l0", type=float, default=1.0, help="inner half-length")
    sweep.add_argument("--cells-per-unit", type=int, default=16)
    sweep.add_argument("--degree", default="auto", help="spline degree or 'auto' (m+1)")
    sweep.add_argument("--interior-margin", type=float, default=0.25)
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--out-csv", default=None)
    sweep.add_argument("--out-json", default=None)

    refine = sub.add_parser("refine", help="grid refinement against the analytic limit")
    refine.add_argument("--problem", required=True)
    refine.add_argument("--l", type=float, default=2.0, help="fixed half-length")
    refine.add_argument("--cells", default="8,16,32,64", help="cells per unit, comma-separated")
    refine.add_argument("--degree", default="auto")
    refine.add_argument("--out-csv", default=None)

    validate = sub.add_parser("validate", help="check structural hypotheses")
    validate.add_argument("--problem", required=True)
    return parser


def _cmd_sweep(args) -> int:
    spec = _resolve_problem(args.problem)
    plan = SweepPlan(
        spec=spec,
        source=args.problem,
        ells=_float_list(args.l),
        ell0=args.l0,
        resolution=args.cells_per_unit,
        degree=_degree(args.degree),
        interior_margin=args.interior_margin,
        workers=args.workers,
        out_csv=args.out_csv,
        out_json=args.out_json,
    )
    report = run_sweep(plan)
    for r in report.records:
        print(
            f"ell={r.ell:g} dofs={r.dofs} err_Hm={r.err_Hm:.6e} "
            f"interior={r.err_H2m_interior:.6e} ratio={r.lemma19_ratio:.4f}"
        )
    if report.fitted_rate_Hm is not None:
        print(f"fitted rate (H^m): {report.fitted_rate_Hm:.3f}")
    if report.fitted_rate_H2m is not None:
        print(f"fitted rate (interior): {report.fitted_rate_H2m:.3f}")
    if report.predicted_rate is not None:
        print(f"predicted rate: {report.predicted_rate:.7f}")
    if report.floor_detected:
        print("note: discretization floor detected; floored points excluded from fits")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.out_csv:
        print(f"wrote {args.out_csv}")
    if args.out_json:
        print(f"wrote {args.out_json}")
    return EXIT_OK


def _cmd_refine(args) -> int:
    spec = _resolve_problem(args.problem)
    rows, fit = run_refinement(
        spec,
        ell=args.l,
        resolutions=_int_list(args.cells),
        degree=_degree(args.degree),
        out_csv=args.out_csv,
    )
    for row in rows:
        order = "-" if row["order"] is None else f"{row['order']:.3f}"
        print(
            f"cells/unit={row['resolution']} h={row['h']:.5f} "
            f"err_Hm_limit={row['err_Hm_limit']:.6e} order={order} "
            f"cyl_vs_limit={row['err_Hm_cyl_vs_limit']:.6e}"
        )
    if fit is not None:
        print(f"observed order (fit): {fit.rate:.3f}")
    else:
        print("observed order (fit): not available (errors at floor)")
    if args.out_csv:
        print(f"wrote {args.out_csv}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    spec = _resolve_problem(args.problem)
    report = validate_hypotheses(spec)
    for line in report.summary_lines():
        print(line)
    if not report.passed:
        return EXIT_HYPOTHESIS
    print("hypotheses: ok")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "refine":
            return _cmd_refine(args)
        return _cmd_validate(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProblemConfigError, ValueError, OSError, AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except WorkerError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return EXIT_WORKER
    except MemoryError as exc:
        # numpy's message names the array it could not allocate
        where = f"problem {args.problem}: " if args else ""
        print(f"error: {where}out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
