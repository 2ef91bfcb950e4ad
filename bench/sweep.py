"""One benchmark child process: set up a workload, run one sweep, gate it.

    python3 bench/sweep.py --workload NAME --seed N --mode setup|sweep|trace \
        --workers K --tmp DIR

Prints one JSON line.  Set-up is the time from the start of this script to a
validated problem spec: importing the package and building the spec.  A
sweep is one `cylasym sweep` command, run in-process through `cli.main`, so
it covers the CLI, the process pool when K > 1, and the report writers.  The
trace mode runs the same command with spans around every layer call.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gate import check_report, failure, rate_rel_err  # noqa: E402
from spans import LAYERS, Tracer, failure_site, layer_self_times, named_self_times  # noqa: E402
from workloads import WORKLOADS, problem_spec  # noqa: E402


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children are the pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _versions() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _setup(workload, seed: int, tmp: Path):
    """Import the package, build and validate the spec; return the CLI source."""
    import cylasym
    from cylasym.problem import builtin_names, to_config_text, validate_hypotheses

    src = (ROOT / "src").resolve()
    if src not in Path(cylasym.__file__).resolve().parents:
        raise RuntimeError(f"imported cylasym from {cylasym.__file__}, not from {src}")
    spec = problem_spec(workload.problem, seed)
    hyp = validate_hypotheses(spec)
    if not hyp.passed:
        raise RuntimeError("; ".join(hyp.summary_lines()))
    if seed == 0 and workload.problem in builtin_names():
        return workload.problem
    path = tmp / "problem.cfg"
    path.write_text(to_config_text(spec))
    return str(path)


def _sweep_argv(workload, source: str, workers: int, tmp: Path) -> list:
    return [
        "sweep",
        "--problem", source,
        "--l", ",".join(f"{e:g}" for e in workload.ells),
        "--cells-per-unit", str(workload.resolution),
        "--workers", str(workers),
        "--out-csv", str(tmp / "sweep.csv"),
        "--out-json", str(tmp / "sweep.json"),
    ]


def _layer_metrics(tracer, stats, wall: float) -> dict:
    per_layer = layer_self_times(tracer.spans)
    named = named_self_times(tracer.spans)

    def t(*keys):
        return sum(named.get(k, 0.0) for k in keys)

    out = {f"{layer}.self_s": per_layer.get(layer, 0.0) for layer in LAYERS}
    out.update(
        {
            "linalg.solve_s": t(("linalg", "cg_jacobi"), ("linalg", "gmres_jacobi")),
            "linalg.ritz_s": t(("linalg", "smallest_ritz_estimate")),
            "assembly.cylinder_s": t(("assembly", "assemble_cylinder")),
            "assembly.limit_s": t(("assembly", "assemble_limit")),
            "splines.eval_grid_s": t(("splines", "eval_grid")),
            "analysis.norm_s": t(("analysis", "norm_Hm"), ("analysis", "error_Hm")),
            "analysis.localized_s": t(("analysis", "localized_energy")),
            "analysis.fit_s": t(("analysis", "fit_rate")),
            "fdcalc.interior_s": t(("fdcalc", "interior_derivative_error")),
            "problem.validate_s": t(("problem", "validate_hypotheses")),
            "cli.report_write_s": t(
                ("analysis", "write_report_csv"), ("analysis", "write_report_json")
            ),
            "trace.self_s": per_layer.get("trace", 0.0),
            "trace.wall_s": wall,
        }
    )
    out.update(stats)
    return out


def _run(workload, source: str, mode: str, workers: int, tmp: Path) -> dict:
    from cylasym.cli import main as cli_main

    argv = _sweep_argv(workload, source, workers, tmp)
    out = {}
    tracer = stats = None
    code = None
    failures = []
    sink = io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            if mode == "trace":
                from instrument import instrument

                tracer = Tracer()
                with instrument(tracer) as stats, tracer.span("cli", "main"):
                    code = cli_main(argv)
            else:
                code = cli_main(argv)
    except Exception as exc:  # a failed sweep is counted, not fatal
        failures.append(failure(None, "cli.main", f"{exc!r}"))
        traceback.print_exc(file=sys.stderr)
    wall = time.perf_counter() - t
    if tracer is not None:
        wall = tracer.spans[0].duration  # the root span, cli.main
    out["wall_s"] = wall
    out["peak_rss_mb"] = _peak_rss_mb()
    if code not in (0, None):
        failures.append(failure(None, "cli.main", f"exit code {code}"))
    if tracer is not None:
        stage, ell = failure_site(tracer.spans)
        for f in failures:
            f["stage"], f["l"] = stage or f["stage"], ell
        out["layers"] = _layer_metrics(tracer, stats, wall)
        out["spans"] = [s.__dict__ for s in tracer.spans]
    if failures:
        out["failures"] = failures
        return out
    report = json.loads((tmp / "sweep.json").read_text())
    out["csv_sha256"] = hashlib.sha256((tmp / "sweep.csv").read_bytes()).hexdigest()
    out["failures"] = check_report(report, workload.ref_rate)
    if not out["failures"]:
        out["rate_rel_err"] = rate_rel_err(report, workload.ref_rate)
    job_walls = [r["wall_time_s"] for r in report["records"]]
    out["critical_path_s"] = max(job_walls)
    out["pool_efficiency"] = sum(job_walls) / (workers * report["timings"]["total_s"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "sweep", "trace"))
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--tmp", required=True, type=Path)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    try:
        source = _setup(workload, args.seed, args.tmp)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        print(json.dumps({"failures": [failure(None, "setup", repr(exc))]}))
        return 1
    out = {"setup_s": time.perf_counter() - T0, "versions": _versions()}
    if args.mode != "setup":
        out.update(_run(workload, source, args.mode, args.workers, args.tmp))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
