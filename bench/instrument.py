"""Patch spans around the calls the package makes into each layer.

Nothing under src/ changes: the patches replace the names that `harness`
and `cli` imported (and `DiscreteField.eval_grid` on the class), and are
undone when the context exits.
"""

import tracemalloc
from contextlib import contextmanager

import numpy as np

import cylasym.cli as cli
import cylasym.harness as harness
from cylasym.splines import DiscreteField

_MB = float(2**20)


def backward_error(A, b, x) -> float:
    """Normwise backward error |b - Ax| / (|A| |x| + |b|) in the inf-norm."""
    r = b - A @ x
    a_norm = float(abs(A).sum(axis=1).max())
    denom = a_norm * float(np.abs(x).max()) + float(np.abs(b).max())
    return float(np.abs(r).max()) / denom if denom > 0.0 else 0.0


def _new_stats() -> dict:
    return {
        "linalg.iterations": 0,
        "linalg.solves": 0,
        "linalg.backward_err_max": 0.0,
        "assembly.nnz": 0,
        "assembly.peak_mb": 0.0,
        "assembly.csr_mb": 0.0,
        "splines.eval_grid_calls": 0,
        "splines.basis_matrix_mb": 0.0,
        "fdcalc.interior_calls": 0,
    }


def _with_peak_memory(fn, stats):
    # tracemalloc sees numpy's buffers; its cost on assembly's few large
    # allocations is within run-to-run noise
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            stats["assembly.peak_mb"] = max(stats["assembly.peak_mb"], peak / _MB)

    return measured


@contextmanager
def instrument(tracer):
    """Yield a stats dict of counts filled in while the patches are active."""
    stats = _new_stats()

    def after_solve(result, args, kwargs):
        stats["linalg.solves"] += 1
        stats["linalg.iterations"] += int(result.iterations)
        be = backward_error(args[0], np.asarray(args[1], dtype=np.float64), result.x)
        stats["linalg.backward_err_max"] = max(stats["linalg.backward_err_max"], be)

    def after_assemble(system, args, kwargs):
        A = system.matrix
        stats["assembly.nnz"] += int(A.nnz)
        csr = (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes) / _MB
        stats["assembly.csr_mb"] = max(stats["assembly.csr_mb"], csr)

    def after_interior(result, args, kwargs):
        stats["fdcalc.interior_calls"] += 1

    def after_eval_grid(result, args, kwargs):
        field, axes = args[0], args[1]
        stats["splines.eval_grid_calls"] += 1
        # the dense (points, dim) matrix basis_matrix builds per axis
        largest = max(len(ax) * f.dim * 8 for f, ax in zip(field.basis.factors, axes))
        stats["splines.basis_matrix_mb"] = max(stats["splines.basis_matrix_mb"], largest / _MB)

    def ell_kwarg(args, kwargs):
        return {"ell": float(kwargs["ell"])}

    def ell_of_job(args, kwargs):
        return {"ell": float(args[0][2])}

    patches = [
        (cli, "run_sweep", "harness", "run_sweep", None, None),
        (cli, "load_problem", "problem", "load_problem", None, None),
        (cli, "builtin_problem", "problem", "builtin_problem", None, None),
        (harness, "_sweep_worker", "harness", "sweep_worker", None, ell_of_job),
        (harness, "validate_hypotheses", "problem", "validate_hypotheses", None, None),
        (harness, "parse_problem_config", "problem", "parse_problem_config", None, None),
        (harness, "to_config_text", "problem", "to_config_text", None, None),
        (harness, "assemble_cylinder", "assembly", "assemble_cylinder", after_assemble, ell_kwarg),
        (harness, "assemble_limit", "assembly", "assemble_limit", after_assemble, None),
        (harness, "cg_jacobi", "linalg", "cg_jacobi", after_solve, None),
        (harness, "gmres_jacobi", "linalg", "gmres_jacobi", after_solve, None),
        (harness, "smallest_ritz_estimate", "linalg", "smallest_ritz_estimate", None, None),
        (harness, "norm_Hm", "analysis", "norm_Hm", None, None),
        (harness, "error_Hm", "analysis", "error_Hm", None, None),
        (harness, "localized_energy", "analysis", "localized_energy", None, None),
        (harness, "fit_rate", "analysis", "fit_rate", None, None),
        (harness, "write_report_csv", "analysis", "write_report_csv", None, None),
        (harness, "write_report_json", "analysis", "write_report_json", None, None),
        (harness, "interior_derivative_error", "fdcalc", "interior_derivative_error",
         after_interior, None),
        (DiscreteField, "eval_grid", "splines", "eval_grid", after_eval_grid, None),
    ]
    saved = []
    try:
        for owner, attr, layer, name, after, attrs_of in patches:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            if layer == "assembly":
                fn = _with_peak_memory(fn, stats)
            setattr(owner, attr, tracer.wrap(layer, name, fn, after=after, attrs_of=attrs_of))
        yield stats
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
