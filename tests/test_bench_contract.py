"""The benchmark's contract with the package.

bench/instrument.py traces a run by replacing, for the length of a context,
names that cylasym.cli and cylasym.harness imported and
DiscreteField.eval_grid, and its assembly hook reads the CSR matrix of every
assembled system.  A refactor that drops or renames one of those names, or
the matrix's CSR attributes, breaks the benchmark's trace mode; this test
fails first.
"""

import importlib
from pathlib import Path

from cylasym import cli, harness
from cylasym.assembly import CrossSection
from cylasym.problem import builtin_problem
from cylasym.splines import DiscreteField

BENCH = Path(__file__).resolve().parents[1] / "bench"
OWNERS = {"cli": cli, "harness": harness, "DiscreteField": DiscreteField}
PATCHED = {
    "cli": {"run_sweep", "load_problem", "builtin_problem"},
    "harness": {
        "_sweep_worker", "validate_hypotheses", "parse_problem_config", "to_config_text",
        "assemble_cylinder", "assemble_limit", "cg_jacobi", "gmres_jacobi",
        "smallest_ritz_estimate", "norm_Hm", "error_Hm", "localized_energy", "fit_rate",
        "write_report_csv", "write_report_json", "interior_derivative_error",
    },
    "DiscreteField": {"eval_grid"},
}


def _snapshot():
    return {name: dict(vars(owner)) for name, owner in OWNERS.items()}


def test_bench_instrument_patches_resolve_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    instrument = importlib.import_module("instrument")
    spans = importlib.import_module("spans")
    before = _snapshot()
    # entering resolves every patched name: a missing one raises here
    with instrument.instrument(spans.Tracer()) as stats:
        during = _snapshot()
        changed = {
            name: {attr for attr, value in during[name].items()
                   if before[name].get(attr) is not value}
            for name in OWNERS
        }
        system = harness.assemble_limit(CrossSection(builtin_problem("poisson_strip"), 4))
    assert changed == PATCHED
    after = _snapshot()
    for name in OWNERS:
        assert after[name].keys() == before[name].keys()
        assert all(after[name][attr] is value for attr, value in before[name].items()), name
    # the assembly hook read the CSR matrix of the system it traced
    A = system.matrix
    assert stats["assembly.nnz"] == A.nnz > 0
    assert stats["assembly.csr_mb"] > 0.0


def test_a_traced_sweep_runs_and_names_the_ell_of_every_cylinder(monkeypatch):
    # the trace reads assemble_cylinder's ell as a keyword (bench/instrument.py
    # ell_kwarg): a sweep that passed it by position would stop here with a
    # KeyError, as bench/run.py --trace 1 would
    monkeypatch.syspath_prepend(str(BENCH))
    instrument = importlib.import_module("instrument")
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    plan = harness.SweepPlan(spec=builtin_problem("poisson_strip"), ells=(2.0, 4.0), resolution=4)
    with instrument.instrument(tracer):
        report = harness.run_sweep(plan)
    assert [r.ell for r in report.records] == [2.0, 4.0]
    cylinders = [s for s in tracer.spans if s.name == "assemble_cylinder"]
    assert sorted(s.attrs["ell"] for s in cylinders) == [2.0, 4.0]
