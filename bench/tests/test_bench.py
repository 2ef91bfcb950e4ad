"""The benchmark's own tests: span arithmetic, metric names, and a toy-size
pass of every workload through the correctness gate.

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import sweep
from spans import LAYERS, Span, Tracer, covered, failure_site, layer_self_times, self_times
from workloads import BY_HAND, WORKLOADS, forcing_text, papkovich_fadle_rate, problem_spec

ROOT = Path(__file__).resolve().parents[2]

# --------------------------------------------------------------- span arithmetic


def _spans(*rows):
    return [Span(i, parent, layer, name, start, end) for i, (parent, layer, name, start, end)
            in enumerate(rows)]


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert covered([(2.0, 3.0), (0.0, 5.0)]) == pytest.approx(5.0)


def test_self_time_subtracts_children_once():
    spans = _spans(
        (None, "cli", "main", 0.0, 10.0),
        (0, "harness", "run_sweep", 1.0, 9.0),
        (1, "assembly", "assemble", 2.0, 4.0),
        (1, "linalg", "cg", 4.0, 7.0),
        (3, "trace", "measure", 5.0, 5.5),
    )
    own = self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 3.0, 2: 2.0, 3: 2.5, 4: 0.5})
    layers = layer_self_times(spans)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert layers["linalg"] == pytest.approx(2.5)


def test_self_time_clips_children_to_parent_and_unions_overlaps():
    spans = _spans(
        (None, "harness", "run_sweep", 0.0, 4.0),
        (0, "analysis", "norm", -1.0, 1.0),  # starts before its parent
        (0, "splines", "eval_grid", 0.5, 2.0),  # overlaps its sibling
        (0, "fdcalc", "interior", 3.5, 6.0),  # ends after its parent
    )
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.0 - 0.5)


def test_tracer_records_parents_and_bills_measurement_to_trace():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    seen = []
    inner = tracer.wrap("linalg", "solve", lambda x: x + 1,
                        after=lambda result, args, kwargs: seen.append(result),
                        attrs_of=lambda args, kwargs: {"ell": 2.0})
    outer = tracer.wrap("harness", "sweep", lambda: inner(1))
    assert outer() == 2
    assert seen == [2]
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["solve"].parent == by_name["sweep"].id
    assert by_name["measure:solve"].parent == by_name["sweep"].id
    assert by_name["measure:solve"].layer == "trace"
    assert by_name["solve"].attrs == {"ell": 2.0}
    root = by_name["sweep"]
    assert sum(layer_self_times(tracer.spans).values()) == pytest.approx(root.duration)


def test_failure_site_names_innermost_stage_and_enclosing_ell():
    tracer = Tracer()

    def boom():
        raise RuntimeError("no convergence")

    solve = tracer.wrap("linalg", "cg_jacobi", boom)
    job = tracer.wrap("harness", "sweep_worker", lambda: solve(),
                      attrs_of=lambda args, kwargs: {"ell": 8.0})
    with pytest.raises(RuntimeError):
        job()
    assert failure_site(tracer.spans) == ("linalg.cg_jacobi", 8.0)
    assert failure_site([]) == (None, None)


# ------------------------------------------------------------ metric names

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_has_the_required_shape():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert spec["command"][1] == "bench/run.py"
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_metric_names_are_valid_unique_and_match_the_runner():
    spec = _spec()
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert _NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert _UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [n for n in WORKLOADS if n not in BY_HAND]


# ------------------------------------------------------------ workloads


def test_reference_rates():
    assert papkovich_fadle_rate() == pytest.approx(4.2123922, abs=1e-6)
    assert WORKLOADS["box3d"].ref_rate == pytest.approx(3.1415926535 * 2 ** 0.5)


def test_seed_zero_is_the_builtin_forcing_and_seeds_are_reproducible():
    from cylasym.problem import builtin_problem

    assert problem_spec("poisson_strip", 0) == builtin_problem("poisson_strip")
    for problem in ("poisson_strip", "biharmonic_strip", "box3d"):
        assert forcing_text(problem, 7) == forcing_text(problem, 7)
        assert forcing_text(problem, 7) != forcing_text(problem, 8)
        problem_spec(problem, 7)  # parses


@pytest.fixture(params=sorted(WORKLOADS))
def toy(request):
    """The workload at a toy resolution that still meets the rate tolerance."""
    toy_resolution = {"strip-fine": 8, "biharmonic-pool": 16, "box3d": 4}
    w = WORKLOADS[request.param]
    return dataclasses.replace(w, resolution=toy_resolution[w.name])


def _sweep(workload, seed, mode, workers, tmp):
    tmp.mkdir()
    source = sweep._setup(workload, seed, tmp)
    return sweep._run(workload, source, mode, workers, tmp)


def test_toy_workload_passes_gate_serial_and_traced_alike(toy, tmp_path):
    plain = _sweep(toy, 3, "sweep", toy.workers, tmp_path / "plain")
    traced = _sweep(toy, 3, "trace", 1, tmp_path / "traced")
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["rate_rel_err"] <= gate.RATE_TOL
    # same bytes with and without spans, and with and without the pool
    assert plain["csv_sha256"] == traced["csv_sha256"]
    layers = traced["layers"]
    # self times partition the traced wall time: eight layers plus the
    # instrumentation's own measuring
    layer_sum = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert layer_sum + layers["trace.self_s"] == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["linalg.solves"] == len(toy.ells) + 1
    assert layers["fdcalc.interior_calls"] > 0 and layers["splines.eval_grid_calls"] > 0


# ------------------------------------------------------------ the gate itself


def _report(err_L2=1e-3, err_Hm2=1e-2, err_Hm4=None, rate=3.14159):
    err_Hm4 = err_Hm2 * 2.718281828459045 ** (-2 * rate) if err_Hm4 is None else err_Hm4
    rec = {"err_L2": err_L2, "err_H2m_interior": 1.0, "norm_ul_Hm_full": 1.0,
           "lemma19_ratio": 1.0, "solver_residual": 1e-13,
           "interior_alpha": {"0_0": 1.0}, "n1_full_alpha": {}}
    return {
        "records": [dict(rec, ell=2.0, err_Hm=err_Hm2),
                    dict(rec, ell=4.0, err_Hm=err_Hm4, err_L2=0.1 * err_Hm4)],
        "localized_energy": [{"ell1": 1.0, "value": 0.5}],
        "fitted_rate_Hm": None,
        "fitted_rate_H2m": 1.0,
    }


def test_gate_accepts_a_clean_report_and_names_each_violation():
    assert gate.check_report(_report(), 3.14159) == []
    stages = [f["stage"] for f in gate.check_report(_report(rate=3.2), 3.14159)]
    assert stages == ["gate.rate"]
    bad = gate.check_report(_report(err_L2=0.5), 3.14159)
    assert [(f["l"], f["stage"]) for f in bad] == [(2.0, "gate.norm_order")]
    nan = _report()
    nan["records"][1]["interior_alpha"] = {"0_0": float("nan")}
    assert [(f["l"], f["stage"]) for f in gate.check_report(nan, 3.14159)] == [(4.0, "gate.finite")]


def test_csv_ledger_flags_changed_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    first = run.CsvLedger("box3d", 1)
    assert first.check("a" * 64) == []
    again = run.CsvLedger("box3d", 1)
    assert again.check("a" * 64) == []
    assert [f["stage"] for f in again.check("b" * 64)] == ["gate.csv_bytes"]


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "box3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
