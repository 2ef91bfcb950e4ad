"""End-to-end acceptance checks at desk scale (n=2, p=1, omega=(0,1)).

One criterion per test; each prints a single summary line (visible with -s,
or in the captured output on failure) and asserts the stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from cylasym.analysis import write_report_csv
from cylasym.expr import ExpressionError, evaluate, parse_expression, to_string
from cylasym.harness import SweepPlan, _solve_system, run_refinement, run_sweep
from cylasym.problem import builtin_problem
from cylasym.splines import DiscreteField

from dense_oracle import assembled_cylinder, assembled_limit, galerkin_interior_residual
from golden_expressions import ERROR_CASES, VALUE_CASES
from lattice_identities import GridSample, leibniz_defect, summation_by_parts_defect

POISSON = builtin_problem("poisson_strip")
BIHARMONIC = builtin_problem("biharmonic_strip")


def _line(tag: str, ok: bool, detail: str) -> bool:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def a1_run():
    t0 = time.perf_counter()
    report = run_sweep(
        SweepPlan(spec=POISSON, ells=(2.0, 4.0, 8.0, 16.0), resolution=16, degree=2)
    )
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def a2_run():
    t0 = time.perf_counter()
    report = run_sweep(
        SweepPlan(spec=BIHARMONIC, ells=(2.0, 4.0, 8.0), resolution=12, degree=3)
    )
    return report, time.perf_counter() - t0


def test_A1_poisson_decay_rate(a1_run):
    report, elapsed = a1_run
    errs = [r.err_Hm for r in report.records]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    rate = report.fitted_rate_Hm
    ok = decreasing and rate is not None and rate >= 3.0 and elapsed < 120.0
    assert _line(
        "A1",
        ok,
        f"err_Hm {['%.3e' % e for e in errs]} strictly decreasing={decreasing}, "
        f"fitted rate {None if rate is None else round(rate, 2)} >= 3, "
        f"elapsed {elapsed:.1f}s < 120s",
    )


def test_A2_biharmonic_decay_rate(a2_run):
    report, elapsed = a2_run
    errs = [r.err_Hm for r in report.records]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    rate = report.fitted_rate_Hm
    if rate is not None:
        rate_ok = rate >= 2.0
        how = f"fitted rate {round(rate, 2)} >= 2"
    else:
        # the tail point decayed below the absolute floor (1e-12), so the
        # 3-point fit is refused by the floor policy; certify the rate over
        # the remaining non-floor pair instead
        tail_floored = errs[-1] < 1e-12
        pair_rate = math.log(errs[0] / errs[1]) / math.log(
            report.records[1].ell / report.records[0].ell
        )
        rate_ok = tail_floored and pair_rate >= 2.0
        how = (
            f"fit refused (tail {errs[-1]:.1e} under absolute floor), "
            f"non-floor pair rate {pair_rate:.2f} >= 2"
        )
    ok = decreasing and rate_ok and elapsed < 300.0
    assert _line(
        "A2",
        ok,
        f"err_Hm {['%.3e' % e for e in errs]} strictly decreasing={decreasing}, "
        f"{how}, elapsed {elapsed:.1f}s < 300s",
    )


def test_A3_extension_norm_ratio_bounded(a1_run, a2_run):
    results = {}
    for name, (report, _) in (("poisson", a1_run), ("biharmonic", a2_run)):
        ratios = [r.lemma19_ratio for r in report.records]
        results[name] = max(ratios) / min(ratios)
    ok = all(v <= 3.0 for v in results.values())
    assert _line(
        "A3",
        ok,
        "ratio max/min " + ", ".join(f"{k}={v:.3f}" for k, v in results.items()) + " <= 3",
    )


def test_A4_interior_residual_halves_under_refinement():
    vals = {}
    for res in (8, 16):
        sys_c = assembled_cylinder(POISSON, ell=4.0, resolution=res, degree=2)
        u_l = DiscreteField(sys_c.basis, _solve_system(sys_c).x)
        sys_o = assembled_limit(POISSON, resolution=res, degree=2)
        u_inf = DiscreteField(sys_o.basis, _solve_system(sys_o).x)
        vals[res] = galerkin_interior_residual(u_l, u_inf, POISSON, ell=4.0, resolution=res)
    ok = vals[8] >= 2.0 * vals[16]
    assert _line(
        "A4",
        ok,
        f"residual {vals[8]:.3e} -> {vals[16]:.3e} on doubling "
        f"(drop {vals[8] / vals[16]:.1f}x >= 2x)",
    )


def test_A5_summation_by_parts_50_lattices():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(1, 3))
        alpha = tuple(int(v) for v in rng.integers(0, 4, size=n))
        if sum(alpha) == 0:
            alpha = (1,) * n
        while sum(alpha) > 3:
            alpha = tuple(max(0, a - 1) for a in alpha)
        margin = sum(alpha)
        shape = tuple(int(rng.integers(2 * margin + max(alpha) + 2, 17)) for _ in range(n))
        h = tuple(float(rng.uniform(0.2, 0.5)) for _ in range(n))
        f = GridSample((0.0,) * n, h, rng.standard_normal(shape))
        eta_vals = np.zeros(shape)
        inner = tuple(slice(margin, s - margin) for s in shape)
        eta_vals[inner] = rng.standard_normal(tuple(s - 2 * margin for s in shape))
        eta = GridSample((0.0,) * n, h, eta_vals)
        defect = summation_by_parts_defect(f, eta, alpha)
        volume = float(np.prod([(s - 1) * hk for s, hk in zip(shape, h)]))
        scale = max(np.abs(f.values).max() * np.abs(eta_vals).max() * volume, 1e-30)
        worst = max(worst, defect / scale)
        assert defect <= 1e-12 * scale, f"seed {seed}: {defect} > 1e-12 * {scale}"
    assert _line("A5", worst <= 1e-12, f"50 lattices, worst defect/scale {worst:.2e} <= 1e-12")


def test_A6_leibniz_50_lattice_pairs():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(6000 + seed)
        n = int(rng.integers(1, 3))
        alpha = tuple(int(v) for v in rng.integers(0, 4, size=n))
        while sum(alpha) > 3:
            alpha = tuple(max(0, a - 1) for a in alpha)
        shape = tuple(int(rng.integers(sum(alpha) + 2, 14)) for _ in range(n))
        h = tuple(float(rng.uniform(0.2, 0.5)) for _ in range(n))
        f = GridSample((0.0,) * n, h, rng.standard_normal(shape))
        g = GridSample((0.0,) * n, h, rng.standard_normal(shape))
        defect = leibniz_defect(f, g, alpha)
        scale = (
            np.abs(f.values).max()
            * np.abs(g.values).max()
            / min(h) ** max(1, sum(alpha))
        )
        worst = max(worst, defect / scale)
        assert defect <= 1e-12 * scale, f"seed {seed}: {defect} > 1e-12 * {scale}"
    assert _line("A6", worst <= 1e-12, f"50 pairs, worst defect/scale {worst:.2e} <= 1e-12")


def test_A7_interior_estimates_decrease(a1_run):
    report, _ = a1_run
    records = report.records
    failures = []
    for key in sorted(records[0].interior_alpha):
        seq = [r.interior_alpha[key] for r in records]
        if not all(b < a for a, b in zip(seq, seq[1:])):
            failures.append(f"interior {key}: {seq}")
    for key in sorted(records[0].n1_full_alpha):
        seq = [r.n1_full_alpha[key] for r in records]
        if not all(b < a for a, b in zip(seq, seq[1:])):
            failures.append(f"full-region N1 {key}: {seq}")
    ok = not failures
    assert _line(
        "A7",
        ok,
        "all per-alpha interior sequences strictly decreasing over ell"
        + (f"; violations: {failures}" if failures else ""),
    )


def test_A8_refinement_orders_and_reproduction():
    _, fit_p1 = run_refinement(POISSON, ell=2.0, resolutions=[8, 16, 32, 64], degree=1)
    _, fit_b3 = run_refinement(BIHARMONIC, ell=2.0, resolutions=[6, 12, 24], degree=3)
    rows_p2, _ = run_refinement(POISSON, ell=2.0, resolutions=[8, 16, 32], degree=2)
    errs_p2 = [r["err_Hm_limit"] for r in rows_p2]
    ok_p1 = fit_p1 is not None and abs(fit_p1.rate - 1.0) <= 0.3
    ok_b3 = fit_b3 is not None and abs(fit_b3.rate - 2.0) <= 0.3
    ok_p2 = all(e <= 1e-12 for e in errs_p2)
    ok = ok_p1 and ok_b3 and ok_p2
    assert _line(
        "A8",
        ok,
        f"poisson d=1 order {fit_p1.rate:.3f} (expect 1 +- 0.3), "
        f"biharmonic d=3 order {fit_b3.rate:.3f} (expect 2 +- 0.3), "
        f"poisson d=2 H1 error at machine zero (max {max(errs_p2):.1e})",
    )


def test_A9_csv_byte_determinism(tmp_path):
    blobs = []
    for idx, workers in enumerate((1, 1, 4)):
        plan = SweepPlan(
            spec=POISSON, ells=(2.0, 4.0, 8.0), resolution=8, workers=workers
        )
        report = run_sweep(plan)
        path = tmp_path / f"a9_{idx}.csv"
        write_report_csv(report, path)
        blobs.append(path.read_bytes())
    rerun_ok = blobs[0] == blobs[1]
    workers_ok = blobs[0] == blobs[2]
    ok = rerun_ok and workers_ok
    assert _line(
        "A9",
        ok,
        f"CSV byte-identical: rerun={rerun_ok}, workers 1 vs 4={workers_ok}",
    )


def test_A10_expression_golden_corpus():
    passed = 0
    failures = []
    for text, coords, expected in VALUE_CASES:
        try:
            tree = parse_expression(text)
            assert float(evaluate(tree, coords)) == expected
            assert parse_expression(to_string(tree)) == tree
            passed += 1
        except Exception as exc:  # noqa: BLE001 - collecting for the report
            failures.append(f"{text!r}: {exc}")
    for text, offset in ERROR_CASES:
        try:
            parse_expression(text)
            failures.append(f"{text!r}: expected a parse error at {offset}")
        except ExpressionError as exc:
            if exc.offset == offset:
                passed += 1
            else:
                failures.append(f"{text!r}: offset {exc.offset} != {offset}")
    ok = passed == 50 and not failures
    assert _line(
        "A10",
        ok,
        f"{passed}/50 golden expression cases exact"
        + (f"; failures: {failures}" if failures else ""),
    )
