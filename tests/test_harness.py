"""Sweep orchestration, refinement study, and CLI behavior."""

import dataclasses
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from dense_oracle import (
    assembled_cylinder,
    assembled_limit,
    fold_path_solve,
    full_path_solve,
    inverse_inf_norm,
)
from test_sweep_bytes import BOX_CONFIG, BOX_P2_CONFIG

from cylasym import analysis, assembly, cli, harness, linalg, splines
from cylasym.analysis import difference_field, norm_Hm, write_report_csv
from cylasym.fdcalc import interior_derivative_error
from cylasym.harness import (
    HypothesisError,
    SweepPlan,
    interior_region,
    run_refinement,
    run_sweep,
)
from cylasym.problem import (
    ProblemConfigError,
    ProblemSpec,
    ScalarField,
    builtin_names,
    builtin_problem,
    parse_problem_config,
)
from cylasym.splines import DiscreteField, SplineBasis1D, _window_sum

POISSON = builtin_problem("poisson_strip")


@pytest.fixture(scope="module")
def poisson_report():
    plan = SweepPlan(spec=POISSON, ells=(2.0, 4.0, 8.0), resolution=8)
    return run_sweep(plan)


# ------------------------------------------------------------------ plan


def test_plan_rejects_bad_shapes():
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepPlan(spec=POISSON, ells=(4.0, 2.0))
    with pytest.raises(ValueError, match="exceed ell0"):
        SweepPlan(spec=POISSON, ells=(2.0, 4.0), ell0=2.0)
    with pytest.raises(ValueError, match="below 2m\\+1"):
        SweepPlan(spec=POISSON, resolution=2)
    with pytest.raises(ValueError, match="margin"):
        SweepPlan(spec=POISSON, interior_margin=0.5)
    with pytest.raises(ValueError, match="worker"):
        SweepPlan(spec=POISSON, workers=0)


def test_plan_refuses_workers_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    SweepPlan(spec=POISSON, workers=1)  # one worker forks nothing
    with pytest.raises(ValueError, match="needs os.fork"):
        SweepPlan(spec=POISSON, workers=2)
    with pytest.raises(ValueError, match="cannot conform"):
        SweepPlan(spec=builtin_problem("biharmonic_strip"), resolution=8, degree=1)


def test_plan_rejects_a_factor_with_fewer_than_2m_plus_1_cells():
    # 4 cells per unit clears 2m + 1 = 3 per unit length, but not on a
    # cross-section of width 0.5 or an axial extent of length 0.5
    narrow = dataclasses.replace(POISSON, omega=((0.0, 0.5),))
    with pytest.raises(ValueError, match=r"problem poisson_strip: resolution 4 puts 2 cells on "
                                         r"\(0, 0\.5\), the extent of x2, below 2m\+1 = 3"):
        SweepPlan(spec=narrow, ells=(2.0, 4.0), resolution=4)
    with pytest.raises(ValueError, match=r"2 cells on \(-0\.25, 0\.25\), the axial extent at "
                                         r"the smallest l, below 2m\+1"):
        SweepPlan(spec=POISSON, ells=(0.25, 0.5), ell0=0.1, resolution=5)


def test_plan_rejects_an_interior_lattice_that_leaves_the_cylinder(monkeypatch):
    # the N1 lattice on (-l0, l0) at h = 1/8, inflated by m = 1 layer, ends
    # at 1.125; the estimator raises the same error after both solves
    spec = builtin_problem("varcoef_strip")
    with pytest.raises(ValueError, match=r"problem varcoef_strip: .* h = 1/\(2 resolution\) = "
                                         r"0\.125 .* l = 1\.01: .* spans \[-1, 1\.125\], "
                                         r"domain \[-1\.01, 1\.01\]"):
        SweepPlan(spec=spec, ells=(1.01, 2.0), resolution=4)
    rep = run_sweep(SweepPlan(spec=spec, ells=(1.125, 2.0), resolution=4))
    assert [r.ell for r in rep.records] == [1.125, 2.0]


def test_plan_degree_defaults_to_m_plus_one():
    assert SweepPlan(spec=POISSON).effective_degree == 2
    assert SweepPlan(spec=builtin_problem("biharmonic_strip")).effective_degree == 3
    assert SweepPlan(spec=POISSON, degree=4).effective_degree == 4


def test_interior_region_default_is_middle_half():
    region = interior_region(POISSON, ell0=1.0, margin=0.25)
    assert region == [(-0.5, 0.5), (0.25, 0.75)]


# ------------------------------------------------------------------ sweep


def test_sweep_errors_decrease_and_ratios_stay_bounded(poisson_report):
    rep = poisson_report
    assert [r.ell for r in rep.records] == [2.0, 4.0, 8.0]
    errs = [r.err_Hm for r in rep.records]
    assert errs[0] > errs[1] > errs[2]
    ints = [r.err_H2m_interior for r in rep.records]
    assert ints[0] > ints[1] > ints[2]
    ratios = [r.lemma19_ratio for r in rep.records]
    assert max(ratios) / min(ratios) <= 3.0
    assert rep.fitted_rate_Hm is not None and rep.fitted_rate_Hm >= 3.0
    assert all(r.solver_residual <= 1e-11 for r in rep.records)
    assert all(r.dofs > 0 for r in rep.records)


def test_sweep_interior_tables_cover_expected_indices(poisson_report):
    rec = poisson_report.records[0]
    assert set(rec.interior_alpha) == {"0_0", "1_0", "0_1"}
    assert set(rec.n1_full_alpha) == {"0_0", "1_0"}
    assert all(v >= 0.0 for v in rec.interior_alpha.values())


def test_sweep_interior_tables_hold_their_values():
    # reprs of the estimator on the one difference field u_l - ext(u_inf),
    # taken when the cross-section blocks came to be placed from the
    # sweep's stencil too, mirror symmetric bitwise: they moved by up to
    # 3.9e-13 relative at l = 2 and 8.1e-10 at l = 4, where the differences
    # are 2500 times smaller and the roundoff of the matrix weighs more, as
    # the axial stencil (up to 4.5e-13 and 5.6e-10), LAPACK's dpbtrf (up to
    # 7.7e-14 and 3.3e-10) and reading the assembled matrix, not
    # (A + A^T) / 2 (up to 1.9e-13 and 5.1e-10), had moved them before
    plan = SweepPlan(spec=builtin_problem("biharmonic_strip"), ells=(2.0, 4.0), resolution=6)
    records = run_sweep(plan).records
    assert [(repr(r.interior_alpha), repr(r.n1_full_alpha)) for r in records] == [
        (
            "{'0_0': 4.646638683302425e-05, '0_1': 0.00022532855497321797, "
            "'1_0': 0.00023244104608634877, '0_2': 0.0018229449955428462, "
            "'1_1': 0.0007724739341890813, '2_0': 0.0021641968173926993}",
            "{'0_0': 0.0006463618950815903, '1_0': 0.004082053622871986, "
            "'2_0': 0.024434120184653643}",
        ),
        (
            "{'0_0': 1.8792150699479234e-08, '0_1': 8.232017674312923e-08, "
            "'1_0': 8.233974730110727e-08, '0_2': 6.093924708474458e-07, "
            "'1_1': 4.007155527477673e-07, '2_0': 3.5979045362406356e-07}",
            "{'0_0': 1.429243452434114e-07, '1_0': 5.297804488184464e-07, "
            "'2_0': 3.752427944949592e-06}",
        ),
    ]


def test_sweep_localized_energy_decays_dyadically(poisson_report):
    table = poisson_report.localized_table
    assert [e for e, _ in table] == [4.0, 2.0, 1.0]
    vals = [v for _, v in table]
    assert vals[0] > vals[1] > vals[2] >= 0.0


def test_no_kernel_runs_per_l(monkeypatch):
    # the section runs the kernel once per 1-D pair of its stencil, before
    # any job, and on omega only for a field that reads omega's
    # coordinates; the cylinders place their axial bands and loads from
    # that stencil, so a sweep of four half-lengths runs the kernel as
    # often as one of two.  The stencil is kept per process, so each sweep
    # starts from an empty memo
    galerkin, calls = assembly._galerkin, []

    def counted(*args, **kwargs):
        calls.append(args)
        return galerkin(*args, **kwargs)

    monkeypatch.setattr(assembly, "_galerkin", counted)
    counts = []
    for ells in ((2.0, 4.0), (2.0, 4.0, 8.0, 16.0)):
        calls.clear()
        assembly._stencil.cache_clear()
        run_sweep(SweepPlan(spec=builtin_problem("biharmonic_strip"), ells=ells, resolution=8))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_sweep_rejects_hypothesis_violations():
    text = """
[problem]
m = 1
n = 2
p = 1
omega = 0,1

[coef]
a_1_0_1_0 = 1
a_0_1_0_1 = 1 + x1^2

[forcing]
f = 1
"""
    spec = parse_problem_config(text, "x1dep")
    plan = SweepPlan(spec=spec, ells=(2.0, 4.0), resolution=4)
    with pytest.raises(HypothesisError, match="x1-independence"):
        run_sweep(plan)


def test_sweep_zero_forcing_reports_floor_everywhere():
    text = """
[problem]
m = 1
n = 2
p = 1
omega = 0,1

[coef]
a_1_0_1_0 = 1
a_0_1_0_1 = 1

[forcing]
f = 0
"""
    spec = parse_problem_config(text, "zero")
    plan = SweepPlan(spec=spec, ells=(2.0, 4.0, 8.0), resolution=4)
    rep = run_sweep(plan)
    assert all(r.err_Hm <= 1e-12 for r in rep.records)
    assert rep.fitted_rate_Hm is None
    assert rep.floor_detected
    assert any("floor" in w for w in rep.warnings)


def test_sweep_serial_and_parallel_bytes_match(tmp_path):
    paths = []
    for idx, workers in enumerate((1, 2, 1)):
        plan = SweepPlan(
            spec=POISSON, ells=(2.0, 4.0, 8.0), resolution=4, workers=workers
        )
        rep = run_sweep(plan)
        path = tmp_path / f"run{idx}.csv"
        write_report_csv(rep, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]  # worker count does not change the numbers
    assert paths[0] == paths[2]  # reruns are byte-identical


def test_biharmonic_sweep_serial_and_parallel_bytes_match(tmp_path):
    # a multi-part system: each forked job inherits the CrossSection
    paths = []
    for workers in (1, 2):
        plan = SweepPlan(spec=builtin_problem("biharmonic_strip"), ells=(2.0, 4.0, 8.0),
                         resolution=8, workers=workers)
        path = tmp_path / f"run{workers}.csv"
        write_report_csv(run_sweep(plan), path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_interior_estimate_at_alpha_zero_matches_quadrature_norm(poisson_report):
    # the lattice estimator at alpha = 0 is a trapezoid version of the same
    # H^m error the Gauss quadrature computes; they agree to a couple percent
    plan = SweepPlan(spec=POISSON, ells=(2.0,), ell0=1.0, resolution=8)
    from cylasym.splines import DiscreteField

    sys_c = assembled_cylinder(POISSON, ell=2.0, resolution=8, degree=2)
    u_l = DiscreteField(sys_c.basis, harness._solve_system(sys_c).x)
    sys_o = assembled_limit(POISSON, resolution=8, degree=2)
    u_inf = DiscreteField(sys_o.basis, harness._solve_system(sys_o).x)

    region = interior_region(POISSON, ell0=1.0, margin=0.25)
    _, w = difference_field(u_l, u_inf)
    errs = interior_derivative_error(w, 1, [(0, 0)], region, h=1.0 / 16.0, m=1)
    est = errs[(0, 0)]
    ref = norm_Hm(w, region, m=1, resolution=8)
    assert ref > 0.0
    assert abs(est - ref) <= 0.02 * ref


# poisson_strip plus a first-order cross-sectional term: its skew part
# integrates to zero under Dirichlet conditions, so it stays coercive
SKEW_CONFIG = (
    "[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
    "a_0_1_0_0 = 1\na_0_1_0_1 = 1\na_1_0_1_0 = 1\n\n[forcing]\nf = 1\n"
)


def test_sweep_needs_no_csr_and_no_krylov_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep path called a CSR or Krylov function")

    monkeypatch.setattr(assembly.AssembledSystem, "matrix", property(refuse))
    for name in ("cg_jacobi", "gmres_jacobi", "smallest_ritz_estimate"):
        monkeypatch.setattr(harness, name, refuse)
    for spec, method in ((POISSON, "fast_diagonalization"),
                         (parse_problem_config(SKEW_CONFIG, "skew"), "lu_banded")):
        rep = run_sweep(SweepPlan(spec=spec, ells=(2.0, 4.0), resolution=4))
        assert all(r.solver_method == method for r in rep.records)
        assert all(0.0 <= r.backward_error <= 1e-14 for r in rep.records)
        assert rep.plan["backward_error_tol"] == 1e-14 and "solver_tol" not in rep.plan


def test_sweep_norms_evaluate_no_field_on_a_grid(monkeypatch):
    # the H^m norms and localized energies are Kronecker forms of the
    # coefficients; only the interior estimates evaluate a field, and only
    # the difference field u_l - ext(u_inf): unconstrained on the axial
    # axis, never u_l's or u_inf's own basis
    calls = {"norms": 0, "other": 0}
    inside = []
    evaluated = set()
    eval_grid = DiscreteField.eval_grid

    def counted(self, axes, alpha):
        calls["norms" if inside else "other"] += 1
        evaluated.add(tuple(f.bc_order for f in self.basis.factors))
        return eval_grid(self, axes, alpha)

    monkeypatch.setattr(DiscreteField, "eval_grid", counted)
    for name in ("error_Hm", "localized_energy", "norm_Hm"):
        def flagged(*args, _norm=getattr(harness, name), **kwargs):
            inside.append(name)
            try:
                return _norm(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(harness, name, flagged)
    run_sweep(SweepPlan(spec=POISSON, ells=(2.0, 4.0), resolution=6))
    assert calls["norms"] == 0
    assert calls["other"] > 0
    assert evaluated == {(0, 1)}


def _eval_grid_axes_swapped(self, axes, alpha):
    """DiscreteField.eval_grid with the axes contracted last to first: the
    same values up to rounding."""
    self.basis.check_alpha(alpha)
    out = self.coeffs
    for k in reversed(range(self.basis.naxes)):
        vals, cols = self.basis.factors[k].local_table(axes[k])
        out = np.moveaxis(_window_sum(np.moveaxis(out, k, 0), vals[:, alpha[k], :], cols), 0, k)
    return np.ascontiguousarray(out)


def test_interior_estimate_holds_when_the_axes_are_swapped(monkeypatch):
    # the estimates divide differences of D^beta values by h^|alpha|, h =
    # 1/64, which magnifies their rounding; evaluating u_l and ext(u_inf)
    # apart and subtracting made the l = 8 estimate move by 25% with the
    # contraction order, the one difference field keeps it to rounding
    plan = SweepPlan(spec=builtin_problem("biharmonic_strip"), ells=(8.0,), resolution=32)
    (before,) = run_sweep(plan).records
    monkeypatch.setattr(DiscreteField, "eval_grid", _eval_grid_axes_swapped)
    (after,) = run_sweep(plan).records
    pairs = [(before.err_H2m_interior, after.err_H2m_interior)]
    pairs += [(before.interior_alpha[k], after.interior_alpha[k]) for k in before.interior_alpha]
    for old, new in pairs:
        assert old > 0.0 and abs(new - old) <= 1e-12 * old


BOX_P2_CONFIG = (
    "[problem]\nm = 1\nn = 3\np = 2\nomega = 0,1\n\n[coef]\n"
    "a_1_0_0_1_0_0 = 1\na_0_1_0_0_1_0 = 1\na_0_0_1_0_0_1 = 1\n\n"
    "[forcing]\nf = sin(3.141592653589793 * x3)\n"
)


def test_cli_sweep_with_two_axial_axes_exits_zero(tmp_path, capsys):
    cfg = tmp_path / "box_p2.cfg"
    cfg.write_text(BOX_P2_CONFIG)
    json_path = tmp_path / "out.json"
    argv = ["sweep", "--problem", str(cfg), "--l", "2,4", "--cells-per-unit", "6",
            "--out-json", str(json_path)]
    assert cli.main(argv) == 0
    report = json.loads(json_path.read_text())
    errs = [r["err_Hm"] for r in report["records"]]
    assert 0.0 < errs[1] < 1e-2 * errs[0]
    assert [e["ell1"] for e in report["localized_energy"]] == [2.0, 1.0]
    capsys.readouterr()


def _laplace_box(coef="1"):
    # the Laplacian on (-l, l) x (0, 1)^2; coef multiplies d/dx1
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return ProblemSpec(
        m=1, n=3, p=1, omega=((0.0, 1.0),) * 2,
        coefficients={(a, a): ScalarField.parse(coef if a == axes[0] else "1", 3)
                      for a in axes},
        forcing=ScalarField.parse(
            "sin(3.141592653589793 * x2) * sin(3.141592653589793 * x3)", 3),
        name="box3d",
    )


def _cross_section_work(monkeypatch, spec, ells, resolution):
    """[kernel calls on the cross-section factors, numpy.linalg.eigh calls,
    de Boor evaluations on the cross-section factors] of a serial sweep."""
    counts = [0, 0, 0]
    galerkin, eigh, local_ders = assembly._galerkin, np.linalg.eigh, SplineBasis1D.local_ders

    def counted_galerkin(factors, *args):
        # axial extents are (-l, l) and the stencil's (0, cells)
        counts[0] += any((f.lo, f.hi) in spec.omega for f in factors)
        return galerkin(factors, *args)

    def counted_eigh(*args, **kwargs):
        counts[1] += 1
        return eigh(*args, **kwargs)

    def counted_local_ders(self, x, nders):
        counts[2] += (self.lo, self.hi) in spec.omega  # axial extents are (-l, l)
        return local_ders(self, x, nders)

    monkeypatch.setattr(assembly, "_galerkin", counted_galerkin)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(SplineBasis1D, "local_ders", counted_local_ders)
    run_sweep(SweepPlan(spec=spec, ells=ells, resolution=resolution))
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("spec,resolution,eighs", [
    (_laplace_box(), 6, 1),
    (builtin_problem("biharmonic_strip"), 8, 0),
], ids=["box3d", "biharmonic"])
def test_a_sweep_builds_its_cross_section_once(monkeypatch, spec, resolution, eighs):
    # no coefficient reads a coordinate of omega, so every cross-section
    # block is placed from the stencil and the kernel never runs on omega's
    # factors; one eigendecomposition of the two-part pencil; the de Boor
    # tables of the cross-section factors (box3d's load, which reads x2 and
    # x3, and the norms' Gram bands) are cached on the factors, which every
    # l shares, so more l values evaluate none again
    three = _cross_section_work(monkeypatch, spec, (2.0, 4.0, 8.0), resolution)
    four = _cross_section_work(monkeypatch, spec, (2.0, 3.0, 4.0, 8.0), resolution)
    assert three[:2] == four[:2] == [0, eighs]
    assert three[2] == four[2] > 0


@pytest.mark.parametrize("spec,resolution", [
    (_laplace_box(), 6),
    (builtin_problem("biharmonic_strip"), 8),
], ids=["box3d", "biharmonic"])
def test_every_norm_of_a_sweep_places_the_same_cross_section_gram_bands(monkeypatch, spec,
                                                                        resolution):
    # no Gram band is kept on a factor: every norm of a sweep places the
    # cross-section factors' bands anew, and every call gives the same
    # rows and bands bit for bit
    sections, calls = [], {}
    cross_section, axis_grams = harness.CrossSection, analysis.axis_grams

    def recorded(*args):
        sections.append(cross_section(*args))
        return sections[-1]

    def bytes_of(factor, *args):
        rows, bands = axis_grams(factor, *args)
        calls.setdefault(id(factor), []).append((rows, [g.tobytes() for g in bands]))
        return rows, bands

    monkeypatch.setattr(harness, "CrossSection", recorded)
    monkeypatch.setattr(analysis, "axis_grams", bytes_of)
    run_sweep(SweepPlan(spec=spec, ells=(2.0, 4.0, 8.0), resolution=resolution))
    factors = sections[0].factors
    assert len(sections) == 1
    for f in factors:
        # the norm of u_inf, then per l its error, norm and (at l_max) the
        # localized energies at l = 4, 2 and 1
        first, *rest = calls[id(f)]
        assert len(rest) == 3 * 2 + 3 and len(first[1]) == spec.m + 1
        assert all(call == first for call in rest)


def test_no_uncut_gram_band_of_a_sweep_reads_a_local_table(monkeypatch):
    # every uncut Gram band a sweep integrates (whole extents, and the inner
    # cylinder d cells or more inside the axial factor) is placed from a
    # reference on unit cells: no de Boor table of a sweep's factor is
    # built for it.  Building a reference reads one of its own unit-cell
    # factor, and the cutoff bands of the localized energies read theirs
    specs = [builtin_problem(name) for name in builtin_names()] + [
        parse_problem_config(text, name) for name, text in (("box3d", BOX_CONFIG),
                                                            ("box_p2", BOX_P2_CONFIG))]
    uncut, reads, grams = [False], Counter(), Counter()
    axis_grams, reference = analysis.axis_grams, splines._gram_reference
    local_table = SplineBasis1D.local_table

    def within(fn, flag):
        def call(*args):
            uncut.append(flag(args))
            try:
                return fn(*args)
            finally:
                uncut.pop()
        return call

    def counted(factor, x):
        reads[uncut[-1]] += 1
        return local_table(factor, x)

    def cut_or_not(args):
        grams[args[5] is None] += 1
        return args[5] is None

    monkeypatch.setattr(analysis, "axis_grams", within(axis_grams, cut_or_not))
    monkeypatch.setattr(splines, "_gram_reference", within(reference, lambda args: False))
    monkeypatch.setattr(SplineBasis1D, "local_table", counted)
    for spec in specs:
        run_sweep(SweepPlan(spec=spec, ells=(2.0, 4.0, 8.0), resolution=4 if spec.n == 3 else 8))
    assert grams[True] > 0 and grams[False] > 0 and reads[False] > 0
    assert reads[True] == 0


def test_the_uncut_norms_of_a_job_hold_no_per_point_tables():
    # norm_Hm(u_l) and error_Hm of the biharmonic strip at 32 cells per
    # unit, l = 16, from cold references: traced peak 1.68 MiB, the
    # Kronecker products of u_l's 1023 x 31 coefficients; with the Gram
    # bands summed over 3072 Gauss points it was 2.17 MiB
    spec, resolution = builtin_problem("biharmonic_strip"), 32
    section = assembly.CrossSection(spec, resolution)
    limit = assembly.assemble_limit(section)
    system = assembly.assemble_cylinder(section, ell=16.0)
    u_inf = DiscreteField(limit.basis, harness._solve_system(limit).x)
    u_l = DiscreteField(system.basis, harness._solve_system(system).x)
    p, w = difference_field(u_l, u_inf)
    splines._gram_reference.cache_clear()
    tracemalloc.start()
    try:
        norm_Hm(u_l, u_l.basis.domain, spec.m, resolution)
        analysis.error_Hm(p, w, 1.0, spec.m, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.85 * 2**20, peak / 2**20


def test_a_sweep_pads_no_band_or_field_with_numpy_pad(monkeypatch):
    # every band and field is padded into a zero buffer, never by
    # numpy.pad, in the products of the solves and their checks as in the
    # norms.  Each l solves its one block, its even half
    # (AssembledSystem.parity_blocks, no basis), by one refinement product,
    # and the acceptance step reads the full system twice, for |A|_inf and
    # the residual
    systems, reads, pads = {}, Counter(), []
    matvec, inf_norm = assembly.AssembledSystem.matvec, assembly.AssembledSystem.inf_norm
    pad = np.pad

    def reading(method):
        def read(self, *args):
            systems[id(self)] = self
            reads[id(self)] += 1
            return method(self, *args)
        return read

    monkeypatch.setattr(assembly.AssembledSystem, "matvec", reading(matvec))
    monkeypatch.setattr(assembly.AssembledSystem, "inf_norm", reading(inf_norm))
    monkeypatch.setattr(np, "pad", lambda *args, **kw: pads.append(args) or pad(*args, **kw))
    run_sweep(SweepPlan(spec=_laplace_box(), ells=(2.0, 4.0, 8.0), resolution=12))
    monkeypatch.undo()
    cylinders = [key for key, system in systems.items() if system.kron_parts]
    halves = [key for key in cylinders if systems[key].basis is None]
    assert len(cylinders) == 6 and len(halves) == 3
    assert all(reads[key] >= (1 if key in halves else 2) for key in cylinders)
    assert pads == []


@pytest.mark.parametrize("name,spec,ell,resolutions", [
    ("poisson", POISSON, 4.0, (8, 16, 32)),
    ("varcoef", builtin_problem("varcoef_strip"), 4.0, (8, 16, 32)),
    ("box3d", _laplace_box(), 2.0, (4, 8)),
], ids=["poisson", "varcoef", "box3d"])
def test_two_part_solve_matches_cholesky(name, spec, ell, resolutions):
    for resolution in resolutions:
        system = assembled_cylinder(spec, ell=ell, resolution=resolution)
        fast = harness._solve_system(system)
        assert fast.method == "fast_diagonalization"
        chol = linalg.cholesky_solve(system.lower_band(), system.rhs)
        gap = np.abs(fast.x - chol).max() / np.abs(chol).max()
        assert gap <= 1e-12, (resolution, gap)
        assert fast.backward_error <= 1e-15


_DISPATCH = {
    "poisson-cyl": (POISSON, "cyl", "fast_diagonalization"),
    "varcoef-cyl": (builtin_problem("varcoef_strip"), "cyl", "fast_diagonalization"),
    "box3d-cyl": (_laplace_box(), "cyl", "fast_diagonalization"),
    "biharmonic-cyl": (builtin_problem("biharmonic_strip"), "cyl", "cholesky_banded"),
    "poisson-lim": (POISSON, "lim", "cholesky_banded"),
    "box3d-lim": (_laplace_box(), "lim", "cholesky_banded"),
    "box3d_sin_x1-cyl": (_laplace_box("2 + sin(x1)"), "cyl", "cholesky_banded"),
    "skew-cyl": (parse_problem_config(SKEW_CONFIG, "skew"), "cyl", "lu_banded"),
    "skew-lim": (parse_problem_config(SKEW_CONFIG, "skew"), "lim", "lu_banded"),
}


@pytest.mark.parametrize("spec,where,method", _DISPATCH.values(), ids=_DISPATCH.keys())
def test_the_system_structure_picks_the_solve(spec, where, method):
    if where == "cyl":
        system = assembled_cylinder(spec, ell=2.0, resolution=5)
    else:
        system = assembled_limit(spec, resolution=5)
    result = harness._solve_system(system)
    assert result.method == method
    assert result.backward_error <= 1e-14


_SWEEP_IN_A_CHILD = """
import sys
from cylasym import harness, linalg
from cylasym.harness import SweepPlan, run_sweep
from cylasym.problem import ProblemSpec, ScalarField, builtin_problem, parse_problem_config

def box():
    one = ScalarField.parse("1", 3)
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return ProblemSpec(m=1, n=3, p=1, omega=((0.0, 1.0), (0.0, 1.0)),
                       coefficients={(a, a): one for a in axes},
                       forcing=ScalarField.parse("sin(3.141592653589793 * x3)", 3), name="box3d")

def state():
    # whether LAPACK is bound, the mapped files named *openblas*, the scipy
    # modules loaded and whether numpy.random is
    with open("/proc/self/maps") as maps:
        files = {line.split(maxsplit=5)[-1].strip() for line in maps}
    return (linalg._lapack.cache_info().currsize == 1,
            len([f for f in files if "openblas" in f.rsplit("/", 1)[-1]]),
            sorted(m for m in sys.modules if m.startswith("scipy")), "numpy.random" in sys.modules)

worker = harness._sweep_worker

def checked(job):
    # a failed assertion in a forked worker fails its job, and so the sweep
    outcome = worker(job)
    assert state() == (True, 1, [], False), state()
    return outcome

harness._sweep_worker = checked
if sys.argv[1] == "box3d":
    spec = box()
elif sys.argv[1] == "skew":
    spec = parse_problem_config(sys.argv[4], "skew")
else:
    spec = builtin_problem(sys.argv[1])
run_sweep(SweepPlan(spec=spec, ells=(2.0, 4.0), resolution=int(sys.argv[2]),
                    workers=int(sys.argv[3])))
print(*state())
"""


@pytest.mark.skipif(not Path("/proc/self/maps").is_file(),
                    reason="reads the mapped files from /proc/self/maps, which Linux has")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("problem,resolution", [
    ("poisson_strip", 8), ("box3d", 4), ("biharmonic_strip", 8), ("skew", 5),
])
def test_a_sweep_maps_one_blas(problem, resolution, workers):
    # every sweep binds LAPACK from the OpenBLAS numpy has mapped, in the
    # parent and in each forked worker: no process maps a second file named
    # *openblas*, none loads a scipy module, and none loads numpy.random,
    # which the hypothesis check's stdlib generator replaced
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _SWEEP_IN_A_CHILD, problem, str(resolution),
                          str(workers), SKEW_CONFIG], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["True", "1", "[]", "False"]


def test_an_indefinite_top_block_names_the_problem_and_l():
    # a_{e1 e1} = x2 - 1/2 changes sign on the cross-section, so the block
    # that weights the axial stiffness is indefinite; the spec fails the
    # ellipticity check, which a sweep runs first, so build the section
    # directly.  The section computes the eigenbasis as it is built, before
    # any system, so a zero forcing, whose every block would be left out,
    # raises too, at the stage `cross-section` (l = inf)
    for forcing in ("1", "0"):
        spec = ProblemSpec(
            m=1, n=2, p=1, omega=((0.0, 1.0),),
            coefficients={((1, 0), (1, 0)): ScalarField.parse("x2 - 0.5", 2),
                          ((0, 1), (0, 1)): ScalarField.parse("1", 2)},
            forcing=ScalarField.parse(forcing, 2), name="signed",
        )
        with pytest.raises(linalg.SolverError, match="^cross-section for problem signed on "
                           "the cross-section \\(l = inf\\): cross-section block of the "
                           "highest axial part is not positive definite"):
            assembly.CrossSection(spec, 4)


def test_sweep_runs_the_largest_ell_first_and_reports_in_plan_order(monkeypatch):
    ran = []
    worker = harness._sweep_worker

    def recording(job):
        ran.append(job[2])
        return worker(job)

    monkeypatch.setattr(harness, "_sweep_worker", recording)
    rep = run_sweep(SweepPlan(spec=POISSON, ells=(2.0, 3.0, 4.0), resolution=4))
    assert ran == [4.0, 3.0, 2.0]
    assert [r.ell for r in rep.records] == [2.0, 3.0, 4.0]


def test_direct_solve_memory_is_the_lapack_band():
    # the Laplacian box at 12 cells per unit, l = 4, is a two-part system:
    # its solve holds one axial factor per cross-section mode and the dense
    # cross-section blocks, not the 33 MiB LAPACK band of a Cholesky solve
    tracemalloc.start()
    try:
        system = assembled_cylinder(_laplace_box(), ell=4.0, resolution=12)
        tracemalloc.reset_peak()
        result = harness._solve_system(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dims = [f.dim for f in system.basis.factors]
    kd = 2 * dims[1] * dims[2] + 2 * dims[2] + 2
    assert result.method == "fast_diagonalization"
    assert result.backward_error <= 1e-14
    assert peak <= 4 * 2**20  # 2.1 MiB measured
    assert peak <= 0.15 * (kd + 1) * system.ndofs * 8


def test_cholesky_solve_memory_is_the_lapack_band():
    # the biharmonic strip takes banded Cholesky: assembly and solve peak
    # near the factor itself, so no full-size band or CSR matrix is alive;
    # the LAPACK routines are bound before the trace so that the binding's
    # objects are not counted when the test runs alone
    linalg._lapack()

    spec = builtin_problem("biharmonic_strip")
    tracemalloc.start()
    try:
        system = assembled_cylinder(spec, ell=4.0, resolution=32)
        result = harness._solve_system(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kd = 3 * system.basis.factors[1].dim + 3
    assert result.method == "cholesky_banded"
    assert result.backward_error <= 1e-14
    assert peak <= 1.2 * (kd + 1) * system.ndofs * 8


class _Forked(Exception):
    """Raised in place of the fork, to stop a sweep there."""


@pytest.mark.parametrize("spec, resolution, ells", [
    *((builtin_problem(name), 32, (2.0, 4.0, 8.0, 16.0))
      for name in ("poisson_strip", "biharmonic_strip", "varcoef_strip")),
    (_laplace_box(), 12, (2.0, 4.0, 8.0)),
], ids=["poisson", "biharmonic", "varcoef", "box3d"])
def test_a_pooled_sweep_forks_below_a_small_traced_peak(monkeypatch, spec, resolution, ells):
    # everything the parent allocates before it forks its workers: the
    # hypothesis check, the cross-section, the limit solve and its norm.
    # The check's whole principal-symbol array set that peak at 3.0 MiB;
    # folded one chunk of samples at a time it peaks at 0.4 MiB, and box3d's
    # cross-section at 1.05 MiB
    at_fork = []

    def fork(jobs, workers):
        at_fork.append(tracemalloc.get_traced_memory()[1])
        raise _Forked

    monkeypatch.setattr(harness, "_run_jobs", fork)
    plan = SweepPlan(spec=spec, ells=ells, resolution=resolution, workers=2)
    tracemalloc.start()
    try:
        with pytest.raises(_Forked):
            run_sweep(plan)
    finally:
        tracemalloc.stop()
    assert at_fork[0] < 1.5 * 2**20


def _plus(spec, texts):
    """spec with the coefficients of texts, {(alpha, beta): text}, added."""
    added = {key: ScalarField.parse(text, spec.n) for key, text in texts.items()}
    return dataclasses.replace(spec, coefficients={**spec.coefficients, **added})


_FOLDED = {
    # (spec, ell, resolution, degree, axial functions)
    "biharmonic_odd": (builtin_problem("biharmonic_strip"), 16.0, 32, None, 1023),
    "box3d_even": (_laplace_box(), 8.0, 12, None, 192),
    "poisson_fewest": (POISSON, 0.5, 3, 1, 2),
    "biharmonic_fewest": (builtin_problem("biharmonic_strip"), 0.5, 5, 2, 3),
    "varcoef": (builtin_problem("varcoef_strip"), 4.0, 8, None, 64),
    "skew": (parse_problem_config(SKEW_CONFIG, "skew"), 2.0, 5, None, 20),
    "box_p2": (parse_problem_config(BOX_P2_CONFIG, "box_p2"), 2.0, 4, None, 16),
}


@pytest.mark.parametrize("spec,ell,resolution,degree,n_ax", _FOLDED.values(),
                         ids=_FOLDED.keys())
def test_a_folded_solve_is_even_and_checked_on_the_full_system(spec, ell, resolution, degree,
                                                               n_ax):
    system = assembled_cylinder(spec, ell=ell, resolution=resolution, degree=degree)
    assert system.section.even and system.parity_blocks()
    assert system.basis.factors[0].dim == n_ax
    result = harness._solve_system(system)
    x, b = result.x, system.rhs
    X = x.reshape([f.dim for f in system.basis.factors])
    for axis in range(spec.p):
        assert X.tobytes() == np.flip(X, axis).tobytes()
    # the gate's numbers are the full system's
    r, a_norm = b - system.matvec(x), system.inf_norm()
    assert result.backward_error == linalg.backward_error(r, a_norm, x, b) <= 1e-14
    assert result.residual == np.linalg.norm(r) / np.linalg.norm(b)
    # both solves pass the gate, so they are exact for right-hand sides
    # within BACKWARD_ERROR_TOL (|A| |x| + |b|) of b, and differ by at most
    # |A^-1| times the sum of those residual bounds; onenormest may
    # underestimate |A^-1| by a small factor, which 10 covers
    full = full_path_solve(system)
    assert full.method == result.method
    bound = 10.0 * inverse_inf_norm(system) * linalg.BACKWARD_ERROR_TOL * (
        a_norm * (np.abs(x).max() + np.abs(full.x).max()) + 2.0 * np.abs(b).max())
    assert np.abs(x - full.x).max() <= bound


_UNFOLDED = {
    # (spec, where, method)
    "poisson_odd_keys": (_plus(POISSON, {((1, 0), (0, 1)): "0.5", ((0, 1), (1, 0)): "0.5"}),
                         "cyl", "cholesky_banded"),
    "box3d_sin_x1": (_laplace_box("2 + sin(x1)"), "cyl", "cholesky_banded"),
    # a_1_0_0_1 alone: nonsymmetric, and odd on x1 and on x2, so it has no
    # parity blocks either (a_1_0_0_0 = 1, even on x2, now has: see
    # _BLOCKED)
    "nonsymmetric_odd_key": (_plus(POISSON, {((1, 0), (0, 1)): "1"}), "cyl", "lu_banded"),
    "biharmonic-lim": (builtin_problem("biharmonic_strip"), "lim", "cholesky_banded"),
    "box3d-lim": (_laplace_box(), "lim", "cholesky_banded"),
    "skew-lim": (parse_problem_config(SKEW_CONFIG, "skew"), "lim", "lu_banded"),
}


@pytest.mark.parametrize("spec,where,method", _UNFOLDED.values(), ids=_UNFOLDED.keys())
def test_a_system_that_does_not_fold_is_solved_whole_bit_for_bit(spec, where, method):
    def assembled():
        if where == "cyl":
            return assembled_cylinder(spec, ell=2.0, resolution=6)
        return assembled_limit(spec, resolution=6)

    system = assembled()
    assert system.parity_blocks() is None
    result, full = harness._solve_system(system), full_path_solve(assembled())
    assert result.method == full.method == method
    assert result.x.tobytes() == full.x.tobytes()
    assert (result.residual, result.backward_error) == (full.residual, full.backward_error)


def test_a_folded_cholesky_solve_peaks_below_the_full_band():
    # the biharmonic strip at 16 cells per unit, l = 8, folds: its solve
    # writes and factors the band of half the axial functions, so its
    # traced peak (0.76 of the full band measured) stays below the LAPACK
    # band of the whole system; the LAPACK routines are bound first, as above
    linalg._lapack()

    system = assembled_cylinder(builtin_problem("biharmonic_strip"), ell=8.0,
                                        resolution=16)
    tracemalloc.start()
    try:
        result = harness._solve_system(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kd = 3 * system.basis.factors[1].dim + 3
    assert result.method == "cholesky_banded" and result.backward_error <= 1e-14
    assert peak < (kd + 1) * system.ndofs * 8


_ONE_ACCEPTANCE = {
    # (spec, where, folds, banded solves, method)
    "box3d_two_part": (_laplace_box(), "cyl", True, 0, "fast_diagonalization"),
    # its even half's even parity block: f = 1 is even in x2, so the
    # section's load, placed from the stencil, has an odd block's load of
    # exactly zero
    "biharmonic_multi_part": (builtin_problem("biharmonic_strip"), "cyl", True, 1,
                              "cholesky_banded"),
    "biharmonic_cross_section": (builtin_problem("biharmonic_strip"), "lim", False, 1,
                                 "cholesky_banded"),
    "poisson_odd_key": (_plus(POISSON, {((1, 0), (0, 1)): "0.5", ((0, 1), (1, 0)): "0.5"}),
                        "cyl", False, 1, "cholesky_banded"),
    "poisson_sin_x1": (_plus(POISSON, {((1, 0), (1, 0)): "2 + sin(x1)"}), "cyl", False, 1,
                       "cholesky_banded"),
    "poisson_nonsymmetric": (_plus(POISSON, {((0, 1), (0, 0)): "1"}), "cyl", True, 1,
                             "lu_banded"),
    # the even parity block of the whole system: the odd key (1, 0) has no
    # fold, and f = 1 leaves the odd block's load zero
    "poisson_convection": (_plus(POISSON, {((1, 0), (0, 0)): "1"}), "cyl", False, 1,
                           "lu_banded"),
}


@pytest.mark.parametrize("spec,where,folds,solves,method", _ONE_ACCEPTANCE.values(),
                         ids=_ONE_ACCEPTANCE.keys())
def test_every_solve_is_accepted_once_on_the_full_system(monkeypatch, spec, where, folds,
                                                         solves, method):
    # _solve_system takes |A|_inf of the system it is given, once, and runs
    # the one acceptance step once, with that system's rhs, matvec and norm,
    # whether it folds or not; the kernels check nothing themselves.  Every
    # system, one with an n-D band included, reads its norm off its pieces
    # (inf_norm); every banded solve walks its own system once
    if where == "cyl":
        system = assembled_cylinder(spec, ell=2.0, resolution=5)
    else:
        system = assembled_limit(spec, resolution=5)
    blocks = system.parity_blocks()
    assert (blocks is not None and blocks[0][1].ndofs * 2 <= system.ndofs
            and system.section.even) is folds
    accept, inf_norm = harness._accept, assembly.AssembledSystem.inf_norm
    entries = assembly.AssembledSystem._entries
    accepts, norms, walks, kernels = [], [], [], []

    def counted_accept(x, b, a_norm, matvec, where, method):
        accepts.append((b, a_norm, matvec))
        return accept(x, b, a_norm, matvec, where, method)

    def counted_norm(self):
        norms.append(self)
        return inf_norm(self)

    def counted_walk(self, lower):
        walks.append(self)
        return entries(self, lower)

    def counted(kernel):
        def run(*args, **kwargs):
            kernels.append(kernel)
            return kernel(*args, **kwargs)
        return run

    monkeypatch.setattr(harness, "_accept", counted_accept)
    monkeypatch.setattr(assembly.AssembledSystem, "inf_norm", counted_norm)
    monkeypatch.setattr(assembly.AssembledSystem, "_entries", counted_walk)
    for name in ("cholesky_solve", "lu_solve"):
        monkeypatch.setattr(harness, name, counted(getattr(harness, name)))
    result = harness._solve_system(system)
    assert result.method == method and result.x.size == system.ndofs
    assert len(kernels) == len(walks) == solves
    assert len(norms) == 1 and norms[0] is system
    [(b, a_norm, matvec)] = accepts
    assert b is system.rhs and matvec == system.matvec and a_norm == system.inf_norm()

    # a backward error the check refuses, from a residual 1e-6 off, names
    # the problem, l and the stage
    def perturbed(x, b, a_norm, matvec, where, method):
        return accept(x, b, a_norm, lambda v: matvec(v) * (1 + 1e-6), where, method)

    monkeypatch.setattr(harness, "_accept", perturbed)
    at = "on the cross-section (l = inf)" if where == "lim" else "at l = 2"
    with pytest.raises(linalg.SolverError,
                       match=rf"^solve for problem {spec.name} {re.escape(at)}: "
                             r"backward error \S+ exceeds 1e-14$"):
        harness._solve_system(system)

BIHARMONIC_3D_CONFIG = (
    "[problem]\nm = 2\nn = 3\np = 1\nomega = 0,1;0,2\n\n[coef]\n"
    "a_2_0_0_2_0_0 = 1\na_0_2_0_0_2_0 = 1\na_0_0_2_0_0_2 = 1\n"
    "a_2_0_0_0_2_0 = 1\na_0_2_0_2_0_0 = 1\n\n[forcing]\nf = 1 + x2\n"
)
_BLOCKED = {
    # (spec, ell, resolution, degree); N_c = resolution - 1 for the
    # biharmonic strip at its default degree 3
    "biharmonic_even_nc": (builtin_problem("biharmonic_strip"), 2.0, 9, None),
    "biharmonic_fewest": (builtin_problem("biharmonic_strip"), 0.5, 5, 2),
    # n = 3: x2 on (0, 1) has an even N_c, x3 on (0, 2) an odd one
    "biharmonic_3d": (parse_problem_config(BIHARMONIC_3D_CONFIG, "biharmonic_3d"), 1.0, 5,
                      None),
    # nonsymmetric, and no axial fold: LU on the whole system's blocks
    "convection": (_plus(POISSON, {((1, 0), (0, 0)): "1"}), 2.0, 5, None),
}


@pytest.mark.parametrize("spec,ell,resolution,degree", _BLOCKED.values(), ids=_BLOCKED.keys())
def test_a_block_solve_agrees_with_the_full_path_solve(spec, ell, resolution, degree):
    # the blocks split the system with no coupling dropped (its section's
    # blocks equal their mirrors bitwise); both their solve and the whole system's
    # pass the gate, so they differ by at most |A^-1| times the sum of
    # their residual bounds, as for the even fold above
    system = assembled_cylinder(spec, ell=ell, resolution=resolution, degree=degree)
    assert system.section.parity_axes and system.parity_blocks()
    result, full = harness._solve_system(system), full_path_solve(system)
    x, b, a_norm = result.x, system.rhs, system.inf_norm()
    assert result.method == full.method and result.backward_error <= 1e-14
    bound = 10.0 * inverse_inf_norm(system) * linalg.BACKWARD_ERROR_TOL * (
        a_norm * (np.abs(x).max() + np.abs(full.x).max()) + 2.0 * np.abs(b).max())
    assert np.abs(x - full.x).max() <= bound


@pytest.mark.parametrize("omega,resolution", [
    ((0.0, 1.0), 8), ((0.0, 1.0), 12), ((0.0, 1.0), 24), ((0.0, 1.0), 32), ((0.0, 1.0), 64),
    ((100.0, 101.0), 32), ((1000.0, 1001.0), 32), ((15.89, 16.89), 48), ((-16.67, -15.67), 24),
])
def test_the_block_solve_passes_the_gate_on_the_full_system(omega, resolution):
    # omega's knots and Gauss points mirror only up to roundoff (the
    # kernel's blocks up to 4e-15 relative on (0, 1) at 12 and 24 cells per
    # unit, 8e-13 on (15.89, 16.89) at 48); the section places its blocks
    # from the stencil, mirror symmetric bitwise, so the parity blocks split
    # the full system exactly, and the
    # unchanged gate on it passes with a margin of at least 10 (the largest
    # backward error measured at l = 2, 4, 8 and 16 is 6.6e-16, on (0, 1)
    # at 24 cells per unit and on (-16.67, -15.67))
    spec = dataclasses.replace(builtin_problem("biharmonic_strip"), omega=(omega,))
    section = assembly.CrossSection(spec, resolution)
    for ell in (2.0, 16.0):
        system = assembly.assemble_cylinder(section, ell=ell)
        # on every omega the load of f = 1 is even bitwise, so the odd
        # block's is exactly zero and it is left out
        assert system.section.parity_axes and system.parity_blocks()
        berr = harness._solve_system(system).backward_error
        margin = linalg.BACKWARD_ERROR_TOL / berr
        assert margin >= 10.0, f"l = {ell:g}: backward error {berr:.3g}, margin {margin:.3g}"


def test_a_block_solve_peaks_below_one_folded_band():
    # at 32 cells per unit and l = 16 the even half's band is 12.3 MB
    # (kd = 96); its blocks' are 3.4 and 3.0 MB (kd = 51 and 48), written,
    # factored and freed one after the other, so the traced peak (4.1 MiB
    # measured) stays below the even half's band
    linalg._lapack()
    system = assembled_cylinder(builtin_problem("biharmonic_strip"), ell=16.0,
                                        resolution=32)
    n_c = system.basis.factors[1].dim
    kd, half = 3 * n_c + 3, (system.basis.factors[0].dim + 1) // 2 * n_c
    tracemalloc.start()
    try:
        result = harness._solve_system(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.method == "cholesky_banded" and result.backward_error <= 1e-14
    assert peak < (kd + 1) * half * 8


def _zero_forcing(spec):
    return dataclasses.replace(spec, forcing=ScalarField.parse("0", spec.n))


_BYPASS = {
    "poisson": POISSON,
    "varcoef": builtin_problem("varcoef_strip"),
    "skew": parse_problem_config(SKEW_CONFIG, "skew"),
    "box3d": _laplace_box(),
}


def _assert_the_fold_path_bit_for_bit(spec, ell, resolution, where):
    """x, its residual and its backward error are those of the two folds
    chained, the even half first, then its parity blocks, joined, then
    unfolded (dense_oracle.fold_path_solve), bit for bit."""
    def assembled():
        if where == "cyl":
            return assembled_cylinder(spec, ell=ell, resolution=resolution)
        return assembled_limit(spec, resolution=resolution)

    result, want = harness._solve_system(assembled()), fold_path_solve(assembled())
    assert result.method == want.method
    assert result.x.tobytes() == want.x.tobytes()
    assert (result.residual, result.backward_error) == (want.residual, want.backward_error)


@pytest.mark.parametrize("where", ["cyl", "lim"])
@pytest.mark.parametrize("spec", _BYPASS.values(), ids=_BYPASS.keys())
def test_a_system_without_parity_blocks_takes_the_fold_path_bit_for_bit(spec, where):
    # two-part systems (poisson, box3d), one whose coefficient reads x2
    # (varcoef), one odd in x2 (skew) and every cross-section system: no
    # parity axis, so a cylinder system's one block is its even half
    assert assembly.CrossSection(spec, 6).parity_axes == ()
    _assert_the_fold_path_bit_for_bit(spec, 2.0, 6, where)


_CHAINED = {
    # (spec, ell, resolution): a fold and parity blocks, or parity blocks
    # alone, or a fold of both axial axes
    "biharmonic": (builtin_problem("biharmonic_strip"), 2.0, 6),
    "biharmonic_3d": (parse_problem_config(BIHARMONIC_3D_CONFIG, "biharmonic_3d"), 1.0, 5),
    "box_p2": (parse_problem_config(BOX_P2_CONFIG, "box_p2"), 2.0, 4),
    "convection": (_plus(POISSON, {((1, 0), (0, 0)): "1"}), 2.0, 5),
    # every block left out, or a zero even half solved
    "biharmonic_zero": (_zero_forcing(builtin_problem("biharmonic_strip")), 2.0, 6),
    "poisson_zero": (_zero_forcing(POISSON), 2.0, 6),
}


@pytest.mark.parametrize("where", ["cyl", "lim"])
@pytest.mark.parametrize("spec,ell,resolution", _CHAINED.values(), ids=_CHAINED.keys())
def test_a_block_solve_takes_the_fold_path_bit_for_bit(spec, ell, resolution, where):
    # the one fold (AssembledSystem.parity_blocks, then joined) on the
    # systems that also have parity axes, fold two axial axes or have a zero
    # load
    _assert_the_fold_path_bit_for_bit(spec, ell, resolution, where)


_ZERO = {
    # (spec, refused kernel, method)
    "biharmonic": (builtin_problem("biharmonic_strip"), "cholesky_solve", "cholesky_banded"),
    "poisson": (POISSON, "kronecker_solve", "fast_diagonalization"),
    "box3d": (_laplace_box(), "kronecker_solve", "fast_diagonalization"),
}


@pytest.mark.parametrize("spec,kernel,method", _ZERO.values(), ids=_ZERO.keys())
def test_a_zero_forcing_solves_no_block(monkeypatch, spec, kernel, method):
    # every folded load is exactly zero, so every block is left out, the
    # even half of a two-part system too, and x is +0.0 throughout
    def refuse(*args, **kwargs):
        raise AssertionError("a block with a zero load was solved")

    system = assembled_cylinder(_zero_forcing(spec), ell=2.0, resolution=6)
    assert system.parity_blocks() == ()
    monkeypatch.setattr(harness, kernel, refuse)
    result = harness._solve_system(system)
    assert result.method == method and result.backward_error == 0.0
    assert result.x.shape == (system.ndofs,) and not np.signbit(result.x).any()
    assert not result.x.any()


# ------------------------------------------------------------------ refinement


@pytest.mark.parametrize("ell,ell0,extent,what", [
    (2.0, 1.0, r"\(0, 1\)", "the extent of x2"),
    (0.5, 0.25, r"\(-0\.5, 0\.5\)", r"the axial extent at l = 0\.5"),
])
def test_refinement_checks_2m_plus_1_cells_before_any_assembly(monkeypatch, ell, ell0, extent,
                                                               what):
    # 2 cells per unit puts 2 cells on a unit extent, below the 2m + 1 = 3
    # a Dirichlet factor needs; the sweep plan's check refuses it first
    def refuse(*args, **kwargs):
        raise AssertionError("assembled before the geometry check")

    monkeypatch.setattr(harness, "assemble_limit", refuse)
    monkeypatch.setattr(harness, "assemble_cylinder", refuse)
    with pytest.raises(ValueError, match=rf"^problem poisson_strip: resolution 2 puts 2 cells "
                                         rf"on {extent}, {what}, below 2m\+1 = 3$"):
        run_refinement(POISSON, ell=ell, resolutions=[2, 4, 8], ell0=ell0)


def test_refinement_poisson_linear_splines_first_order(tmp_path):
    out = tmp_path / "refine.csv"
    rows, fit = run_refinement(
        POISSON, ell=2.0, resolutions=[8, 16, 32], degree=1, out_csv=out
    )
    errs = [r["err_Hm_limit"] for r in rows]
    assert errs[0] > errs[1] > errs[2] > 1e-12
    assert fit is not None
    assert abs(fit.rate - 1.0) <= 0.3
    # the cylinder-vs-limit column stalls at the ell-truncation level
    cyl = [r["err_Hm_cyl_vs_limit"] for r in rows]
    assert max(cyl) / min(cyl) <= 1.2
    header = out.read_text().splitlines()[0]
    assert header == "resolution,h,dofs_limit,err_Hm_limit,order,err_Hm_cyl_vs_limit"


def test_refinement_requires_analytic_reference():
    with pytest.raises(ProblemConfigError, match="closed-form"):
        run_refinement(builtin_problem("varcoef_strip"), ell=2.0, resolutions=[4, 8, 16])


def test_refinement_input_validation():
    with pytest.raises(ValueError, match="at least 3"):
        run_refinement(POISSON, ell=2.0, resolutions=[8, 16])
    with pytest.raises(ValueError, match="strictly increasing"):
        run_refinement(POISSON, ell=2.0, resolutions=[8, 8, 16])


@pytest.mark.parametrize("ell", [math.inf, math.nan, 0.0, -1.0])
def test_refinement_checks_the_half_length_before_any_work(monkeypatch, ell):
    def refuse(*args, **kwargs):
        raise AssertionError("assembled before checking l")

    monkeypatch.setattr(harness, "assemble_limit", refuse)
    monkeypatch.setattr(harness, "assemble_cylinder", refuse)
    with pytest.raises(assembly.AssemblyError, match=f"at l = {ell:g}: half-length must be finite"):
        run_refinement(POISSON, ell=ell, resolutions=[4, 5, 6])


def test_refinement_checks_l_against_l0_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("assembled before checking l against l0")

    monkeypatch.setattr(harness, "assemble_limit", refuse)
    monkeypatch.setattr(harness, "assemble_cylinder", refuse)
    with pytest.raises(ValueError, match=r"for problem poisson_strip at l = 0\.5: half-length "
                                         r"must exceed l0 = 1"):
        run_refinement(POISSON, ell=0.5, resolutions=[4, 5, 6])
    with pytest.raises(ValueError, match=r"at l = 2: half-length must exceed l0 = 2"):
        run_refinement(POISSON, ell=2.0, resolutions=[4, 5, 6], ell0=2.0)


# ------------------------------------------------------------------ CLI


def test_cli_sweep_writes_outputs(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    code = cli.main(
        [
            "sweep",
            "--problem",
            "poisson_strip",
            "--l",
            "2,4,8",
            "--cells-per-unit",
            "4",
            "--out-csv",
            str(csv_path),
            "--out-json",
            str(json_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted rate (H^m):" in out
    assert csv_path.exists() and json_path.exists()
    assert csv_path.read_text().splitlines()[0].startswith("ell,dofs,err_L2")


def test_cli_nonsymmetric_sweep_decays_on_any_worker_count(tmp_path, capsys):
    cfg = tmp_path / "skew.cfg"
    cfg.write_text(SKEW_CONFIG)
    csvs = []
    for workers in (1, 2):
        csv_path, json_path = tmp_path / f"w{workers}.csv", tmp_path / f"w{workers}.json"
        argv = ["sweep", "--problem", str(cfg), "--l", "2,4,8", "--cells-per-unit", "6"]
        argv += ["--workers", str(workers), "--out-csv", str(csv_path)]
        assert cli.main(argv + ["--out-json", str(json_path)]) == 0
        records = json.loads(json_path.read_text())["records"]
        assert all(r["solver_method"] == "lu_banded" for r in records)
        errs = [r["err_Hm"] for r in records]
        assert errs[0] > 1e-3 and all(b < 1e-2 * a for a, b in zip(errs, errs[1:]))
        csvs.append(csv_path.read_bytes())
    assert csvs[0] == csvs[1]
    capsys.readouterr()


def test_cli_validate_ok(capsys):
    assert cli.main(["validate", "--problem", "poisson_strip"]) == 0
    assert "hypotheses: ok" in capsys.readouterr().out


def test_cli_refine_prints_orders(capsys):
    code = cli.main(
        ["refine", "--problem", "poisson_strip", "--l", "2", "--cells", "8,16,32", "--degree", "1"]
    )
    assert code == 0
    assert "observed order (fit): 1.0" in capsys.readouterr().out


def test_cli_config_errors_exit_one(capsys):
    assert cli.main(["sweep", "--problem", "nosuch_thing"]) == 1
    assert cli.main(["sweep", "--problem", "poisson_strip", "--l", "2,4", "--l0", "3"]) == 1
    assert cli.main(["sweep", "--problem", "poisson_strip", "--l", "two"]) == 1
    assert cli.main(["refine", "--problem", "poisson_strip", "--degree", "x"]) == 1
    capsys.readouterr()


def test_cli_refuses_two_spellings_of_one_coefficient(tmp_path, capsys):
    path = tmp_path / "twice.cfg"
    path.write_text("[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
                    "a_1_0_1_0 = 1\na_01_0_1_0 = 5\na_0_1_0_1 = 1\n\n[forcing]\nf = 1\n")
    assert cli.main(["validate", "--problem", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: {path}: coefficient keys 'a_1_0_1_0' and "
                                       "'a_01_0_1_0' in [coef] both encode alpha=(1, 0), "
                                       "beta=(1, 0)\n")


@pytest.mark.parametrize("argv", [["validate"], ["sweep", "--l", "2,4", "--cells-per-unit", "4"]],
                         ids=["validate", "sweep"])
def test_cli_refuses_four_axes(tmp_path, capsys, argv):
    # the Laplacian on (-l, l) x (0, 1)^3: validate used to pass it, and
    # sweep to die in band_apply's einsum with a message of numpy's
    path = tmp_path / "four.cfg"
    path.write_text("[problem]\nm = 1\nn = 4\np = 1\nomega = 0,1;0,1;0,1\n\n[coef]\n"
                    "a_1_0_0_0_1_0_0_0 = 1\na_0_1_0_0_0_1_0_0 = 1\n"
                    "a_0_0_1_0_0_0_1_0 = 1\na_0_0_0_1_0_0_0_1 = 1\n\n[forcing]\nf = 1\n")
    assert cli.main([argv[0], "--problem", str(path), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: {path}: n = 4 exceeds the supported limit n <= 3\n"


@pytest.mark.parametrize("key,value,message", [
    ("a_0_1_0_1", "-" * 5000 + "1",
     "in [coef] a_0_1_0_1: offset 200: expression nests deeper than 200 levels"),
    ("f", "(" * 3000 + "1" + ")" * 3000,
     "in [forcing] f: offset 200: expression nests deeper than 200 levels"),
    ("f", "+".join(["x2"] * 2999 + ["1"]),
     "in [forcing] f: offset 602: expression tree deeper than 200 operators"),
], ids=["minus", "parens", "sum"])
def test_cli_refuses_a_too_deep_expression_by_its_field(tmp_path, capsys, key, value, message):
    # the Poisson strip, one of its fields replaced
    fields = {"a_1_0_1_0": "1", "a_0_1_0_1": "1", "f": "1", key: value}
    text = ("[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
            f"a_1_0_1_0 = {fields['a_1_0_1_0']}\na_0_1_0_1 = {fields['a_0_1_0_1']}\n\n"
            f"[forcing]\nf = {fields['f']}\n")
    path = tmp_path / "deep.cfg"
    path.write_text(text)
    assert cli.main(["validate", "--problem", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


_BAD_CONFIGS = {  # a config error of each kind: the spec, the [coef] keys, an expression
    "four_axes": "[problem]\nm = 1\nn = 4\np = 1\nomega = 0,1;0,1;0,1\n\n[coef]\n"
                 "a_1_0_0_0_1_0_0_0 = 1\n\n[forcing]\nf = 1\n",
    "repeated_key": "[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
                    "a_1_0_1_0 = 1\na_01_0_1_0 = 5\na_0_1_0_1 = 1\n\n[forcing]\nf = 1\n",
    "bad_expression": "[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
                      "a_1_0_1_0 = 1\na_0_1_0_1 = 1\n\n[forcing]\nf = 1 +\n",
}


@pytest.mark.parametrize("argv", [["validate"], ["sweep", "--l", "2,4", "--cells-per-unit", "4"]],
                         ids=["validate", "sweep"])
@pytest.mark.parametrize("config", _BAD_CONFIGS.values(), ids=_BAD_CONFIGS.keys())
def test_cli_config_errors_name_the_file(tmp_path, capsys, argv, config):
    path = tmp_path / "bad.cfg"
    path.write_text(config)
    assert cli.main([argv[0], "--problem", str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv,value", [
    (["sweep", "--problem", "poisson_strip", "--cells-per-unit", "0"], 0),
    (["sweep", "--problem", "poisson_strip", "--cells-per-unit", "-3"], -3),
    (["refine", "--problem", "poisson_strip", "--cells", "0,4,8"], 0),
], ids=["sweep-0", "sweep-negative", "refine-0"])
def test_cli_refuses_a_resolution_below_one(capsys, argv, value):
    # cells_for clamps any extent to at least 1 cell, so without this check
    # resolution 0 was reported as putting 1 cell on (-2, 2)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: problem poisson_strip: resolution {value} is below 1 cell "
                            "per unit length\n")


@pytest.mark.parametrize("argv,extent", [
    (["sweep", "--problem", "poisson_strip", "--l", "1e308"],
     "(-1e+308, 1e+308), the axial extent at the smallest l"),
    (["refine", "--problem", "poisson_strip", "--l", "1e308"],
     "(-1e+308, 1e+308), the axial extent at l = 1e+308"),
    (["sweep", "--problem", "poisson_strip", "--cells-per-unit", "1" + "0" * 400],
     "(-2, 2), the axial extent at the smallest l"),
    (["sweep", "--problem", "{config}"], "(-1e+308, 1e+308), the extent of x2"),
], ids=["sweep-l", "refine-l", "sweep-cells", "sweep-omega"])
def test_cli_refuses_an_infinite_cell_count(tmp_path, capsys, argv, extent):
    # (hi - lo) times the resolution overflows a float: the axial extent
    # of a huge l, a resolution of 401 digits, or a huge omega, which
    # `validate` passes; cells_for would raise OverflowError
    config = tmp_path / "huge.cfg"
    config.write_text("[problem]\nm = 1\nn = 2\np = 1\nomega = -1e308,1e308\n\n[coef]\n"
                      "a_1_0_1_0 = 1\na_0_1_0_1 = 1\n\n[forcing]\nf = 1\n")
    argv = [arg.format(config=config) for arg in argv]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    name = argv[2]  # the builtin's name, or the config's path
    assert err.startswith(f"error: problem {name}: resolution ") and err.count("\n") == 1, err
    assert err.endswith(f" puts no finite number of cells on {extent}\n"), err


def test_cli_reports_running_out_of_memory_in_one_line(tmp_path):
    # omega = (0, 1e12) passes validate and every cell-count check, and the
    # sweep then asks numpy for 116 TiB of breakpoints.  The child's address
    # space is capped, so that allocation fails whatever the machine's
    # overcommit setting
    config = tmp_path / "huge.cfg"
    config.write_text("[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1e12\n\n[coef]\n"
                      "a_1_0_1_0 = 1\na_0_1_0_1 = 1\n\n[forcing]\nf = 1\n")

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    child = subprocess.run(
        [sys.executable, "-m", "cylasym", "sweep", "--problem", str(config), "--l", "2,4"],
        capture_output=True, text=True, preexec_fn=capped, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert child.returncode == 1 and child.stdout == ""
    assert child.stderr.startswith(f"error: problem {config}: out of memory: Unable to allocate ")
    assert child.stderr.count("\n") == 1, child.stderr


def test_python_dash_m_runs_the_cli(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["validate", "--problem", "poisson_strip"]
    child = subprocess.run([sys.executable, "-m", "cylasym"] + argv, capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": src})
    assert cli.main(argv) == 0
    assert (child.returncode, child.stdout, child.stderr) == (0, capsys.readouterr().out, "")


def test_cli_refine_too_few_cells_exits_one(capsys):
    # omega = (0, 1) at 1 cell per unit is below the 2m + 1 = 3 cells a
    # Dirichlet factor needs
    argv = ["refine", "--problem", "poisson_strip", "--cells", "1,2,4"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: problem poisson_strip: resolution 1 puts 1 cells on (0, 1), "
                            "the extent of x2, below 2m+1 = 3\n")
    assert "Traceback" not in captured.out

def test_cli_hypothesis_failure_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n"
        "[coef]\na_1_0_1_0 = 1\na_0_1_0_1 = 1 + x1^2\n\n[forcing]\nf = 1\n"
    )
    assert cli.main(["validate", "--problem", str(cfg)]) == 2
    assert (
        cli.main(
            ["sweep", "--problem", str(cfg), "--l", "2,4", "--cells-per-unit", "4"]
        )
        == 2
    )
    capsys.readouterr()


@pytest.mark.parametrize(
    "singular,text,stage,at",
    [
        # a cross-section block, of the limit's axial key or another, fails
        # once, when the section is built
        ("a_0_1_0_1", "1 + 1 / (x2 - 0.5)^2", "cross-section", "l = inf"),
        ("a_1_0_1_0", "1 + 1 / (x2 - 0.5)^2", "cross-section", "l = inf"),
        # a coefficient that reads x1 goes into the n-D band, assembled at
        # every l
        ("a_1_0_1_0", "(1 + 0 * x1) / (x2 - 0.5)^2", "assemble_cylinder", "l = 2"),
    ],
    ids=["limit_block", "axial_block", "nd_band"],
)
def test_cli_assembly_failure_exits_one(tmp_path, capsys, singular, text, stage, at):
    # 13 cells put a Gauss node on x2 = 0.5, where the coefficient is infinite
    coefs = {"a_1_0_1_0": "1", "a_0_1_0_1": "1"}
    coefs[singular] = text
    cfg = tmp_path / "singular.cfg"
    cfg.write_text(
        "[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
        + "".join(f"{k} = {v}\n" for k, v in coefs.items())
        + "\n[forcing]\nf = 1\n"
    )
    assert cli.main(["validate", "--problem", str(cfg)]) == 0
    code = cli.main(
        ["sweep", "--problem", str(cfg), "--l", "2,4", "--cells-per-unit", "13"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert f"{stage} for problem {cfg} " in err and at in err
    assert "non-finite" in err


@pytest.mark.parametrize(
    "problem_line,forcing,needle",
    [
        ("lambda_hint = inf", "1", "lambda_hint"),
        ("lambda_hint = nan", "1", "lambda_hint"),
        ("lambda_hint = 1", "1 + exp(-1e999)", "offset 9"),
    ],
)
@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_cli_non_finite_config_numbers_exit_one(
    tmp_path, capsys, problem_line, forcing, needle, command
):
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(
        f"[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n{problem_line}\n\n"
        f"[coef]\na_1_0_1_0 = 1\na_0_1_0_1 = 1\n\n[forcing]\nf = {forcing}\n"
    )
    argv = [command, "--problem", str(cfg)]
    if command == "sweep":
        argv += ["--l", "2,4", "--cells-per-unit", "4"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and needle in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["sweep", "--l", "2,4,inf"], "got inf"),
        (["sweep", "--l", "2,nan"], "got nan"),
        (["sweep", "--l0", "nan"], "got nan"),
        (["refine", "--l", "inf", "--cells", "4,5,6"], "at l = inf"),
        (["refine", "--l", "nan", "--cells", "4,5,6"], "at l = nan"),
    ],
)
def test_cli_non_finite_half_lengths_exit_one(capsys, argv, needle):
    if argv[0] == "sweep":
        argv = argv + ["--cells-per-unit", "4"]
    assert cli.main(argv + ["--problem", "poisson_strip"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and needle in captured.err
    assert captured.err.count("error:") == 1
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("ell", ["inf", "nan", "0"])
def test_cli_refine_bad_half_length_exits_one_before_assembly(monkeypatch, capsys, ell):
    def refuse(*args, **kwargs):
        raise AssertionError("assembled before checking l")

    monkeypatch.setattr(harness, "assemble_limit", refuse)
    argv = ["refine", "--problem", "poisson_strip", "--l", ell, "--cells", "4,5,6"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: assemble_cylinder for problem poisson_strip at l = {ell}: "
        "half-length must be finite and positive\n"
    )


def test_cli_biharmonic_sweep_at_40_cells_per_unit_exits_zero(tmp_path, capsys):
    # a relres gate of 1e-12 rejected these backward-stable solutions (exit 3)
    out = tmp_path / "bih.json"
    argv = ["sweep", "--problem", "biharmonic_strip", "--l", "2,4,8",
            "--cells-per-unit", "40", "--out-json", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["plan"]["backward_error_tol"] == 1e-14
    records = report["records"]
    assert [r["solver_method"] for r in records] == ["cholesky_banded"] * 3
    assert all(0.0 <= r["backward_error"] <= 1e-14 for r in records)


def test_cli_indefinite_problem_exits_three_naming_the_stage(tmp_path, capsys):
    # -u'' - 100 u on (0, 1) is indefinite (pi^2 < 100): Cholesky of the
    # cross-section matrix fails, which proves the matrix is not SPD
    cfg = tmp_path / "indefinite.cfg"
    cfg.write_text(
        "[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\na_1_0_1_0 = 1\n"
        "a_0_1_0_1 = 1\na_0_0_0_0 = -100\n\n[forcing]\nf = 1\n"
    )
    argv = ["sweep", "--problem", str(cfg), "--l", "2,4", "--cells-per-unit", "4"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"solver failure: solve for problem {cfg} on the cross-section")
    assert "not positive definite" in err and err.count("\n") == 1


# a sweep whose every job fails at 13 cells/unit, in its n-D band
_SINGULAR_CONFIG = (
    "[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
    "a_1_0_1_0 = (1 + 0 * x1) / (x2 - 0.5)^2\na_0_1_0_1 = 1\n\n[forcing]\nf = 1\n"
)


def test_cli_failed_jobs_name_the_smallest_ell_with_and_without_pool(tmp_path, capsys):
    # the coefficient reads x1, so the n-D band is assembled at every l, and
    # is infinite at a Gauss node at every l; the largest l runs first, and
    # the error still names l = 2, as in plan order
    cfg = tmp_path / "singular.cfg"
    cfg.write_text(_SINGULAR_CONFIG)
    errs = []
    for workers in ("1", "2"):
        argv = ["sweep", "--problem", str(cfg), "--l", "2,4,8", "--cells-per-unit", "13",
                "--workers", workers]
        assert cli.main(argv) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert "assemble_cylinder" in errs[0] and "at l = 2:" in errs[0]


# ------------------------------------------------------------------ fork-join

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _patched_worker(monkeypatch, act):
    """Patch harness._sweep_worker to call act(ell) before each job."""
    worker = harness._sweep_worker

    def patched(job):
        act(job[2])
        return worker(job)

    monkeypatch.setattr(harness, "_sweep_worker", patched)


def test_chains_put_the_largest_ell_first_on_the_least_loaded_chain():
    jobs = [(None, None, ell) for ell in (2.0, 4.0, 8.0, 16.0)]
    assert harness._chains(jobs, 2) == [[3], [2, 1, 0]]
    assert harness._chains(jobs, 1) == [[3, 2, 1, 0]]
    assert harness._chains(jobs, 8) == [[3], [2], [1], [0]]


@pytest.mark.parametrize("config,code", [(None, 0), (_SINGULAR_CONFIG, 1)],
                         ids=["good", "failing"])
def test_forked_sweeps_leave_no_child_process(tmp_path, capsys, config, code):
    problem = "poisson_strip"
    if config is not None:
        problem = tmp_path / "singular.cfg"
        problem.write_text(config)
    argv = ["sweep", "--problem", str(problem), "--l", "2,4,8", "--cells-per-unit", "13",
            "--workers", "2"]
    assert cli.main(argv) == code
    capsys.readouterr()
    _no_child_left()


def test_a_dead_worker_is_named_with_its_ells_and_exits_four(monkeypatch, capsys):
    # l = 2, 4, 8 on 2 workers: chains [8] and [4, 2]; the second child
    # exits at l = 4 without sending anything
    def act(ell):
        if ell == 4.0:
            os._exit(3)

    _patched_worker(monkeypatch, act)
    argv = ["sweep", "--problem", "poisson_strip", "--l", "2,4,8", "--cells-per-unit", "6",
            "--workers", "2"]
    assert cli.main(argv) == cli.EXIT_WORKER == 4
    err = capsys.readouterr().err
    assert err == ("worker failure: the sweep worker for problem poisson_strip at l = 4, 2 "
                   "exited without its results (wait status 768, exit code 3)\n")
    _no_child_left()


def test_a_parent_error_kills_and_reaps_every_child(monkeypatch):
    # the l = 8 child is killed while the other one would sleep for a
    # minute: the parent raises at once and kills it
    def act(ell):
        if ell == 8.0:
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60.0)

    _patched_worker(monkeypatch, act)
    plan = SweepPlan(spec=POISSON, ells=(2.0, 4.0, 8.0), resolution=6, workers=2)
    t = time.perf_counter()
    with pytest.raises(harness.WorkerError, match=r"poisson_strip at l = 8 exited without its "
                                                  r"results \(wait status 9, killed by signal "
                                                  r"9\)$"):
        run_sweep(plan)
    assert time.perf_counter() - t < 30.0
    _no_child_left()


def test_a_keyboard_interrupt_kills_and_reaps_every_child(monkeypatch):
    # the l = 8 child interrupts the parent, which waits on its pipe, and
    # both children would sleep for a minute
    def act(ell):
        if ell == 8.0:
            time.sleep(0.2)
            os.kill(os.getppid(), signal.SIGINT)
        time.sleep(60.0)

    _patched_worker(monkeypatch, act)
    plan = SweepPlan(spec=POISSON, ells=(2.0, 4.0, 8.0), resolution=6, workers=2)
    # a shell's background job inherits SIGINT ignored, which would leave
    # the parent waiting out both children's minute
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        t = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(plan)
        assert time.perf_counter() - t < 30.0
    finally:
        signal.signal(signal.SIGINT, previous)
    _no_child_left()


def test_an_outcome_that_cannot_be_pickled_travels_as_its_repr(monkeypatch):
    worker = harness._sweep_worker

    def patched(job):
        record, localized = worker(job)
        return (record, lambda: localized) if job[2] == 4.0 else (record, localized)

    monkeypatch.setattr(harness, "_sweep_worker", patched)
    plan = SweepPlan(spec=POISSON, ells=(2.0, 4.0, 8.0), resolution=6, workers=2)
    with pytest.raises(RuntimeError, match=r"^the outcome of the job at l = 4 cannot be "
                                           r"pickled: \(ErrorRecord\(ell=4\.0"):
        run_sweep(plan)
    _no_child_left()
