"""Sweep orchestration, refinement study, and CLI behavior."""

import numpy as np
import pytest

from cylasym import cli
from cylasym.analysis import (
    DifferenceEvaluator,
    ExtensionEvaluator,
    norm_Hm,
    write_report_csv,
)
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
    builtin_problem,
    parse_problem_config,
)

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
    with pytest.raises(ValueError, match="cannot conform"):
        SweepPlan(spec=builtin_problem("biharmonic_strip"), resolution=8, degree=1)


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


def test_sweep_localized_energy_decays_dyadically(poisson_report):
    table = poisson_report.localized_table
    assert [e for e, _ in table] == [4.0, 2.0, 1.0]
    vals = [v for _, v in table]
    assert vals[0] > vals[1] > vals[2] >= 0.0


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


def test_interior_estimate_at_alpha_zero_matches_quadrature_norm(poisson_report):
    # the lattice estimator at alpha = 0 is a trapezoid version of the same
    # H^m error the Gauss quadrature computes; they agree to a couple percent
    plan = SweepPlan(spec=POISSON, ells=(2.0,), ell0=1.0, resolution=8)
    from cylasym.assembly import assemble_cylinder, assemble_limit
    from cylasym.linalg import cg_jacobi
    from cylasym.splines import DiscreteField

    sys_c = assemble_cylinder(POISSON, ell=2.0, resolution=8, degree=2)
    u_l = DiscreteField(sys_c.basis, cg_jacobi(sys_c.matrix, sys_c.rhs, tol=1e-12).x)
    sys_o = assemble_limit(POISSON, resolution=8, degree=2)
    u_inf = DiscreteField(sys_o.basis, cg_jacobi(sys_o.matrix, sys_o.rhs, tol=1e-12).x)

    region = interior_region(POISSON, ell0=1.0, margin=0.25)
    est = interior_derivative_error(u_l, u_inf, (0, 0), region, h=1.0 / 16.0, m=1)
    diff = DifferenceEvaluator(u_l.eval_grid, ExtensionEvaluator(u_inf, p=1))
    ref = norm_Hm(diff, region, m=1, resolution=8)
    assert ref > 0.0
    assert abs(est - ref) <= 0.02 * ref


# ------------------------------------------------------------------ refinement


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


def test_cli_refine_too_few_cells_exits_one(capsys):
    # omega = (0, 1) at 1 cell per unit is below the 2m + 1 = 3 cells a
    # Dirichlet factor needs
    argv = ["refine", "--problem", "poisson_strip", "--cells", "1,2,4"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need at least 3 cells for bc_order=1, got 1\n"
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
    "singular,stage,at",
    [
        ("a_0_1_0_1", "assemble_limit", "l = inf"),
        ("a_1_0_1_0", "assemble_cylinder", "l = 2"),
    ],
)
def test_cli_assembly_failure_exits_one(tmp_path, capsys, singular, stage, at):
    # 13 cells put a Gauss node on x2 = 0.5, where the coefficient is infinite
    coefs = {"a_1_0_1_0": "1", "a_0_1_0_1": "1"}
    coefs[singular] = "1 + 1 / (x2 - 0.5)^2"
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
    assert stage in err and str(cfg) in err and at in err
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
