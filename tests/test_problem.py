"""Problem model: builtins, config round trip, hypothesis validation."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from dense_oracle import principal_symbol_min

from cylasym import multiindex as mi
from cylasym import problem
from cylasym.problem import (
    ProblemConfigError,
    ProblemSpec,
    ScalarField,
    analytic_limit,
    builtin_names,
    builtin_problem,
    load_problem,
    parse_problem_config,
    to_config_text,
    validate_hypotheses,
)


# ---------------------------------------------------------------- builtins


def test_builtin_names_cover_all():
    for name in builtin_names():
        spec = builtin_problem(name)
        assert spec.name == name


def test_unknown_builtin_lists_available():
    with pytest.raises(ProblemConfigError) as exc:
        builtin_problem("helmholtz")
    assert "poisson_strip" in str(exc.value)


def test_poisson_structure():
    spec = builtin_problem("poisson_strip")
    assert (spec.m, spec.n, spec.p) == (1, 2, 1)
    assert spec.omega == ((0.0, 1.0),)
    assert spec.symmetric
    assert spec.limit_pairs() == [(((0, 1)), (0, 1))] or spec.limit_pairs() == [
        ((0, 1), (0, 1))
    ]
    assert spec.principal_pairs() == [((0, 1), (0, 1)), ((1, 0), (1, 0))]


def test_biharmonic_structure():
    spec = builtin_problem("biharmonic_strip")
    assert spec.m == 2
    assert spec.symmetric
    # only the pure cross-section pair survives in the limit problem
    assert spec.limit_pairs() == [((0, 2), (0, 2))]
    assert len(spec.principal_pairs()) == 4


def test_analytic_limits_satisfy_their_odes():
    t = np.linspace(0.0, 1.0, 11)
    u1 = analytic_limit("poisson_strip")
    assert np.allclose(-u1(t, 2), 1.0)
    assert u1(0.0) == 0.0 and u1(1.0) == 0.0
    u2 = analytic_limit("biharmonic_strip")
    assert np.allclose(u2(t, 4), 1.0)
    for order in (0, 1):
        assert abs(u2(0.0, order)) < 1e-15 and abs(u2(1.0, order)) < 1e-15
    assert analytic_limit("varcoef_strip") is None


def test_analytic_limit_derivatives_consistent():
    # centered differences of each order-k derivative match order k+1
    t = np.linspace(0.1, 0.9, 9)
    h = 1e-6
    for name, top in (("poisson_strip", 2), ("biharmonic_strip", 4)):
        u = analytic_limit(name)
        for k in range(top):
            fd = (u(t + h, k) - u(t - h, k)) / (2 * h)
            assert np.allclose(fd, u(t, k + 1), atol=1e-6)


# ------------------------------------------------------------- validation


def test_constructor_rejects_bad_shapes():
    f1 = ScalarField.parse("1", 2)
    good = {((1, 0), (1, 0)): f1}
    with pytest.raises(ProblemConfigError):
        ProblemSpec(m=0, n=2, p=1, omega=((0, 1),), coefficients=good, forcing=f1)
    with pytest.raises(ProblemConfigError):
        ProblemSpec(m=1, n=2, p=2, omega=(), coefficients=good, forcing=f1)
    with pytest.raises(ProblemConfigError):
        ProblemSpec(m=1, n=2, p=1, omega=((1, 0),), coefficients=good, forcing=f1)
    with pytest.raises(ProblemConfigError):  # order 2 index with m = 1
        ProblemSpec(
            m=1, n=2, p=1, omega=((0, 1),),
            coefficients={((2, 0), (0, 0)): f1}, forcing=f1,
        )
    with pytest.raises(ProblemConfigError):  # no principal part
        ProblemSpec(
            m=1, n=2, p=1, omega=((0, 1),),
            coefficients={((0, 0), (0, 0)): f1}, forcing=f1,
        )


def test_scalar_field_rejects_out_of_range_variable():
    with pytest.raises(ProblemConfigError):
        ScalarField.parse("x3", 2)


def test_poisson_lambda_hat_is_one():
    report = validate_hypotheses(builtin_problem("poisson_strip"))
    assert report.passed
    assert abs(report.lambda_hat - 1.0) < 1e-12
    assert report.sup_norms["f"] == 1.0


def test_biharmonic_lambda_hat_at_least_one():
    # principal symbol is (xi_1^2 + xi_2^2)^2 = 1 on the unit circle
    report = validate_hypotheses(builtin_problem("biharmonic_strip"))
    assert report.passed
    assert report.lambda_hat >= 1.0 - 1e-12
    assert report.lambda_hat <= 1.0 + 1e-12


def test_varcoef_lambda_hat_at_least_one():
    report = validate_hypotheses(builtin_problem("varcoef_strip"))
    assert report.passed
    assert report.lambda_hat >= 1.0 - 1e-12
    assert report.lambda_hat < 1.5


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_x1_independence_sound_for_cross_only_fields(seed):
    # any field reading only cross coordinates passes regardless of seed
    spec = builtin_problem("varcoef_strip")
    report = validate_hypotheses(spec, sample_count=64, seed=seed)
    assert all(report.x1_independent.values())


def test_x1_dependent_cross_coefficient_fails():
    base = builtin_problem("poisson_strip")
    coeffs = dict(base.coefficients)
    coeffs[((0, 1), (0, 1))] = ScalarField.parse("1 + x1^2", 2)
    spec = ProblemSpec(
        m=1, n=2, p=1, omega=((0.0, 1.0),), coefficients=coeffs, forcing=base.forcing
    )
    report = validate_hypotheses(spec)
    assert report.x1_independent["a_0_1_0_1"] is False
    assert not report.passed


@pytest.mark.parametrize("text", ["1 + 1e-15 * x1", "1 + x1 - x1"])
def test_cross_coefficient_that_reads_x1_fails(text):
    # the test is whether the expression reads x1, not whether samples move:
    # assembly routes such a coefficient through the n-D kernel as axial
    base = builtin_problem("poisson_strip")
    coeffs = dict(base.coefficients)
    coeffs[((0, 1), (0, 1))] = ScalarField.parse(text, 2)
    spec = ProblemSpec(
        m=1, n=2, p=1, omega=((0.0, 1.0),), coefficients=coeffs, forcing=base.forcing
    )
    assert spec.coefficients[((0, 1), (0, 1))].reads_axial(spec.p)
    report = validate_hypotheses(spec)
    assert report.x1_independent["a_0_1_0_1"] is False
    assert report.x1_independent["f"] is True
    assert not report.passed


def test_forcing_that_reads_x1_only_on_paper_fails():
    base = builtin_problem("poisson_strip")
    spec = ProblemSpec(
        m=1, n=2, p=1, omega=((0.0, 1.0),),
        coefficients=dict(base.coefficients),
        forcing=ScalarField.parse("1 + x1 - x1", 2),
    )
    assert validate_hypotheses(spec).x1_independent["f"] is False


def test_x1_dependent_forcing_fails():
    base = builtin_problem("poisson_strip")
    spec = ProblemSpec(
        m=1, n=2, p=1, omega=((0.0, 1.0),),
        coefficients=dict(base.coefficients),
        forcing=ScalarField.parse("x1", 2),
    )
    report = validate_hypotheses(spec)
    assert report.x1_independent["f"] is False


def test_axial_coefficient_may_depend_on_x1():
    # alpha = (1,0) is axial, so x1 dependence there is allowed by the hypotheses
    base = builtin_problem("poisson_strip")
    coeffs = dict(base.coefficients)
    coeffs[((1, 0), (1, 0))] = ScalarField.parse("2 + sin(x1)", 2)
    spec = ProblemSpec(
        m=1, n=2, p=1, omega=((0.0, 1.0),), coefficients=coeffs, forcing=base.forcing
    )
    report = validate_hypotheses(spec)
    assert report.passed
    assert report.lambda_hat > 0.0


def test_negative_definite_principal_part_fails():
    f1 = ScalarField.parse("1", 2)
    spec = ProblemSpec(
        m=1, n=2, p=1, omega=((0.0, 1.0),),
        coefficients={
            ((1, 0), (1, 0)): ScalarField.parse("-1", 2),
            ((0, 1), (0, 1)): ScalarField.parse("-1", 2),
        },
        forcing=f1,
    )
    report = validate_hypotheses(spec)
    assert not report.ellipticity_ok
    assert report.lambda_hat < 0.0


def test_non_finite_field_raises():
    base = builtin_problem("poisson_strip")
    spec = ProblemSpec(
        m=1, n=2, p=1, omega=((0.0, 1.0),),
        coefficients=dict(base.coefficients),
        forcing=ScalarField.parse("1 / (x2 - x2)", 2),
    )
    with pytest.raises(ProblemConfigError):
        validate_hypotheses(spec)


@pytest.mark.parametrize("hint", [float("inf"), float("nan"), 0.0, -1.0])
def test_lambda_hint_must_be_finite_and_positive(hint):
    base = builtin_problem("poisson_strip")
    with pytest.raises(ProblemConfigError, match="lambda_hint"):
        ProblemSpec(
            m=1, n=2, p=1, omega=((0.0, 1.0),),
            coefficients=dict(base.coefficients), forcing=base.forcing,
            lambda_hint=hint,
        )


def test_validation_is_deterministic():
    spec = builtin_problem("varcoef_strip")
    r1 = validate_hypotheses(spec, sample_count=128, seed=5)
    r2 = validate_hypotheses(spec, sample_count=128, seed=5)
    assert r1.lambda_hat == r2.lambda_hat
    assert r1.sup_norms == r2.sup_norms


def _box3d_config(seed):
    """The Laplacian on (-l, l) x (0, 1)^2, its forcing a seeded sum of
    cross-sectional sine modes."""
    rng = random.Random(seed)
    modes = " + ".join(f"{rng.uniform(0.5, 1.5)!r} * sin({j} * {math.pi!r} * x2)"
                       f" * sin({k} * {math.pi!r} * x3)" for j, k in ((1, 1), (1, 3), (3, 1)))
    return ("[problem]\nm = 1\nn = 3\np = 1\nomega = 0,1;0,1\n\n[coef]\n"
            "a_1_0_0_1_0_0 = 1\na_0_1_0_0_1_0 = 1\na_0_0_1_0_0_1 = 1\n\n"
            f"[forcing]\nf = {modes}\n")


_STRIP_HEAD = "[problem]\nm = 1\nn = 2\np = 1\nomega = 0,1\n\n[coef]\n"
_SYMBOL_SPECS = {
    **{name: builtin_problem(name) for name in builtin_names()},
    "box3d": parse_problem_config(_box3d_config(3)),
    # poisson_strip plus a first-order cross-sectional term
    "skew_strip": parse_problem_config(
        _STRIP_HEAD + "a_0_1_0_0 = 1\na_0_1_0_1 = 1\na_1_0_1_0 = 1\n\n[forcing]\nf = 1\n"),
    # 1 + 3 x2 cos(t) sin(t): negative where x2 > 2/3 and t is near 3 pi / 4
    "indefinite": parse_problem_config(
        _STRIP_HEAD + "a_0_1_0_1 = 1\na_1_0_0_1 = 3 * x2\na_1_0_1_0 = 1\n\n[forcing]\nf = 1\n"),
    # three terms of -0.85e308 near t = pi / 4 overflow to -inf
    "overflowing": parse_problem_config(
        _STRIP_HEAD + "a_0_1_0_1 = -1.7e308\na_1_0_0_1 = -1.7e308\na_1_0_1_0 = -1.7e308\n\n"
        "[forcing]\nf = 1\n"),
}
# the samples of one chunk at 720 directions, the chunk size of a strip
_CHUNK_ROWS = problem._SYMBOL_CHUNK_BYTES // (8 * 720)


@pytest.mark.parametrize("chunk_bytes", [problem._SYMBOL_CHUNK_BYTES, 1],
                         ids=["default_chunks", "one_sample_chunks"])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", _SYMBOL_SPECS)
def test_lambda_hat_is_the_whole_symbol_arrays_minimum_bitwise(monkeypatch, name, seed,
                                                               chunk_bytes):
    # the chunked minimum equals that of the one (samples x directions)
    # array, bit for bit, at sample counts on and off the chunk boundaries
    monkeypatch.setattr(problem, "_SYMBOL_CHUNK_BYTES", chunk_bytes)
    spec = _SYMBOL_SPECS[name]
    counts = {2, 15, 16, 17, 256, 257, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1}
    for count in sorted(counts):
        with np.errstate(over="ignore" if name == "overflowing" else "warn"):
            report = validate_hypotheses(spec, sample_count=count, seed=seed)
            expected = principal_symbol_min(spec, count, seed)
        assert report.lambda_hat.hex() == expected.hex(), count
    if name == "indefinite":
        assert report.lambda_hat < 0.0 and not report.ellipticity_ok
    if name == "overflowing":
        assert report.lambda_hat == -math.inf


@pytest.mark.parametrize("name", ["biharmonic_strip", "box3d"])
def test_the_symbol_check_holds_one_chunk_of_samples(name):
    # 256 samples x 720-726 directions would be 1.4 MiB of symbol values and
    # as much again for each outer product (3.0 MiB traced before the
    # chunks); a chunk is 128 KiB (0.41-0.42 MiB traced)
    spec = _SYMBOL_SPECS[name]
    tracemalloc.start()
    try:
        validate_hypotheses(spec, sample_count=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2**20


# ------------------------------------------------------------ config text


POISSON_TEXT = """\
[problem]
m = 1
n = 2
p = 1
omega = 0,1

[coef]
a_1_0_1_0 = 1
a_0_1_0_1 = 1

[forcing]
f = 1
"""


def test_parse_minimal_config():
    spec = parse_problem_config(POISSON_TEXT)
    ref = builtin_problem("poisson_strip")
    assert (spec.m, spec.n, spec.p, spec.omega) == (ref.m, ref.n, ref.p, ref.omega)
    assert spec.coefficients.keys() == ref.coefficients.keys()
    assert spec.forcing.expr == ref.forcing.expr


@pytest.mark.parametrize("name", ["poisson_strip", "biharmonic_strip", "varcoef_strip"])
def test_config_round_trip(name):
    spec = builtin_problem(name)
    again = parse_problem_config(to_config_text(spec))
    assert again == spec  # name is excluded from equality
    assert again.config_hash() == spec.config_hash()


def test_load_problem_from_file(tmp_path):
    path = tmp_path / "prob.cfg"
    path.write_text(POISSON_TEXT)
    spec = load_problem(path)
    assert spec.m == 1
    assert spec.name == str(path)


@pytest.mark.parametrize(
    "mutation,needle",
    [
        ("q = 3", "q"),  # unknown key in [problem]
        ("omega = 0;1", "omega"),  # malformed omega
    ],
)
def test_config_unknown_or_bad_problem_keys(mutation, needle):
    text = POISSON_TEXT.replace("omega = 0,1", f"omega = 0,1\n{mutation}")
    if mutation.startswith("omega"):
        text = POISSON_TEXT.replace("omega = 0,1", mutation)
    with pytest.raises(ProblemConfigError) as exc:
        parse_problem_config(text)
    assert needle in str(exc.value)


def test_config_unknown_coef_key():
    text = POISSON_TEXT.replace("a_1_0_1_0 = 1", "b_1_0_1_0 = 1")
    with pytest.raises(ProblemConfigError):
        parse_problem_config(text)


def test_config_coef_key_wrong_arity():
    text = POISSON_TEXT.replace("a_1_0_1_0 = 1", "a_1_0_1 = 1")
    with pytest.raises(ProblemConfigError) as exc:
        parse_problem_config(text)
    assert "a_1_0_1" in str(exc.value)


def test_config_unknown_section():
    with pytest.raises(ProblemConfigError) as exc:
        parse_problem_config(POISSON_TEXT + "\n[extras]\nz = 1\n")
    assert "extras" in str(exc.value)


def test_config_unknown_forcing_key():
    text = POISSON_TEXT + "g = 2\n"
    with pytest.raises(ProblemConfigError):
        parse_problem_config(text)


def test_config_bad_expression_reports_key():
    text = POISSON_TEXT.replace("f = 1", "f = 1 +")
    with pytest.raises(ProblemConfigError) as exc:
        parse_problem_config(text)
    assert "forcing" in str(exc.value)


def test_config_duplicate_key_rejected():
    text = POISSON_TEXT.replace("f = 1", "f = 1\nf = 2")
    with pytest.raises(ProblemConfigError):
        parse_problem_config(text)


def test_encode_matches_config_key_convention():
    assert "a_" + mi.encode((1, 0) + (1, 0)) == "a_1_0_1_0"

