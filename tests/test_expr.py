"""Parser, printer, and evaluator for the expression language."""

import numpy as np
import pytest

from cylasym.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    ExpressionError,
    Neg,
    Num,
    Var,
    evaluate,
    format_number,
    free_variables,
    parse_expression,
    to_string,
)

from golden_expressions import ERROR_CASES, VALUE_CASES


@pytest.mark.parametrize("text,coords,expected", VALUE_CASES)
def test_golden_values_exact(text, coords, expected):
    tree = parse_expression(text)
    assert float(evaluate(tree, coords)) == expected


@pytest.mark.parametrize("text,coords,expected", VALUE_CASES)
def test_golden_roundtrip(text, coords, expected):
    tree = parse_expression(text)
    assert parse_expression(to_string(tree)) == tree


@pytest.mark.parametrize("text,offset", ERROR_CASES)
def test_golden_errors(text, offset):
    with pytest.raises(ExpressionError) as exc:
        parse_expression(text)
    assert exc.value.offset == offset


def test_ast_shapes():
    assert parse_expression("1 - 2 - 3") == BinOp(
        "-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0)
    )
    assert parse_expression("2^3^2") == BinOp(
        "^", Num(2.0), BinOp("^", Num(3.0), Num(2.0))
    )
    assert parse_expression("-2^2") == Neg(BinOp("^", Num(2.0), Num(2.0)))
    assert parse_expression("2 * -3") == BinOp("*", Num(2.0), Neg(Num(3.0)))
    assert parse_expression("sin(x2)") == Call("sin", Var(2))


def test_unary_minus_below_multiplication():
    # -x1 * x2 means (-x1) * x2, not -(x1 * x2); values agree so check the tree
    assert parse_expression("-x1 * x2") == BinOp("*", Neg(Var(1)), Var(2))


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(float(rng.integers(0, 10)))
        return Var(int(rng.integers(1, 4)))
    pick = rng.random()
    if pick < 0.15:
        return Neg(_random_tree(rng, depth - 1))
    if pick < 0.3:
        return Call(str(rng.choice(["sin", "cos", "exp"])), _random_tree(rng, depth - 1))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    return BinOp(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


@pytest.mark.parametrize("seed", range(8))
def test_print_parse_roundtrip_random_trees(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(40):
        tree = _random_tree(rng, 5)
        assert parse_expression(to_string(tree)) == tree


def test_vectorized_evaluation_matches_pointwise():
    tree = parse_expression("x1 * sin(x2) + x2^2 / (1 + x1)")
    rng = np.random.default_rng(7)
    a = rng.uniform(0.1, 2.0, size=50)
    b = rng.uniform(-3.0, 3.0, size=50)
    batch = evaluate(tree, (a, b))
    for i in range(50):
        assert batch[i] == float(evaluate(tree, (a[i], b[i])))


def test_free_variables():
    tree = parse_expression("x1 * sin(x3) + 2")
    assert free_variables(tree) == {1, 3}
    assert free_variables(parse_expression("4.5")) == set()


def test_unbound_variable_rejected():
    tree = parse_expression("x2")
    with pytest.raises(ExpressionError):
        evaluate(tree, (1.0,))


def test_division_by_zero_is_not_a_parse_error():
    tree = parse_expression("1 / x1")
    assert np.isinf(evaluate(tree, (0.0,)))


@pytest.mark.parametrize("text,offset", [("1e999", 0), ("1 + exp(-1e999)", 9), ("x1 * 2e308", 5)])
def test_overflowing_literal_is_a_parse_error(text, offset):
    with pytest.raises(ExpressionError, match="overflows") as exc:
        parse_expression(text)
    assert exc.value.offset == offset


def test_underflowing_literal_parses_to_zero():
    assert parse_expression("1e-999") == Num(0.0)


@pytest.mark.parametrize(
    "value,text",
    [(2.0, "2"), (-0.0, "0"), (3, "3"), (0.5, "0.5"), (1e16, "1e+16"),
     (np.float64(0.25), "0.25"), (float("inf"), "inf"), (float("nan"), "nan")],
)
def test_format_number(value, text):
    assert format_number(value) == text


def _nested(level):
    """x1 inside `level` pairs of parentheses, sin calls, unary minuses and
    powers, one kind per text."""
    return {
        "parens": "(" * level + "x1" + ")" * level,
        "calls": "sin(" * level + "x1" + ")" * level,
        "minus": "-" * level + "x1",
        "powers": "^".join(["1"] * level + ["x1"]),
    }


@pytest.mark.parametrize("kind", _nested(0))
def test_nesting_up_to_the_limit_parses_prints_and_evaluates(kind):
    tree = parse_expression(_nested(MAX_DEPTH)[kind])
    assert parse_expression(to_string(tree)) == tree
    assert free_variables(tree) == {1}
    assert np.isfinite(evaluate(tree, (np.full(3, 0.5),))).all()


@pytest.mark.parametrize("kind,offset", [("parens", MAX_DEPTH), ("calls", 4 * MAX_DEPTH + 3),
                                         ("minus", MAX_DEPTH), ("powers", 2 * MAX_DEPTH + 1)])
def test_nesting_beyond_the_limit_is_a_parse_error(kind, offset):
    # refused at the token that opens level MAX_DEPTH + 1
    with pytest.raises(ExpressionError, match="nests deeper than") as exc:
        parse_expression(_nested(MAX_DEPTH + 1)[kind])
    assert exc.value.offset == offset


def test_a_sum_up_to_the_limit_parses_and_a_longer_one_is_refused():
    # a sum of k terms is a left-deep tree k - 1 operators deep
    tree = parse_expression(" + ".join(["x1"] * (MAX_DEPTH + 1)))
    assert parse_expression(to_string(tree)) == tree
    assert evaluate(tree, (np.ones(2),)).tolist() == [MAX_DEPTH + 1.0] * 2
    with pytest.raises(ExpressionError, match="tree deeper than") as exc:
        parse_expression("+".join(["x1"] * (MAX_DEPTH + 2)))
    assert exc.value.offset == 3 * (MAX_DEPTH + 1) - 1  # the last '+'


def test_common_deep_inputs_still_parse():
    long_sum = parse_expression("+".join(f"x{k % 3 + 1}" for k in range(200)))
    assert free_variables(long_sum) == {1, 2, 3}
    assert evaluate(parse_expression("(" * 50 + "2" + ")" * 50), ()) == 2.0


@pytest.mark.parametrize("text", [
    "-" * 5000 + "1", "(" * 3000 + "1" + ")" * 3000, "+".join(["x2"] * 2999 + ["1"]),
])
def test_very_deep_inputs_are_refused_without_recursion_error(text):
    with pytest.raises(ExpressionError, match="deeper than"):
        parse_expression(text)
