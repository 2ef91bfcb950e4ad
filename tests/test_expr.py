"""Parser, printer, and evaluator for the expression language."""

import numpy as np
import pytest

from cylasym.expr import (
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
