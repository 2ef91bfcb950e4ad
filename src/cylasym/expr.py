"""Arithmetic expression language for coefficients and forcing terms.

Grammar (whitespace insensitive):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right associative, binds tightest
    atom   := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

Variables are x1, x2, ... (x followed by a decimal index >= 1); the known
functions are sin, cos and exp, each of arity 1.  Unary minus binds tighter
than '*' and '/' but looser than '^', so -x1^2 means -(x1^2) and 2^-3 is
legal.  Parse errors carry the byte offset of the offending token.

An expression nests at most MAX_DEPTH = 200 levels.  No token may lie
inside more than MAX_DEPTH parentheses, calls, unary minuses and powers,
and no path from the root of the tree to a leaf may pass more than
MAX_DEPTH operators; a sum of k terms is a left-deep path of k - 1.  The
parser refuses a deeper expression at the offset where it gets too deep, so
the recursive parser, printer and evaluator stay well inside Python's
recursion limit.

Evaluation is vectorized: variables are bound to numpy arrays (or scalars)
and the tree is folded with numpy arithmetic, so a single evaluate() call
prices an expression on a whole sample batch.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}

_VAR_RE = re.compile(r"x([0-9]+)$")

MAX_DEPTH = 200

# ---------------------------------------------------------------- AST nodes


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based coordinate index


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Num | Var | Neg | BinOp | Call


class ExpressionError(ValueError):
    """Parse or evaluation failure, carrying the byte offset in the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.message = message
        self.offset = offset


# ---------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, lexeme, offset) triples, terminated by an 'end' token."""
    tokens = []
    pos = 0
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if mo is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if mo.lastgroup != "ws":
            tokens.append((mo.lastgroup, mo.group(), pos))
        pos = mo.end()
    tokens.append(("end", "", len(text)))
    return tokens


# ------------------------------------------------------------------ parser


class _Parser:
    """Recursive descent over the grammar, each rule returning its tree and
    the tree's depth.  Every nesting passes through unary, which counts the
    open levels; sums and products are joined in one loop, and power and
    calls inline, so a level costs at most three Python frames."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = -1  # levels open at the current token

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, lexeme: str):
        kind, lex, off = self.peek()
        if kind != "op" or lex != lexeme:
            raise ExpressionError(f"expected {lexeme!r}", off)
        return self.advance()

    def parse(self) -> Expr:
        node, _ = self.expr()
        kind, lex, off = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {lex!r}", off)
        return node

    @staticmethod
    def tree(node: Expr, depth: int, off: int):
        """(node, depth), refused at offset off when depth exceeds MAX_DEPTH."""
        if depth > MAX_DEPTH:
            raise ExpressionError(f"expression tree deeper than {MAX_DEPTH} operators", off)
        return node, depth

    def join(self, op: str, left, right, off: int):
        return self.tree(BinOp(op, left[0], right[0]), 1 + max(left[1], right[1]), off)

    def expr(self):
        """expr and term: the unary factors of each term, then the terms,
        joined left to right."""
        total = None
        while True:
            term = self.unary()
            while self.peek()[:2] in (("op", "*"), ("op", "/")):
                _, op, off = self.advance()
                term = self.join(op, term, self.unary(), off)
            total = term if total is None else self.join(add, total, term, add_off)
            if self.peek()[:2] not in (("op", "+"), ("op", "-")):
                return total
            _, add, add_off = self.advance()

    def unary(self):
        """unary and power; a level opened by the token before, refused
        there beyond MAX_DEPTH."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels",
                                  self.tokens[self.i - 1][2])
        kind, lex, off = self.peek()
        if kind == "op" and lex == "-":
            self.advance()
            operand, depth = self.unary()
            node = self.tree(Neg(operand), depth + 1, off)
        else:
            node = self.atom()
            if self.peek()[:2] == ("op", "^"):
                off = self.advance()[2]
                node = self.join("^", node, self.unary(), off)
        self.nesting -= 1
        return node

    def atom(self):
        kind, lex, off = self.advance()
        if kind == "num":
            value = float(lex)
            if not math.isfinite(value):
                raise ExpressionError(f"number {lex!r} overflows a double", off)
            return Num(value), 0
        if kind == "ident" and lex in FUNCTIONS:
            self.expect_op("(")
            arg, depth = self.expr()
            kind2, lex2, off2 = self.peek()
            if kind2 == "op" and lex2 == ",":
                raise ExpressionError(f"{lex} takes exactly one argument", off2)
            self.expect_op(")")
            return self.tree(Call(lex, arg), depth + 1, off)
        if kind == "ident":
            return self.variable(lex, off)
        if kind == "op" and lex == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ExpressionError("unexpected end of input", off)
        raise ExpressionError(f"unexpected token {lex!r}", off)

    def variable(self, lex: str, off: int):
        mo = _VAR_RE.match(lex)
        if mo is None:
            raise ExpressionError(f"unknown identifier {lex!r}", off)
        index = int(mo.group(1))
        if index < 1:
            raise ExpressionError("variable indices start at x1", off)
        if self.peek()[:2] == ("op", "("):
            raise ExpressionError(f"variable {lex!r} is not callable", self.peek()[2])
        return Var(index), 0


def parse_expression(text: str) -> Expr:
    return _Parser(text).parse()


# ----------------------------------------------------------------- printer

# precedence levels used by the printer; higher binds tighter
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, (Num, Var, Call)):
        return _ATOM
    if isinstance(e, Neg):
        return _NEG
    return {"+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL, "^": _POW}[e.op]


def _wrap(e: Expr, min_level: int) -> str:
    s = to_string(e)
    return s if _level(e) >= min_level else f"({s})"


def format_number(v) -> str:
    """Integer-valued numbers below 1e16 in magnitude print as integers,
    everything else as the repr of its float."""
    v = float(v)
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e: Expr) -> str:
    """Render with minimal parentheses; parse_expression(to_string(e)) == e."""
    if isinstance(e, Num):
        return format_number(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Neg):
        return "-" + _wrap(e.operand, _NEG)
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    if e.op in "+-":
        return f"{_wrap(e.left, _ADD)} {e.op} {_wrap(e.right, _ADD + 1)}"
    if e.op in "*/":
        return f"{_wrap(e.left, _MUL)} {e.op} {_wrap(e.right, _MUL + 1)}"
    # '^' is right associative: parenthesize compound bases, keep unary tails bare
    return f"{_wrap(e.left, _ATOM)}^{_wrap(e.right, _NEG)}"


# --------------------------------------------------------------- evaluation


def free_variables(e: Expr) -> set[int]:
    """1-based coordinate indices the expression reads."""
    if isinstance(e, Var):
        return {e.index}
    if isinstance(e, Neg):
        return free_variables(e.operand)
    if isinstance(e, BinOp):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Call):
        return free_variables(e.arg)
    return set()


def evaluate(e: Expr, coords):
    """Fold the tree over numpy arrays.

    coords is a sequence indexed by coordinate (coords[k] binds x{k+1}); the
    entries may be scalars or arrays of a common broadcastable shape.  The
    result is a numpy scalar/array of that shape.  Non-finite outcomes (from
    division or exponentiation) are returned as is; callers that need totality
    check finiteness themselves.
    """
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        if e.index > len(coords):
            raise ExpressionError(f"x{e.index} is not bound ({len(coords)} coordinates)", 0)
        return np.asarray(coords[e.index - 1], dtype=np.float64)
    if isinstance(e, Neg):
        return -evaluate(e.operand, coords)
    if isinstance(e, Call):
        return FUNCTIONS[e.func](evaluate(e.arg, coords))
    a = evaluate(e.left, coords)
    b = evaluate(e.right, coords)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return a / b
        return np.power(a, b)
