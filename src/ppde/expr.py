"""Tiny arithmetic expression front-end: parse, evaluate, differentiate.

Grammar (standard precedence, left associative binary operators):

    expression := term   { ('+' | '-') term }
    term       := unary  { ('*' | '/') unary }
    unary      := '-' unary | power
    power      := atom   { '^' nonnegative-integer-literal }
    atom       := number | 'x1' | 'x2'
                | ('sin' | 'cos' | 'exp') '(' expression ')'
                | '(' expression ')'

The only variables are x1 and x2.  Exponents must be nonnegative integer
literals, which keeps every expression smooth wherever its denominators do
not vanish and makes symbolic differentiation closed on the grammar.
Evaluation accepts scalars or numpy arrays.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "ParseError",
    "EvalDomainError",
    "parse",
    "evaluate",
    "differentiate",
    "to_string",
]

VARIABLES = ("x1", "x2")
FUNCTIONS = ("sin", "cos", "exp")


class ParseError(ValueError):
    """Syntax or identifier error, with a character offset into the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class EvalDomainError(ArithmeticError):
    """Division by zero during evaluation; carries the offending node's offset."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes."""


@dataclass(frozen=True)
class Num(Expr):
    value: float
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Var(Expr):
    name: str
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int
    pos: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr
    pos: int = field(default=-1, compare=False, repr=False)


# ---------------------------------------------------------------------------
# lexing / parsing

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def expression(self) -> Expr:
        node = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term(), pos=pos)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.unary(), pos=pos)
            else:
                return node

    def unary(self) -> Expr:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary(), pos=pos)
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                node = Pow(node, self.exponent(), pos=pos)
            else:
                return node

    def exponent(self) -> int:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            raise ParseError("power exponent must be nonnegative", pos)
        if kind != "num":
            raise ParseError("power exponent must be an integer literal", pos)
        self.advance()
        v = float(value)
        if not v.is_integer():
            raise ParseError(f"power exponent must be an integer, got {value}", pos)
        return int(v)

    def atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(float(value), pos=pos)
        if kind == "ident":
            if value in VARIABLES:
                return Var(value, pos=pos)
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return Call(value, arg, pos=pos)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ParseError("expected a number, variable or parenthesized expression", pos)


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree; raises ParseError with offset."""
    p = _Parser(text)
    node = p.expression()
    kind, value, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    return node


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e: Expr, x1, x2):
    """Evaluate ``e`` at (x1, x2); the arguments may be scalars or arrays."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return x1 if e.name == "x1" else x2
    if isinstance(e, Neg):
        return -evaluate(e.arg, x1, x2)
    if isinstance(e, BinOp):
        a = evaluate(e.left, x1, x2)
        b = evaluate(e.right, x1, x2)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if np.any(b == 0.0):
            raise EvalDomainError("division by zero while evaluating", e.pos)
        return a / b
    if isinstance(e, Pow):
        return evaluate(e.base, x1, x2) ** e.exponent
    if isinstance(e, Call):
        a = evaluate(e.arg, x1, x2)
        if e.func == "sin":
            return np.sin(a)
        if e.func == "cos":
            return np.cos(a)
        return np.exp(a)
    raise TypeError(f"not an expression node: {e!r}")


def sample(e: Expr, x1, x2, shape=None):
    """Evaluate and broadcast to ``shape`` (handy for constant expressions)."""
    out = np.asarray(evaluate(e, x1, x2), dtype=float)
    if shape is not None:
        out = np.broadcast_to(out, shape).copy()
    return out


# ---------------------------------------------------------------------------
# differentiation with constant folding and 0/1 identities

def _num(v: float) -> Num:
    return Num(float(v))


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num) and math.isfinite(a.value + b.value):
        return _num(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num) and math.isfinite(a.value - b.value):
        return _num(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return _num(-a.value)
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num) and math.isfinite(a.value * b.value):
        return _num(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _num(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if (
        isinstance(a, Num)
        and isinstance(b, Num)
        and b.value != 0.0
        and math.isfinite(a.value / b.value)
    ):
        return _num(a.value / b.value)
    if _is_const(b, 1.0):
        return a
    return BinOp("/", a, b)


def _pow(base: Expr, k: int) -> Expr:
    if k == 0:
        return _num(1.0)
    if k == 1:
        return base
    if isinstance(base, Num) and math.isfinite(base.value**k):
        return _num(base.value**k)
    return Pow(base, k)


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative of ``e`` with respect to ``var`` (x1 or x2)."""
    if var not in VARIABLES:
        raise ValueError(f"variable must be one of {VARIABLES}, got {var!r}")
    return _diff(e, var)


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Num):
        return _num(0.0)
    if isinstance(e, Var):
        return _num(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return _neg(_diff(e.arg, var))
    if isinstance(e, BinOp):
        da = _diff(e.left, var)
        db = _diff(e.right, var)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, e.right), _mul(e.left, db))
        num = _sub(_mul(da, e.right), _mul(e.left, db))
        return _div(num, _pow(e.right, 2))
    if isinstance(e, Pow):
        inner = _diff(e.base, var)
        return _mul(_mul(_num(e.exponent), _pow(e.base, e.exponent - 1)), inner)
    if isinstance(e, Call):
        inner = _diff(e.arg, var)
        if e.func == "sin":
            return _mul(Call("cos", e.arg), inner)
        if e.func == "cos":
            return _neg(_mul(Call("sin", e.arg), inner))
        return _mul(Call("exp", e.arg), inner)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# printing

def to_string(e: Expr) -> str:
    """Fully parenthesized rendering; re-parses to an equivalent expression."""
    if isinstance(e, Num):
        # A literal beyond the float range parses to inf, whose repr is no literal.
        return "1e999" if e.value == math.inf else repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{to_string(e.arg)})"
    if isinstance(e, BinOp):
        return f"({to_string(e.left)} {e.op} {to_string(e.right)})"
    if isinstance(e, Pow):
        return f"({to_string(e.base)}^{e.exponent})"
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")
