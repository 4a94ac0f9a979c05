"""Tiny arithmetic expression front-end: parse, evaluate, differentiate.

Grammar (standard precedence, left associative binary operators):

    expression := term   { ('+' | '-') term }
    term       := unary  { ('*' | '/') unary }
    unary      := '-' unary | power
    power      := atom   { '^' nonnegative-integer-literal }
    atom       := number | 'x1' | 'x2'
                | function '(' expression ')'
                | '(' expression ')'

The only variables are x1 and x2.  The functions are the rows of
``FUNCTIONS``, and the binary operators the rows of ``OPERATORS``, in the
precedence levels of ``PRECEDENCE`` (expression's, then term's); the
parser reads one left-associative chain per level.  Exponents must be
nonnegative integer literals, which keeps every expression smooth wherever
its denominators do not vanish and makes symbolic differentiation closed on
the grammar.  Evaluation accepts scalars or numpy arrays; ``sample``
evaluates on the nodes of a grid.

Differentiation folds as it builds.  Every binary node of a derivative
comes from one constructor, ``_op``, which the rules of ``OPERATORS`` and
``FUNCTIONS`` and the power rule call: two literals become one where the
result is finite and no divisor is zero, and otherwise the 0 and 1
identities apply (a literal counts as 0 when it equals 0.0, of either
sign).  So only folding makes a literal with its sign bit set, and
``to_string`` prints such a literal as the negation of its magnitude,
``(-2.0)``, ``(-0.0)`` or ``(-1e999)``: the text re-parses to the same value
and sign of zero under any operator.

A derivative refers to its operands and their derivatives again, so its
tree shares subtrees, and the derivatives of one tree share more.  Each
call of ``differentiate`` differentiates each distinct node once, however
many paths lead to it, and ``derivatives`` does so once per variable for
all nine trees D1^i D2^j u it returns.  ``evaluate`` and ``sample`` first
compile their trees into one program: one step per structurally distinct
node, whichever tree it comes from (a literal is told by its bits, so 0.0
and -0.0 stay apart), in evaluation order, with the step after which each
value is read no more.  The program runs as one flat loop that computes
each step once and drops its value after its last use; neither it nor
any memo outlives the call.

``_parts`` is the one description of a node: its label and its operands.
Compiling reads it, ``parse``'s depth check walks its operands, and
``to_string`` prints an inner node by filling its type's row of
``_FORMATS`` with the label and the printed operands; a literal keeps its
sign rule and a variable prints its name.  Differentiation and evaluation
keep their rules per type, in ``OPERATORS`` and ``FUNCTIONS``.
Differentiation and printing still recurse once per level of the tree
(printing a leaf calls nothing more), so ``parse`` rejects a tree deeper
than ``MAX_DEPTH`` levels, or with more than ``MAX_DEPTH`` parentheses
open at once.  A derivative turns each level into at most three (a
quotient's into '/', '-' and '*'), and four turn it into at most 15 (3,
6, 10, 15), so the fourth derivatives that
``representation.extract_traces`` samples stay within 15 * MAX_DEPTH =
750 levels, below Python's default recursion limit of 1000.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFn

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
    "sample",
    "differentiate",
    "derivatives",
    "to_string",
]


@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes.  ``pos`` is the node's offset in the
    text it was parsed from (-1 if built); it takes no part in comparison."""

    pos: int = field(default=-1, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


VARIABLES = ("x1", "x2")
# The grammar's functions: name -> (numpy function, derivative rule).  The
# rule maps the argument a and its derivative da to the derivative of the call.
FUNCTIONS = {
    "sin": (np.sin, lambda a, da: _op("*", Call("cos", a), da)),
    "cos": (np.cos, lambda a, da: _neg(_op("*", Call("sin", a), da))),
    "exp": (np.exp, lambda a, da: _op("*", Call("exp", a), da)),
}
# The grammar's binary operators: symbol -> (function, derivative rule).  The
# rule maps the operands a, b and their derivatives da, db to the derivative
# of the operation.  PRECEDENCE lists the symbols by level, loosest first.
OPERATORS = {
    "+": (operator.add, lambda a, b, da, db: _op("+", da, db)),
    "-": (operator.sub, lambda a, b, da, db: _op("-", da, db)),
    "*": (operator.mul, lambda a, b, da, db: _op("+", _op("*", da, b), _op("*", a, db))),
    "/": (operator.truediv, lambda a, b, da, db:
          _op("/", _op("-", _op("*", da, b), _op("*", a, db)), _pow(b, 2))),
}
PRECEDENCE = ("+-", "*/")
# How an inner node prints: its label ({0}) and its printed operands ({1},
# {2}) in the format of its type.
_FORMATS = {Neg: "(-{1})", BinOp: "({1} {0} {2})", Pow: "({1}^{0})", Call: "{0}({1})"}
MAX_DEPTH = 50


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


# ---------------------------------------------------------------------------
# lexing / parsing

# The token grammar, one alternative per kind, tried in this order at each
# offset.  \d is any Unicode decimal digit, which float() reads, and \s any
# character that str.isspace accepts.
_TOKEN = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    rf"|(?P<op>[{re.escape(''.join(OPERATORS))}^()])"
    r"|(?P<space>\s+)"
    r"|(?P<other>.)", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) of each token of ``text``, whitespace
    skipped, then ("end", "", len(text)); a character that starts no token
    is a ParseError at its offset."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "other":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup != "space":
            tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.open = 0

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

    def chain(self, level: int = 0) -> Expr:
        """A left-associative chain of the operators of PRECEDENCE[level]
        between operands that bind tighter; past the last level, a unary."""
        if level == len(PRECEDENCE):
            return self.unary()
        node = self.chain(level + 1)
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in PRECEDENCE[level]:
                self.advance()
                node = BinOp(value, node, self.chain(level + 1), pos=pos)
            else:
                return node

    def unary(self) -> Expr:
        signs = []
        while self.peek()[:2] == ("op", "-"):
            signs.append(self.advance()[2])
        node = self.power()
        for pos in reversed(signs):
            node = Neg(node, pos=pos)
        return node

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
                return Call(value, self.group(pos), pos=pos)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            return self.group(pos)
        raise ParseError("expected a number, variable or parenthesized expression", pos)

    def group(self, pos: int) -> Expr:
        """The expression closed by ')' after the '(' just read, the parser's one recursion."""
        self.open += 1
        if self.open > MAX_DEPTH:
            raise ParseError(f"more than {MAX_DEPTH} parentheses open", pos)
        node = self.chain()
        self.expect_op(")")
        self.open -= 1
        return node


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree; raises ParseError with offset."""
    p = _Parser(text)
    node = p.chain()
    kind, value, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {value!r}", pos)
    # A tree has fewer nodes than the tokens it is parsed from, so only a
    # long input can be too deep.
    stack = [(node, 1)] if len(p.tokens) > MAX_DEPTH else []
    while stack:
        e, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels", e.pos)
        stack += [(child, depth + 1) for child in _parts(e)[1]]
    return node


# ---------------------------------------------------------------------------
# evaluation: the trees of one call compiled into one program

def evaluate(e: Expr, x1, x2):
    """Evaluate ``e`` at (x1, x2); the arguments may be scalars or arrays."""
    out = []
    _run(_compile([e]), x1, x2, out.append)
    return out[0]


def _parts(e: Expr) -> tuple:
    """(label, operands) of ``e``: what tells it from other nodes of its
    type with the same operands (a literal by its bits, so 0.0 and -0.0
    differ), and its operand nodes in evaluation order.  This is the one
    description of a node that compiling, printing and ``parse``'s depth
    check read; anything else is a TypeError."""
    if isinstance(e, BinOp):
        return e.op, (e.left, e.right)
    if isinstance(e, Call):
        return e.func, (e.arg,)
    if isinstance(e, Pow):
        return e.exponent, (e.base,)
    if isinstance(e, Neg):
        return None, (e.arg,)
    if isinstance(e, Var):
        return e.name, ()
    if isinstance(e, Num):
        return struct.pack("<d", e.value), ()
    raise TypeError(f"not an expression node: {e!r}")


def _compile(trees) -> list:
    """The program of ``trees``: one step per structurally distinct node, in
    evaluation order (the trees in turn, each node after its operands, left
    before right).  A step is (node, operand steps, dead, outputs, spent):
    once it has run, ``dead`` lists the steps whose values are read no
    more, ``outputs`` the steps whose values are those of the next trees
    in order, and ``spent`` the outputs read no more once output.

    A tree is output once its value and every earlier tree's are, so the
    trees fail in their order; a value is read last by its last reader or
    at its last output.
    """
    step_of = {}  # id(node) -> step, for each node met; the trees keep the nodes alive
    interned = {}  # (type, label, operand steps) -> step
    steps, last, made = [], [], -1
    for tree in trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, tuple):  # a node whose operands have their steps
                node, label, operands = node
                args = tuple([step_of[id(child)] for child in operands])
                k = step_of[id(node)] = interned.setdefault((type(node), label, args), len(steps))
                if k == len(steps):
                    steps.append((node, args, [], [], []))
                    last.append(k)
                    for i in args:
                        last[i] = k
            elif id(node) not in step_of:
                label, operands = _parts(node)
                stack.append((node, label, operands))
                stack += reversed(operands)
        root = step_of[id(tree)]
        made = max(made, root)
        steps[made][3].append(root)
        last[root] = max(last[root], made)
    for i, k in enumerate(last):
        _, _, dead, outputs, spent = steps[k]
        (spent if i in outputs else dead).append(i)
    return steps


def _run(program, x1, x2, emit) -> None:
    """Run ``program`` at (x1, x2), passing each tree's value to ``emit`` in
    tree order.  A value is dropped after its last use, and before the
    outputs of that step if it is none of them.  An overflow gives inf or
    nan without a numpy warning: the caller that needs finite values checks
    them, and names the input."""
    values = [None] * len(program)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (node, args, dead, outputs, spent) in enumerate(program):
            if isinstance(node, Num):
                values[k] = node.value
            elif isinstance(node, Var):
                values[k] = x1 if node.name == "x1" else x2
            else:
                values[k] = _apply(node, *[values[i] for i in args])
            for i in dead:
                values[i] = None
            for i in outputs:
                emit(values[i])
            for i in spent:
                values[i] = None


def _apply(node: Expr, a, b=None):
    """The value of the inner ``node`` whose operands have the values a (and b)."""
    if isinstance(node, BinOp):
        if node.op == "/" and np.any(b == 0.0):
            raise EvalDomainError("division by zero while evaluating", node.pos)
        return OPERATORS[node.op][0](a, b)
    if isinstance(node, Neg):
        return -a
    if isinstance(node, Pow):
        return _power(a, node.exponent)
    return FUNCTIONS[node.func][0](a)


def _power(a, k: int):
    """a ** k, where a Python float overflows to inf as numpy's floats do,
    not to OverflowError."""
    return (np.float64(a) if isinstance(a, float) else a) ** k


def sample(e, grid):
    """The GridFn of ``e`` at the nodes of ``grid``, a Grid1D or a Grid2D,
    with x1 and x2 the grid's ``coordinates``: those of the two axes, or
    on a Grid1D both the one node coordinate.  This is the one place where
    an expression meets grid nodes.  Given a sequence of trees, such as a
    list, which keeps them alive through the call, it returns their GridFns
    in order, computed by one program.

    A zero divisor raises EvalDomainError.  An overflow gives inf or nan
    (``_run``), which the grid function rejects with a ValueError that the
    caller reports under the input's name.  The error carries ``index``,
    the position of its tree: the first that fails, as if the trees were
    sampled in turn.
    """
    fns = []

    def emit(values):
        fns.append(GridFn(grid, np.broadcast_to(values, grid.shape)))

    try:
        _run(_compile([e] if isinstance(e, Expr) else e), *grid.coordinates, emit)
    except (EvalDomainError, ValueError) as err:
        err.index = len(fns)
        raise
    return fns[0] if isinstance(e, Expr) else fns


# ---------------------------------------------------------------------------
# differentiation with constant folding and 0/1 identities

def _num(v: float) -> Num:
    return Num(float(v))


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _op(op: str, a: Expr, b: Expr) -> Expr:
    """The folded tree of ``a op b``: the literal of two literals where it
    is finite and no divisor is zero; else ``a`` or ``b`` alone where the
    other leaves it as it is (0 + b, a + 0, a - 0, 1 * b, a * 1, a / 1),
    -b for 0 - b and 0 for 0 * b and a * 0, a literal counting as 0 when
    it equals 0.0, of either sign; else the BinOp."""
    if isinstance(a, Num) and isinstance(b, Num) and (op != "/" or b.value != 0.0):
        value = OPERATORS[op][0](a.value, b.value)
        if math.isfinite(value):
            return _num(value)
    if op == "*" and (_is_const(a, 0.0) or _is_const(b, 0.0)):
        return _num(0.0)
    unit = 0.0 if op in "+-" else 1.0  # the right operand that leaves a as it is
    if _is_const(b, unit):
        return a
    if _is_const(a, unit) and op != "/":
        return _neg(b) if op == "-" else b
    return BinOp(op, a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return _num(-a.value)
    return Neg(a)


def _pow(base: Expr, k: int) -> Expr:
    if k == 0:
        return _num(1.0)
    if k == 1:
        return base
    if isinstance(base, Num):
        # The power rule of a literal 0^0 asks for 0.0 ** -1, which is inf.
        with np.errstate(over="ignore", divide="ignore"):
            value = _power(base.value, k)
        if math.isfinite(value):
            return _num(value)
    return Pow(base, k)


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative of ``e`` with respect to ``var`` (x1 or x2)."""
    if var not in VARIABLES:
        raise ValueError(f"variable must be one of {VARIABLES}, got {var!r}")
    return _diff(e, var, {})


def derivatives(u: Expr) -> list:
    """The trees D1^i D2^j u as d[i][j], i, j in {0, 1, 2}: those of
    ``differentiate`` taken i times in x1 and then j times in x2.  Each
    variable keeps one memo along the whole chain, so each node is
    differentiated at most once in each variable."""
    memo1, memo2 = {}, {}
    column = [u]
    for _ in range(2):
        column.append(_diff(column[-1], "x1", memo1))
    d = []
    for e in column:
        row = [e]
        for _ in range(2):
            row.append(_diff(row[-1], "x2", memo2))
        d.append(row)
    return d


def _diff(e: Expr, var: str, memo: dict) -> Expr:
    """The derivative of ``e``; ``memo`` maps id(node) to the derivative of
    each node differentiated with it, whose caller keeps the node alive."""
    if isinstance(e, Num):
        return _num(0.0)
    if isinstance(e, Var):
        return _num(1.0 if e.name == var else 0.0)
    key = id(e)
    if key in memo:
        return memo[key]
    if isinstance(e, Neg):
        d = _neg(_diff(e.arg, var, memo))
    elif isinstance(e, BinOp):
        d = OPERATORS[e.op][1](e.left, e.right, _diff(e.left, var, memo), _diff(e.right, var, memo))
    elif isinstance(e, Pow):
        inner = _diff(e.base, var, memo)
        d = _op("*", _op("*", _num(e.exponent), _pow(e.base, e.exponent - 1)), inner)
    elif isinstance(e, Call):
        d = FUNCTIONS[e.func][1](e.arg, _diff(e.arg, var, memo))
    else:
        raise TypeError(f"not an expression node: {e!r}")
    memo[key] = d
    return d


# ---------------------------------------------------------------------------
# printing

def to_string(e: Expr) -> str:
    """Fully parenthesized rendering; re-parses to an equivalent expression."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Num):
        # A literal with its sign bit set prints as the negation of its
        # magnitude, which keeps its value and the sign of its zero under
        # any operator; a literal beyond the float range parses to inf,
        # whose repr is no literal.
        if math.copysign(1.0, e.value) < 0.0:
            return f"(-{to_string(Num(-e.value))})"
        return "1e999" if math.isinf(e.value) else repr(e.value)
    # The leaves are printed without a call of _parts, and map calls
    # to_string with no frame of its own, so printing the deepest tree takes
    # one frame per level, as differentiating it does.
    label, operands = _parts(e)
    return _FORMATS[type(e)].format(label, *map(to_string, operands))
