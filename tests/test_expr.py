import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

import ppde.expr as expr
from _families import NESTED_QUOTIENTS, central_difference, random_expr
from _memory import traced_peak
from ppde.expr import (
    MAX_DEPTH,
    OPERATORS,
    VARIABLES,
    BinOp,
    Call,
    EvalDomainError,
    Expr,
    Neg,
    Num,
    ParseError,
    Pow,
    Var,
    derivatives,
    differentiate,
    evaluate,
    parse,
    sample,
    to_string,
)
from ppde.grid import Grid2D, GridFn, make_grid
from ppde.representation import extract_traces


def d(text, var):
    return differentiate(parse(text), var)


def random_text(rng):
    """A random_expr draw or, one time in four, the quotient of two, whose
    denominator 2 + b^2 does not vanish; random_expr itself draws no '/'."""
    if rng.random() < 0.25:
        return f"({random_expr(rng)}) / (2 + ({random_expr(rng)})^2)"
    return random_expr(rng)


class TestParse:
    def test_product_of_powers(self):
        e = parse("x1^2*x2^2")
        assert e == BinOp("*", Pow(Var("x1"), 2), Pow(Var("x2"), 2))

    def test_polynomial(self):
        e = parse("1 + 2*x2 + x2^3")
        assert evaluate(e, 0.0, 2.0) == 1 + 4 + 8

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("x1+*")
        assert exc.value.position == 3

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("x3 + 1")

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse("x1 @ x2")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("x1 x2")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(x1 + 2")

    @pytest.mark.parametrize("text", ["x1^-2", "x1^2.5", "x1^x2", "x1^(2)"])
    def test_bad_exponent(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_precedence(self):
        assert evaluate(parse("2 + 3 * 4"), 0, 0) == 14
        assert evaluate(parse("2 * 3 ^ 2"), 0, 0) == 18
        assert evaluate(parse("-2 ^ 2"), 0, 0) == -4  # unary binds looser than ^
        assert evaluate(parse("(2 + 3) * 4"), 0, 0) == 20

    def test_left_associativity(self):
        assert evaluate(parse("8 - 4 - 2"), 0, 0) == 2
        assert evaluate(parse("8 / 4 / 2"), 0, 0) == 1

    def test_scientific_literals(self):
        assert evaluate(parse("1e-3 + 2.5E2"), 0, 0) == pytest.approx(250.001)

    def test_functions(self):
        e = parse("sin(x1)*cos(x2) + exp(x1*x2)")
        assert evaluate(e, 0.0, 0.5) == pytest.approx(1.0)

    # The token grammar: a number is read whole before an identifier, so an
    # exponent ends where its digits do, and a point needs no digit on one side.
    @pytest.mark.parametrize("text, message", [
        ("1e5x1", "unexpected trailing input 'x1' (offset 3)"),
        ("1.e", "unexpected trailing input 'e' (offset 2)"),
        ("x1 $ 2", "unexpected character '$' (offset 3)"),
        ("x1\x00", "unexpected character '\\x00' (offset 2)"),
    ])
    def test_token_error_message_and_offset(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    def test_point_without_leading_digit(self):
        assert parse(".5") == Num(0.5)

    def test_unicode_whitespace_and_digits(self):
        # Whitespace is any character str.isspace accepts, here a no-break
        # space and an em space; a digit is any Unicode decimal digit.
        assert parse("x1\u00a0+\u2003x2") == BinOp("+", Var("x1"), Var("x2"))
        assert to_string(parse("\u0661\u0662 + x1")) == "(12.0 + x1)"

    def test_a_node_keeps_its_offset_outside_comparison_hash_and_repr(self):
        e = parse("x1 + sin(2)")
        assert [e.pos, e.left.pos, e.right.pos, e.right.arg.pos] == [3, 0, 5, 9]
        built = BinOp("+", Var("x1"), Call("sin", Num(2.0)))
        assert built.pos == -1
        assert (e, hash(e), repr(e)) == (built, hash(built), repr(built))
        assert repr(Num(2.0, pos=4)) == "Num(value=2.0)"
        with pytest.raises(TypeError):
            Num(2.0, 4)  # the offset is keyword-only


@pytest.mark.parametrize("call", [to_string, lambda e: evaluate(e, 0.0, 0.0),
                                  lambda e: differentiate(e, "x1")],
                         ids=["to_string", "evaluate", "differentiate"])
@pytest.mark.parametrize("e", [Expr(), 2.0, BinOp("+", Var("x1"), "x2")],
                         ids=["base_node", "float", "operand"])
def test_a_non_node_is_a_type_error(call, e):
    with pytest.raises(TypeError, match=r"^not an expression node: "):
        call(e)


class TestOperators:
    @pytest.mark.parametrize("op", OPERATORS)
    def test_each_row_parses_evaluates_and_differentiates(self, op):
        e = parse(f"x1 {op} (2 + x2)")
        assert e == BinOp(op, Var("x1"), BinOp("+", Num(2.0), Var("x2")))
        x1, x2 = np.linspace(-1.0, 1.0, 9)[:, None], np.linspace(0.0, 1.0, 7)[None, :]
        assert evaluate(e, x1, x2).tobytes() == OPERATORS[op][0](x1, 2.0 + x2).tobytes()
        for var in VARIABLES:
            np.testing.assert_allclose(evaluate(differentiate(e, var), x1, x2) + np.zeros((9, 7)),
                                       central_difference(e, var, x1, x2), rtol=1e-8, atol=1e-8)


class TestEvaluate:
    def test_product(self):
        assert evaluate(parse("x1^2*x2^2"), 2.0, 3.0) == 36.0

    def test_sin_zero(self):
        assert evaluate(parse("sin(x1)*sin(x2)"), 0.0, 1.0) == 0.0

    def test_division_by_zero(self):
        e = parse("1/(x1-1)")
        with pytest.raises(EvalDomainError) as exc:
            evaluate(e, 1.0, 0.0)
        assert exc.value.position == 1  # the '/' node

    def test_division_by_zero_on_arrays(self):
        e = parse("1/(x1-1)")
        with pytest.raises(EvalDomainError):
            evaluate(e, np.linspace(0, 1, 5), 0.0)

    def test_vectorized_matches_scalar(self):
        e = parse("sin(x1)*x2^2 - x1/(x2+2)")
        xs = np.linspace(0, 1, 7)
        ys = np.linspace(0, 2, 7)
        vec = evaluate(e, xs, ys)
        for x, y, v in zip(xs, ys, vec):
            assert evaluate(e, float(x), float(y)) == pytest.approx(v, rel=1e-15)

    @pytest.mark.parametrize("text, value", [("10^400", math.inf), ("exp(1000)", math.inf),
                                             ("exp(1000) - exp(1000)", math.nan)])
    def test_overflow_is_inf_or_nan_without_a_warning(self, text, value):
        # as in sample; pytest turns a numpy overflow warning into an error (pyproject)
        np.testing.assert_equal(evaluate(parse(text), 0.0, 0.0), value)


class TestSample:
    def test_grid1d_binds_both_variables_to_the_node(self):
        g = make_grid(2.0, 4)
        f = sample(parse("x1 + x2"), g)
        assert isinstance(f, GridFn) and f.grid == g
        np.testing.assert_array_equal(f.values, 2 * g.nodes)

    @pytest.mark.parametrize("text", ["3", "x1 - 2*x2", "sin(x1)*exp(x2)"])
    def test_grid2d_fills_the_whole_grid(self, text):
        g = Grid2D(make_grid(1.0, 3), make_grid(0.5, 5))
        f = sample(parse(text), g)
        assert isinstance(f, GridFn) and f.grid == g
        x1, x2 = np.meshgrid(g.g1.nodes, g.g2.nodes, indexing="ij")
        np.testing.assert_array_equal(f.values, evaluate(parse(text), x1, x2) + np.zeros(g.shape))

    @pytest.mark.parametrize("text", ["exp(1000*x1)", "1e200*1e200", "10^400", "(x1 - 2)^2000"])
    def test_overflow_is_a_value_error_without_a_warning(self, text):
        # pytest turns a numpy overflow warning into an error (pyproject)
        with pytest.raises(ValueError, match="^grid function values must be finite$"):
            sample(parse(text), make_grid(1.0, 4))

    def test_zero_divisor(self):
        with pytest.raises(EvalDomainError):
            sample(parse("1/x1"), make_grid(1.0, 4))


def plain(e, x1, x2):
    """The value of ``e`` by plain recursion, once per path to each node,
    with numpy's functions and literals as numpy scalars."""
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Var):
        return {"x1": x1, "x2": x2}[e.name]
    if isinstance(e, Neg):
        return -plain(e.arg, x1, x2)
    if isinstance(e, Pow):
        return plain(e.base, x1, x2) ** e.exponent
    if isinstance(e, Call):
        return {"sin": np.sin, "cos": np.cos, "exp": np.exp}[e.func](plain(e.arg, x1, x2))
    a, b = plain(e.left, x1, x2), plain(e.right, x1, x2)
    return {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[e.op](a, b)


class TestProgram:
    """``sample`` and ``evaluate`` run their trees as one program, one step
    per structurally distinct node."""

    def test_the_benchmark_u_costs_18_inner_steps_11_on_the_whole_grid(self, monkeypatch):
        # extract_traces samples the nine derivatives of the benchmark u.
        # Tree by tree they are 43 inner nodes, 17 of them on the whole grid;
        # a count, so no timing can hide a return to that.
        shapes = []

        def counted(node, *operands):
            value = apply(node, *operands)
            shapes.append(np.shape(value))
            return value

        apply = expr._apply
        monkeypatch.setattr(expr, "_apply", counted)
        g = Grid2D(make_grid(1.0, 8), make_grid(1.0, 6))
        extract_traces(parse("sin(x1)*exp(x2) + x1^2*x2"), g)
        assert (len(shapes), shapes.count(g.shape)) == (18, 11)

    def test_output_values_are_dropped_after_their_grids_exist(self):
        # The nine 129 x 129 grids are 1.20 MB, and while the last is made
        # two full-grid values of the program are alive beside them: about
        # 1.49 MB.  Keeping each output's value after its grid exists reads
        # 2.42 MB; the bound leaves less than one more grid (133 KB).
        g = Grid2D(make_grid(1.0, 128), make_grid(1.0, 128))
        assert traced_peak(extract_traces, parse("sin(x1)*exp(x2) + x1^2*x2"), g) <= 1.55e6

    def test_sample_is_a_plain_recursive_evaluation_bit_for_bit(self):
        rng = np.random.default_rng(31)
        g = Grid2D(make_grid(1.0, 6), make_grid(0.5, 4))
        trees = []
        for _ in range(40):
            e = parse(random_text(rng))
            for var in VARIABLES:
                d1 = differentiate(e, var)
                trees += [e, d1, differentiate(d1, "x1"), differentiate(d1, "x2")]
        for e, fn in zip(trees, sample(trees, g), strict=True):
            expected = np.broadcast_to(plain(e, *g.coordinates), g.shape)
            assert fn.values.tobytes() == expected.tobytes(), to_string(e)

    def test_a_literal_is_told_by_its_bits(self):
        assert Num(0.0) == Num(-0.0)  # the node dataclasses compare values
        g = make_grid(1.0, 4)
        plus, minus = sample([BinOp("*", Var("x1"), Num(0.0)),
                              BinOp("*", Var("x1"), Num(-0.0))], g)
        assert not np.any(np.signbit(plus.values)) and np.all(np.signbit(minus.values))

    def test_trees_fail_in_their_order(self):
        # exp(1000*x1) overflows at x1 = 1, and is the second tree's value
        # before the first tree divides by x1 = 0: still the first tree's
        # zero divisor is the error, as if the two were sampled in turn.
        g = make_grid(1.0, 4)
        with pytest.raises(EvalDomainError) as caught:
            sample([parse("exp(1000*x1) + 1/x1"), parse("exp(1000*x1)")], g)
        assert (caught.value.position, caught.value.index) == (16, 0)  # the "/"
        with pytest.raises(ValueError, match="^grid function values must be finite$") as caught:
            sample([parse("exp(-exp(1000*x1))"), parse("exp(1000*x1)")], g)
        assert caught.value.index == 1

    def test_derivatives_are_those_of_differentiate(self):
        u = parse("sin(x1*x2)/(2 + x1) + x1^3*exp(x2)")
        d = derivatives(u)
        for i in range(3):
            for j in range(3):
                e = u
                for var in ["x1"] * i + ["x2"] * j:
                    e = differentiate(e, var)
                assert d[i][j] == e, (i, j)


class TestDifferentiate:
    def test_power_of_a_constant_beyond_the_float_range_is_kept(self):
        assert to_string(d("10^400*x1", "x1")) == "(10.0^400)"

    def test_power_of_a_literal_zero_to_the_zeroth_is_constant_without_a_warning(self):
        # pytest turns a numpy divide-by-zero warning into an error (pyproject)
        assert d("x1 + 0^0", "x1") == Num(1.0)

    @pytest.mark.parametrize("text, times, folded", [
        # two literals fold where the result is finite and no divisor is zero
        ("(2*x1)*(3*x1)", 2, "12.0"),  # 2 * 3 + 2 * 3
        ("1e999*x1*0", 1, "0.0"),  # inf * 0 is nan, so a * 0 makes the 0
        ("1e200*x1*1e200", 1, "(1e+200 * 1e+200)"),  # inf is no literal
        ("x1/0", 1, "(0.0 / 0.0)"),  # a zero divisor is left to evaluation
        # one identity each: 0 + b, a + 0, a - 0, 0 - b, 0 * b and a * 0,
        # 1 * b, a * 1, a / 1, and no identity for 1 / b
        ("x2 + x1^2", 1, "(2.0 * x1)"),
        ("x1^2 + x2", 1, "(2.0 * x1)"),
        ("x1^2 - x2", 1, "(2.0 * x1)"),
        ("x2 - x1^2", 1, "(-(2.0 * x1))"),
        ("x2*x1^2", 1, "(x2 * (2.0 * x1))"),
        ("x1*sin(x2)", 1, "sin(x2)"),
        ("sin(x2)*x1", 1, "sin(x2)"),
        ("x1^2/1", 1, "(2.0 * x1)"),
        ("1/(1-x1)", 1, "(1.0 / ((1.0 - x1)^2))"),
    ])
    def test_derivatives_fold_literals_and_drop_0_and_1_operands(self, text, times, folded):
        e = parse(text)
        for _ in range(times):
            e = differentiate(e, "x1")
        assert to_string(e) == folded

    def test_power_rule(self):
        e = d("x1^2*x2", "x1")
        assert evaluate(e, 1.0, 1.0) == 2.0
        assert evaluate(e, 2.0, 3.0) == 12.0

    def test_constant_in_other_variable(self):
        assert evaluate(d("x1", "x2"), 5.0, 7.0) == 0.0

    def test_fourth_mixed_derivative_constant(self):
        e = parse("x1^2*x2^2")
        for var in ("x1", "x1"):
            e = differentiate(e, var)
        for var in ("x2", "x2"):
            e = differentiate(e, var)
        for x1, x2 in [(0.0, 0.0), (0.3, 0.7), (1.0, 1.0)]:
            assert evaluate(e, x1, x2) == 4.0

    def test_quotient_by_one_is_the_numerator(self):
        # the quotient rule's denominator b^2 folds to 1, which _op drops
        assert differentiate(parse("x1*x1/1"), "x1") == differentiate(parse("x1*x1"), "x1")

    def test_quotient_rule(self):
        e = d("x1/(x2+1)", "x2")
        assert evaluate(e, 2.0, 1.0) == pytest.approx(-0.5)

    def test_chain_rule(self):
        e = d("exp(x1^2)", "x1")
        assert evaluate(e, 0.5, 0.0) == pytest.approx(np.exp(0.25))

    def test_bad_variable(self):
        with pytest.raises(ValueError):
            differentiate(parse("x1"), "x3")

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(11)
        exprs = [
            "sin(x1*x2) + x1^3*x2^2",
            "exp(x1)*cos(x2) - x2/(x1+2)",
            "(x1 + x2)^4",
        ]
        for text in exprs:
            e = parse(text)
            ab = differentiate(differentiate(e, "x1"), "x2")
            ba = differentiate(differentiate(e, "x2"), "x1")
            for _ in range(10):
                x1, x2 = rng.uniform(0, 1, size=2)
                assert abs(evaluate(ab, x1, x2) - evaluate(ba, x1, x2)) < 1e-12


# Expressions of exactly MAX_DEPTH levels (or open parentheses) made by
# repeating one step k times; k + 1 steps make one level too many.
DEEPEST = {
    "signs": lambda k: "-" * k + "x1",
    "sum": lambda k: "+".join(["x1*x2"] * k),
    "powers": lambda k: "x1" + "^1" * k,
    "quotients": lambda k: "x1*x2" + "/2" * k,
    "parentheses": lambda k: "(" * k + "x1*x2" + ")" * k,
    "parentheses after a group": lambda k: "(x1)+" + "(" * k + "x1*x2" + ")" * k,
    "calls": lambda k: "exp(" * k + "x1" + ")" * k,
}
STEPS = {"signs": MAX_DEPTH - 1, "sum": MAX_DEPTH - 1, "powers": MAX_DEPTH - 1,
         "quotients": MAX_DEPTH - 2, "parentheses": MAX_DEPTH,
         "parentheses after a group": MAX_DEPTH, "calls": MAX_DEPTH - 1}


class TestDepthBound:
    @pytest.mark.parametrize("shape", DEEPEST)
    def test_one_level_more_than_the_deepest_is_rejected_at_an_offset(self, shape):
        text = DEEPEST[shape](STEPS[shape])
        e = parse(text)
        assert parse(to_string(e)) == e  # so convert writes what it reads back
        with pytest.raises(ParseError, match=f"than {MAX_DEPTH} (levels|parentheses open)"):
            parse(DEEPEST[shape](STEPS[shape] + 1))

    # An exp tower of MAX_DEPTH levels overflows.
    @pytest.mark.parametrize("shape", [s for s in DEEPEST if s != "calls"])
    def test_fourth_derivatives_of_the_deepest_trees_sample(self, shape):
        # extract_traces differentiates u four times and samples every
        # derivative; the deepest accepted trees must not recurse out.
        g = Grid2D(make_grid(1.0, 3), make_grid(0.7, 2))
        traces, w, field = extract_traces(parse(DEEPEST[shape](STEPS[shape])), g)
        assert w.values.shape == g.shape

    def test_a_tree_as_deep_as_a_fourth_derivative_may_be_prints(self):
        # Printing takes one frame per level, so the 15 * MAX_DEPTH levels
        # of the module docstring's bound print within the recursion limit.
        k = 15 * MAX_DEPTH
        e = Var("x1")
        for _ in range(k):
            e = Neg(e)
        assert to_string(e) == "(-" * k + "x1" + ")" * k


class TestSharedSubtrees:
    """A derivative shares subtrees, which differentiate visits once per
    call and a program evaluates once; a reparsed tree shares none."""

    @staticmethod
    def trees():
        rng = np.random.default_rng(23)
        for _ in range(100):
            e = parse(random_text(rng))
            d1 = differentiate(e, rng.choice(["x1", "x2"]))
            yield from (e, d1, differentiate(d1, rng.choice(["x1", "x2"])))

    def test_evaluation_is_that_of_the_unshared_tree_bit_for_bit(self):
        x1, x2 = np.linspace(0.0, 1.0, 5)[:, None], np.linspace(-1.0, 0.5, 4)[None, :]
        for e in self.trees():
            shared, unshared = evaluate(e, x1, x2), evaluate(parse(to_string(e)), x1, x2)
            assert np.asarray(shared).tobytes() == np.asarray(unshared).tobytes(), e

    def test_derivative_is_that_of_the_unshared_tree(self):
        # Not of parse(to_string(e)): a folded literal -1.0 prints as "-1.0",
        # which reparses as a negation, and a negation differentiates to one.
        def unshared(e):
            return dataclasses.replace(e, **{name: unshared(child) for name, child in vars(e).items()
                                             if isinstance(child, Expr)})

        for e in self.trees():
            for var in ("x1", "x2"):
                assert differentiate(e, var) == differentiate(unshared(e), var)

    def test_values_are_released_after_their_last_use(self):
        # Keeping every node's value to the end of the call peaks at 13 MB here.
        e = parse("sin(x1*x2)*exp(x1+x2)/(2+x1*x2)")
        tracemalloc.start()
        try:
            extract_traces(e, Grid2D(make_grid(1.0, 64), make_grid(1.0, 64)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_nested_quotients_extract_in_seconds(self):
        start = time.perf_counter()
        extract_traces(parse(NESTED_QUOTIENTS), Grid2D(make_grid(1.0, 3), make_grid(1.0, 3)))
        assert time.perf_counter() - start < 5.0


class TestDerivativeAgainstFiniteDifferences:
    def test_randomized(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 300:
            e = parse(random_text(rng))
            x1, x2 = rng.uniform(0.1, 0.9, size=2)
            var = rng.choice(["x1", "x2"])
            de = differentiate(e, var)
            try:
                sym = evaluate(de, x1, x2)
                fd = central_difference(e, var, x1, x2)
            except EvalDomainError:
                continue
            if not (np.isfinite(sym) and np.isfinite(fd)) or abs(sym) > 1e6:
                continue
            assert abs(sym - fd) <= 1e-5 * max(1.0, abs(sym), abs(fd))
            checked += 1


class TestPrinting:
    def test_reparse_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            e = parse(random_text(rng))
            e2 = parse(to_string(e))
            for _ in range(5):
                x1, x2 = rng.uniform(0, 1, size=2)
                try:
                    v1 = evaluate(e, x1, x2)
                    v2 = evaluate(e2, x1, x2)
                except EvalDomainError:
                    continue
                assert v1 == pytest.approx(v2, rel=1e-14, abs=1e-14)

    def test_derivative_printing_roundtrip(self):
        e = differentiate(parse("sin(x1*x2)/(x2+1)"), "x1")
        e2 = parse(to_string(e))
        assert evaluate(e2, 0.3, 0.4) == pytest.approx(evaluate(e, 0.3, 0.4), rel=1e-15)

    def test_reparses_to_the_same_tree(self):
        for text in ("x1/1e400 + 2.5e-3", "-(x2^3)*sin(x1 - 0.1)", "1 - 2 - 3"):
            e = parse(text)
            assert parse(to_string(e)) == e

    def test_folded_negative_infinity_reparses(self):
        e = differentiate(parse("x2 - 1e999*x1"), "x1")
        assert e == Num(-math.inf)
        assert evaluate(parse(to_string(e)), 0.3, 0.4) == evaluate(e, 0.3, 0.4)

    def test_negative_literal(self):
        e = differentiate(parse("cos(x1)"), "x1")  # folds to -sin(x1) shape
        assert evaluate(parse(to_string(e)), 0.7, 0.0) == pytest.approx(-np.sin(0.7))

    @pytest.mark.parametrize("e, text", [
        (Pow(Num(-2.0), 2), "((-2.0)^2)"),
        (Pow(Num(-0.0), 2), "((-0.0)^2)"),
        (Pow(Num(-1e200), 2), "((-1e+200)^2)"),
        (BinOp("-", Var("x1"), Num(-2.0)), "(x1 - (-2.0))"),
    ])
    def test_a_literal_with_its_sign_bit_set_prints_as_a_negation(self, e, text):
        assert to_string(e) == text
        want, got = evaluate(e, 0.3, 0.4), evaluate(parse(text), 0.3, 0.4)
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))
