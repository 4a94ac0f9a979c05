import numpy as np
import pytest

from _families import central_difference, random_expr
from ppde.expr import (
    BinOp,
    EvalDomainError,
    ParseError,
    Pow,
    Var,
    differentiate,
    evaluate,
    parse,
    to_string,
)


def d(text, var):
    return differentiate(parse(text), var)


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


class TestDifferentiate:
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


class TestDerivativeAgainstFiniteDifferences:
    def test_randomized(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 300:
            e = parse(random_expr(rng))
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
            e = parse(random_expr(rng))
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

    def test_negative_literal(self):
        e = differentiate(parse("cos(x1)"), "x1")  # folds to -sin(x1) shape
        assert evaluate(parse(to_string(e)), 0.7, 0.0) == pytest.approx(-np.sin(0.7))
