"""Randomized expression families shared by the test modules.

The manufactured family keeps derivatives of every order comparable to the
trace magnitudes (bounded factors, unit frequencies, mild exponentials), so
quadrature-error bounds phrased in terms of the data scale hold with room
to spare.
"""

import numpy as np

from ppde.expr import evaluate
from ppde.problem import COEFFICIENT_NAMES

_FACTORS = ("1", "{x}", "{x}^2", "{x}^3", "sin({x})", "cos({x})", "exp(0.5*{x})")


def random_manufactured_expr(rng) -> str:
    """Sum of 2..3 separable products with bounded smooth factors."""
    parts = []
    for _ in range(rng.integers(2, 4)):
        c = rng.uniform(-2.0, 2.0)
        f = str(rng.choice(_FACTORS)).format(x="x1")
        g = str(rng.choice(_FACTORS)).format(x="x2")
        parts.append(f"({c:.6f})*({f})*({g})")
    return " + ".join(parts)


def random_coefficient_exprs(rng) -> dict:
    """Small random subset of the eight coefficients, mild magnitudes."""
    out = {}
    for name in COEFFICIENT_NAMES:
        if rng.random() < 0.5:
            c = rng.uniform(-0.5, 0.5)
            form = rng.integers(0, 3)
            if form == 0:
                out[name] = f"{c:.4f}"
            elif form == 1:
                out[name] = f"({c:.4f})*x1"
            else:
                out[name] = f"({c:.4f})*x2"
    return out


def coefficient_subsets(exprs: dict, seed: int) -> list:
    """No coefficient, each one alone, one random mix of four, and all.

    Run over these, a test checks each (i, j) term of the operator on its
    own as well as together.
    """
    rng = np.random.default_rng(seed)
    mix = {name: exprs[name] for name in rng.choice(sorted(exprs), size=4, replace=False)}
    return [{}] + [{name: e} for name, e in exprs.items()] + [mix, exprs]


def random_expr(rng, depth=0) -> str:
    """General random expression text for derivative spot checks."""
    choices = ["num", "var", "add", "sub", "mul", "pow", "call"]
    if depth >= 3:
        choices = ["num", "var"]
    kind = rng.choice(choices)
    if kind == "num":
        return f"{rng.uniform(-2, 2):.4f}"
    if kind == "var":
        return str(rng.choice(["x1", "x2"]))
    if kind in ("add", "sub", "mul"):
        op = {"add": "+", "sub": "-", "mul": "*"}[kind]
        return f"({random_expr(rng, depth + 1)} {op} {random_expr(rng, depth + 1)})"
    if kind == "pow":
        return f"({random_expr(rng, depth + 1)})^{rng.integers(0, 4)}"
    fn = str(rng.choice(["sin", "cos", "exp"]))
    return f"{fn}({random_expr(rng, depth + 1)})"


def central_difference(e, var, x1, x2, delta=1e-5):
    if var == "x1":
        return (evaluate(e, x1 + delta, x2) - evaluate(e, x1 - delta, x2)) / (2 * delta)
    return (evaluate(e, x1, x2 + delta) - evaluate(e, x1, x2 - delta)) / (2 * delta)
