"""The benchmark tracer in perfbench/tracing.py wraps ppde names by binding.

A refactor that drops or renames one of those names would break every
traced benchmark run, and so would one that keeps the names but stops
calling through them.  These tests load the tracer from its source text
(no bytecode is written), check that each name is still there, and run a
small library solve and a CLI solve under it.
"""

from pathlib import Path

import numpy as np
import pytest

from ppde.cli import run
from ppde.dirichlet import solve_dirichlet
from ppde.grid import Grid2D, make_grid
from ppde.problem import Coefficients
from ppde.verify import manufactured_problem

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


def test_every_traced_binding_exists(tracing):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing["BINDINGS"]
               if attr not in vars(owner)]
    assert missing == []


def traced(tracing, call):
    """call() untraced and then traced; returns both results and the tracer."""
    originals = tracing["installed_bindings"]()
    plain = call()
    tracer = tracing["Tracer"]()
    with tracer:
        result = call()
    assert tracing["installed_bindings"]() == originals
    assert tracer.sweeps and tracer.systems
    return plain, result


def test_traced_library_solve(tracing):
    g = Grid2D(make_grid(1.0, 6), make_grid(1.0, 6))
    coeffs = Coefficients.from_exprs(g, {"a00": "1", "a21": "x1"})
    problem = manufactured_problem("sin(x1)*exp(x2) + x1^2*x2", coeffs, g).problem
    plain, result = traced(tracing, lambda: solve_dirichlet(problem))
    for i in range(3):
        for j in range(3):
            np.testing.assert_array_equal(result.field.d[i][j].values, plain.field.d[i][j].values)


def test_traced_cli_solve(tracing, tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[domain]\nh1 = 1.0\nh2 = 1.0\nn1 = 6\nn2 = 6\n\n"
                   '[rhs]\nexpr = "4 + x1^2*x2^2"\n\n[coefficients]\na00 = "1"\n\n'
                   '[data.nonclassical]\nz20_h2 = "2"\nz02_h1 = "2"\n')

    def solve():
        out = tmp_path / "u.csv"
        assert run(["solve", "--config", str(cfg), "--out", str(out), "--field"]) == 0
        return {p.name: p.read_bytes() for p in sorted(tmp_path.glob("u*.csv"))}

    plain, result = traced(tracing, solve)
    assert len(result) == 10
    assert result == plain
