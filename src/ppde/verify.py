"""Manufactured-solution cases, grid-refinement studies and the solution norm.

A manufactured case starts from a symbolic u: its traces provide the
non-classical data, the symbolically differentiated field provides the
reference, and applying the operator to that field provides the matching
right-hand side.  Solving the assembled problem and comparing against the
reference exercises the full pipeline with a known answer.

A refinement study builds every grid's case (``manufactured_problem``)
before ``convergence_table`` solves them and tabulates u's errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .dirichlet import DirichletProblem, solve_dirichlet
from .grid import Grid1D, Grid2D, GridFn, lp_norm
from .problem import Coefficients, NonClassicalData, apply_operator
from .representation import DerivativeField, extract_traces

__all__ = [
    "ManufacturedCase",
    "ConvergenceRow",
    "ConvergenceTable",
    "manufactured_problem",
    "check_doubling",
    "node_errors",
    "convergence_table",
    "convergence_study",
    "sobolev_norm",
]


@dataclass(frozen=True)
class ManufacturedCase:
    problem: DirichletProblem
    reference: DerivativeField


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    max_error: float
    l2_error: float
    observed_order: float  # log2(e_n / e_2n) against the previous row; nan on the first


class ConvergenceTable:
    """Error rows over a doubling sequence of grid sizes."""

    def __init__(self, rows: list[ConvergenceRow]):
        check_doubling([row.n for row in rows])
        for row in rows:
            if row.max_error < 0 or row.l2_error < 0:
                raise ValueError("errors must be nonnegative")
        self.rows = list(rows)

    def as_csv(self) -> str:
        lines = ["n,max_error,l2_error,observed_order"]
        for row in self.rows:
            lines.append(
                f"{row.n},{row.max_error:.16e},{row.l2_error:.16e},"
                + ("" if math.isnan(row.observed_order) else f"{row.observed_order:.6f}")
            )
        return "\n".join(lines) + "\n"


def check_doubling(ns) -> list:
    """``ns`` as a list, if it is two or more interval counts >= 1, each twice the last."""
    ns = list(ns)
    if len(ns) < 2 or ns[0] < 1 or any(fine != 2 * coarse for coarse, fine in zip(ns, ns[1:])):
        raise ValueError(f"grid sizes must be two or more doubling interval counts >= 1, got {ns}")
    return ns


def manufactured_problem(u, coeffs: Coefficients, grid: Grid2D) -> ManufacturedCase:
    """Bundle data, right-hand side and reference for a symbolic u."""
    if isinstance(u, str):
        u = ex.parse(u)
    _, _, reference = extract_traces(u, grid)
    rhs = apply_operator(reference, coeffs)
    problem = DirichletProblem(grid, coeffs, rhs, NonClassicalData.from_field(reference))
    return ManufacturedCase(problem=problem, reference=reference)


def _order(e_coarse: float, e_fine: float) -> float:
    if e_fine == 0.0:
        return math.inf if e_coarse > 0.0 else math.nan
    return math.log2(e_coarse / e_fine) if e_coarse > 0.0 else -math.inf


def node_errors(approx: GridFn, exact: GridFn) -> tuple[float, float]:
    """Max node error and trapezoid L2 norm of ``approx - exact``."""
    diff = approx.values - exact.values
    return float(np.max(np.abs(diff))), lp_norm(GridFn(approx.grid, diff), 2)


def convergence_table(cases) -> ConvergenceTable:
    """Solve manufactured cases and tabulate the errors of u (``node_errors``).

    Before any solve, the cases' grids must be square in interval counts
    (n1 = n2) and double from each case to the next (``check_doubling``).
    """
    grids = [case.problem.grid for case in cases]
    ns = check_doubling([g.g1.n for g in grids])
    if [g.g2.n for g in grids] != ns:
        raise ValueError(f"grids must have n1 = n2, got {[(g.g1.n, g.g2.n) for g in grids]}")
    rows = []
    for n, case in zip(ns, cases):
        e_max, e_l2 = node_errors(solve_dirichlet(case.problem).field.u, case.reference.u)
        order = _order(rows[-1].max_error, e_max) if rows else math.nan
        rows.append(ConvergenceRow(n=n, max_error=e_max, l2_error=e_l2, observed_order=order))
    return ConvergenceTable(rows)


def convergence_study(u, exprs: dict, lengths: tuple, ns) -> ConvergenceTable:
    """Solve the manufactured problem for u over doubling grids.

    ``exprs`` maps coefficient names to expressions, sampled on each grid;
    ``lengths`` is the rectangle sides (h1, h2); ``ns`` the doubling
    interval counts (``check_doubling``).  Every grid's case is built
    before the first solve; ``convergence_table`` solves them.
    """
    grids = [Grid2D(Grid1D(lengths[0], n), Grid1D(lengths[1], n)) for n in check_doubling(ns)]
    return convergence_table([manufactured_problem(u, Coefficients.from_exprs(grid, exprs), grid)
                              for grid in grids])


def sobolev_norm(field: DerivativeField, p) -> float:
    """Sum of the L_p norms of all nine derivative grids."""
    return float(sum(lp_norm(field.d[i][j], p) for i in range(3) for j in range(3)))
