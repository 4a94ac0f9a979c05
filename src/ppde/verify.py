"""Manufactured-solution cases, grid-refinement studies and the solution norm.

A manufactured case starts from a symbolic u: its traces provide the
non-classical data, the symbolically differentiated field provides the
reference, and applying the operator to that field provides the matching
right-hand side.  Solving the assembled problem and comparing against the
reference exercises the full pipeline with a known answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .dirichlet import DirichletProblem, solve_dirichlet
from .grid import Grid2D, GridFn1D, GridFn2D, lp_norm, make_grid
from .problem import Coefficients, NonClassicalData, apply_operator
from .representation import DerivativeField, extract_traces

__all__ = [
    "ManufacturedCase",
    "ConvergenceRow",
    "ConvergenceTable",
    "manufactured_problem",
    "convergence_study",
    "sobolev_norm",
]


@dataclass(frozen=True)
class ManufacturedCase:
    u: ex.Expr
    coeffs: Coefficients
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
        for prev, cur in zip(rows, rows[1:]):
            if cur.n != 2 * prev.n:
                raise ValueError("grid sizes must double between rows")
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


def manufactured_problem(u, coeffs: Coefficients, grid: Grid2D,
                         tol: float = 1e-12, max_iter: int = 200) -> ManufacturedCase:
    """Bundle data, right-hand side and reference for a symbolic u.

    ``tol`` and ``max_iter`` are passed to DirichletProblem, where they are
    validated but have no effect.
    """
    if isinstance(u, str):
        u = ex.parse(u)
    traces, _, reference = extract_traces(u, grid)
    n1, n2 = grid.g1.n, grid.g2.n
    d = reference.d
    data = NonClassicalData(
        z00=traces.u00, z10=traces.u10, z01=traces.u01,
        z00_h1=d[0][0].values[n1, 0], z01_h1=d[0][1].values[n1, 0],
        z00_h2=d[0][0].values[0, n2], z10_h2=d[1][0].values[0, n2],
        z20=traces.p, z02=traces.q,
        z20_h2=GridFn1D(grid.g1, d[2][0].values[:, n2]),
        z02_h1=GridFn1D(grid.g2, d[0][2].values[n1, :]),
    )
    rhs = apply_operator(reference, coeffs)
    problem = DirichletProblem(grid, coeffs, rhs, data, tol=tol, max_iter=max_iter)
    return ManufacturedCase(u=u, coeffs=coeffs, problem=problem, reference=reference)


def _order(e_coarse: float, e_fine: float) -> float:
    if e_fine == 0.0:
        return math.inf if e_coarse > 0.0 else math.nan
    return math.log2(e_coarse / e_fine) if e_coarse > 0.0 else -math.inf


def convergence_study(u, coeff_exprs: dict, lengths: tuple, ns, tol: float = 1e-12) -> ConvergenceTable:
    """Solve the manufactured problem for u over doubling grids.

    ``coeff_exprs`` maps coefficient names to expressions so the
    coefficients can be resampled per grid; ``lengths`` is the rectangle
    sides (h1, h2); ``ns`` the doubling interval counts.  Errors are
    measured on u itself (max node error and trapezoid L2) against the
    symbolic reference.  ``tol`` is validated but has no effect.
    """
    ns = list(ns)
    if len(ns) < 2:
        raise ValueError("need at least two grid sizes")
    h1, h2 = lengths
    if isinstance(u, str):
        u = ex.parse(u)
    rows = []
    prev_max = math.nan
    for n in ns:
        grid = Grid2D(make_grid(h1, n), make_grid(h2, n))
        coeffs = Coefficients.from_exprs(grid, coeff_exprs)
        case = manufactured_problem(u, coeffs, grid, tol=tol)
        sol = solve_dirichlet(case.problem)
        diff = sol.field.u.values - case.reference.u.values
        e_max = float(np.max(np.abs(diff)))
        e_l2 = lp_norm(GridFn2D(grid, diff), 2)
        order = math.nan if not rows else _order(prev_max, e_max)
        rows.append(ConvergenceRow(n=n, max_error=e_max, l2_error=e_l2, observed_order=order))
        prev_max = e_max
    return ConvergenceTable(rows)


def sobolev_norm(field: DerivativeField, p) -> float:
    """Sum of the L_p norms of all nine derivative grids."""
    return float(sum(lp_norm(field.d[i][j], p) for i in range(3) for j in range(3)))
