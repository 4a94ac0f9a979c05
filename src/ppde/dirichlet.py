"""Dirichlet solver: close the Goursat traces against the far-edge data.

The non-classical boundary data fixes every trace entering the Goursat
reduction except the corner mixed derivative c = D1D2u(0,0) and the edge
functions g1 = D1^2 D2 u(., 0) and g2 = D1 D2^2 u(0, .).  Those unknowns,
collected in theta = [c, g1 nodes, g2 nodes], are determined by the four
conditions on the far edges:

    D2u(h1, 0)      = z01_h1        (one scalar row)
    D1u(0, h2)      = z10_h2        (one scalar row)
    D1^2u(x1, h2)   = z20_h2(x1)    (one row per x1 node)
    D2^2u(h1, x2)   = z02_h1(x2)    (one row per x2 node)

Every left-hand side is an affine function of theta because the Goursat
solution w depends affinely on the traces.  One march gives the whole map:
its first right-hand side is the Goursat problem at theta = 0 (the
offset), and the others are the homogeneous Goursat problems of the unit
traces (the columns), one per unknown; only the far-edge sums of each row
are kept.  The system is solved in the least-squares sense with
minimum-norm tie-breaking.  Data
that are the traces of an actual solution make the system consistent up
to discretization; for arbitrary data the minimized residual is reported
as a diagnostic.  The classical Dirichlet problem is solved by exact
conversion of its boundary data to non-classical form, which makes the
two formulations interchangeable.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .goursat import GoursatProblem, MarchingError, known_term, march, solve_goursat
from .grid import Grid2D, GridFn1D, GridFn2D, lp_norm, mixed_norm
from .problem import (
    AgreementReport,
    ClassicalData,
    Coefficients,
    CompatibilityReport,
    NonClassicalData,
    apply_operator,
    check_agreement,
    check_compatibility,
    classical_to_nonclassical,
    live_terms,
)
from .representation import DerivativeField, TraceSet, line, orders

__all__ = [
    "DirichletProblem",
    "ClosureSystem",
    "Diagnostics",
    "Solution",
    "assemble_closure_system",
    "solve_dirichlet",
    "solve_classical",
    "residual_report",
]


class DirichletProblem:
    """Grid, coefficients, right-hand side and non-classical data.

    ``tol`` and ``max_iter`` are validated and kept for compatibility with
    callers and configs written for the former iterative Goursat solver;
    they have no effect, because the Goursat problem is solved directly.
    """

    def __init__(self, grid: Grid2D, coeffs: Coefficients, rhs: GridFn2D,
                 data: NonClassicalData, tol: float = 1e-12,
                 max_iter: int = 200, ridge: float = 0.0):
        if coeffs.grid != grid or rhs.grid != grid:
            raise ValueError("coefficients and right-hand side must live on the problem grid")
        if data.z20.grid != grid.g1 or data.z02.grid != grid.g2:
            raise ValueError("data edge functions do not match the problem grid")
        if not tol > 0.0:
            raise ValueError(f"tolerance must be positive, got {tol}")
        if int(max_iter) < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if ridge < 0.0:
            raise ValueError(f"ridge must be nonnegative, got {ridge}")
        self.grid = grid
        self.coeffs = coeffs
        self.rhs = rhs
        self.data = data
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.ridge = float(ridge)


class ClosureSystem:
    """Affine residual map R(theta) = matrix @ theta - offset.

    Unknown layout: [c, g1 at the x1 nodes, g2 at the x2 nodes].  Row
    layout: the two scalar far-corner rows, then one row per x1 node for
    the D1^2u(., h2) condition, then one per x2 node for D2^2u(h1, .).
    """

    def __init__(self, matrix: np.ndarray, offset: np.ndarray, n1: int, n2: int):
        rows = 2 + (n1 + 1) + (n2 + 1)
        cols = 1 + (n1 + 1) + (n2 + 1)
        if matrix.shape != (rows, cols):
            raise ValueError(f"closure matrix must be {rows}x{cols}, got {matrix.shape}")
        if offset.shape != (rows,):
            raise ValueError(f"closure offset must have length {rows}")
        if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(offset))):
            raise ValueError("closure system entries must be finite")
        self.matrix = matrix
        self.offset = offset
        self.n1 = n1
        self.n2 = n2


@dataclass(frozen=True)
class Diagnostics:
    """A-posteriori residuals and informational norms for one solve."""

    compat: CompatibilityReport
    closure_residual: float
    equation_residual: float
    condition_residuals: dict
    goursat_iterations: int
    coefficient_norms: dict
    agreement: AgreementReport | None = None


class Solution:
    """Reconstructed derivative field, solved unknowns and diagnostics."""

    def __init__(self, field: DerivativeField, theta: np.ndarray, diagnostics: Diagnostics):
        self.field = field
        self.theta = theta
        self.diagnostics = diagnostics


def _goursat_problem(p: DirichletProblem, theta: np.ndarray) -> GoursatProblem:
    """The Goursat problem whose unknown traces [c, g1 nodes, g2 nodes] are theta."""
    n1 = p.grid.g1.n
    traces = TraceSet(
        u00=p.data.z00, u10=p.data.z10, u01=p.data.z01, c=float(theta[0]),
        p=p.data.z20, g1=GridFn1D(p.grid.g1, theta[1:n1 + 2]),
        q=p.data.z02, g2=GridFn1D(p.grid.g2, theta[n1 + 2:]),
    )
    return GoursatProblem(traces, p.coeffs, p.rhs)


def _signed_residuals(field: DerivativeField, data: NonClassicalData) -> dict:
    """Signed residual of each of the eleven non-classical conditions."""
    n1 = field.grid.g1.n
    n2 = field.grid.g2.n
    d = field.d
    return {
        "z00": d[0][0].values[0, 0] - data.z00,
        "z10": d[1][0].values[0, 0] - data.z10,
        "z01": d[0][1].values[0, 0] - data.z01,
        "z20": d[2][0].values[:, 0] - data.z20.values,
        "z02": d[0][2].values[0, :] - data.z02.values,
        "z00_h1": d[0][0].values[n1, 0] - data.z00_h1,
        "z01_h1": d[0][1].values[n1, 0] - data.z01_h1,
        "z00_h2": d[0][0].values[0, n2] - data.z00_h2,
        "z10_h2": d[1][0].values[0, n2] - data.z10_h2,
        "z20_h2": d[2][0].values[:, n2] - data.z20_h2.values,
        "z02_h1": d[0][2].values[n1, :] - data.z02_h1.values,
    }


def assemble_closure_system(p: DirichletProblem) -> ClosureSystem:
    """Assemble the affine far-edge residual map R(theta) = matrix @ theta - offset.

    Rows: D2u(h1, 0), D1u(0, h2), D1^2u(., h2), D2^2u(h1, .).  Each is a
    trace part plus a w part: D1^2u(x1, h2) gains T2w(x1, h2), one dot
    product per row of w, and D2^2u(h1, x2) gains T1w(h1, x2), a sum over
    the rows; D2u(h1, 0) and D1u(0, h2) do not depend on w.  Column 0 of
    one augmented array [R(0) | matrix] is the problem at theta = 0, and
    the others are linear in the unit traces c = 1, g1 = e_m and g2 = e_m.
    Their trace parts are the unit-trace fields of the order table at the
    far edges.  All columns share one march, with one right-hand side per
    column; its rows are [known at theta = 0 | -lower_order(unit-trace
    fields)], and only the far-edge sums of the rows of w are kept.
    """
    g1, g2 = p.grid.g1, p.grid.g2
    n1, n2 = g1.n, g2.n
    F1 = orders(np.eye(n1 + 1), g1.nodes[:, None], g1.h)
    F2 = orders(np.eye(n2 + 1), g2.nodes[:, None], g2.h)

    def unit(i, q, r, j=slice(None)):
        """D1^q D2^r u at x1 node i and x2 nodes j for the unit traces [c | g1 = e_m | g2 = e_m].

        Their fields are line x line, F1[., m] x line and line x F2[., m].
        """
        line1, line2 = line(g1.nodes[i]), line(g2.nodes[j, None])
        row = np.zeros((line2[0].shape[0], n1 + n2 + 3))
        for block, f1, f2 in ((row[:, :1], line1, line2),
                              (row[:, 1:n1 + 2], [f[i] for f in F1], line2),
                              (row[:, n1 + 2:], line1, [f[j] for f in F2])):
            if q < len(f1) and r < len(f2):
                block[...] = f1[q] * f2[r]
        return row

    d = p.data
    system = np.column_stack([
        np.concatenate([[d.z01 - d.z01_h1, d.z10 - d.z10_h2],
                        d.z20.values - d.z20_h2.values, d.z02.values - d.z02_h1.values]),
        np.vstack([unit(n1, 0, 1, [0]), unit(0, 1, 0, [n2])]
                  + [unit(i, 2, 0, [n2]) for i in range(n1 + 1)] + [unit(n1, 0, 2)]),
    ])
    known0 = known_term(_goursat_problem(p, np.zeros(n1 + n2 + 3)))
    live = live_terms(p.coeffs)

    def rows():
        for i in range(n1 + 1):
            row = np.zeros((n2 + 1, n1 + n2 + 4))
            row[:, 0] = known0[i]
            for a, (q, r) in live:
                row[:, 1:] -= a[i][:, None] * unit(i, q, r)
            yield row

    far_x2 = system[2:n1 + 3]   # D1^2u(x1, h2) rows, one per x1 node
    far_x1 = system[n1 + 3:]    # D2^2u(h1, x2) rows, one per x2 node
    try:
        for i, w in enumerate(march(p.coeffs, rows())):
            far_x2[i] += F2[0][-1] @ w
            far_x1 += F1[0][-1, i] * w
    except MarchingError as err:
        raise MarchingError(f"closure march failed: {err}") from err
    return ClosureSystem(system[:, 1:], -system[:, 0], n1, n2)


def _solve_least_squares(system: ClosureSystem, ridge: float) -> np.ndarray:
    matrix, offset = system.matrix, system.offset
    ncols = matrix.shape[1]
    if ridge > 0.0:
        matrix = np.vstack([matrix, np.sqrt(ridge) * np.eye(ncols)])
        offset = np.concatenate([offset, np.zeros(ncols)])
    theta, _, rank, _ = np.linalg.lstsq(matrix, offset, rcond=None)
    if rank < ncols:
        warnings.warn(
            f"closure system rank {rank} < {ncols} unknowns: minimum-norm solution returned",
            RuntimeWarning,
            stacklevel=3,
        )
    return theta


def _condition_residuals(field: DerivativeField, data: NonClassicalData) -> dict:
    return {name: float(np.max(np.abs(r))) for name, r in _signed_residuals(field, data).items()}


def _coefficient_norms(coeffs: Coefficients) -> dict:
    # Informational: the sup/integrability pattern each coefficient is
    # expected to satisfy, evaluated with exponent 2 on the grid.
    return {
        "a21": mixed_norm(coeffs.a21, np.inf, 2),
        "a20": mixed_norm(coeffs.a20, np.inf, 2),
        "a12": mixed_norm(coeffs.a12, 2, np.inf),
        "a02": mixed_norm(coeffs.a02, 2, np.inf),
        "a11": lp_norm(coeffs.a11, 2),
        "a10": lp_norm(coeffs.a10, 2),
        "a01": lp_norm(coeffs.a01, 2),
        "a00": lp_norm(coeffs.a00, 2),
    }


def solve_dirichlet(p: DirichletProblem) -> Solution:
    """Solve the non-classical Dirichlet problem.

    Steps: compatibility residuals, closure assembly (one
    multi-right-hand-side march), minimum norm least squares for
    theta, one final Goursat solve, and a full diagnostic report (all
    eleven boundary-condition residuals evaluated on the returned field).
    """
    compat = check_compatibility(p.data)
    system = assemble_closure_system(p)
    theta = _solve_least_squares(system, p.ridge)
    final = solve_goursat(_goursat_problem(p, theta))
    closure_residual = float(np.linalg.norm(system.matrix @ theta - system.offset))
    diagnostics = Diagnostics(
        compat=compat,
        closure_residual=closure_residual,
        equation_residual=final.residual,
        condition_residuals=_condition_residuals(final.field, p.data),
        goursat_iterations=final.iterations,
        coefficient_norms=_coefficient_norms(p.coeffs),
    )
    return Solution(final.field, theta, diagnostics)


def solve_classical(coeffs: Coefficients, rhs: GridFn2D, d: ClassicalData,
                    grid: Grid2D, ridge: float = 0.0) -> Solution:
    """Solve the classical Dirichlet problem via exact data conversion.

    The boundary triples are repackaged into non-classical data (a
    lossless read-off), the non-classical solver runs unchanged, and the
    agreement residuals of the original data ride along in Diagnostics.
    """
    z = classical_to_nonclassical(d)
    problem = DirichletProblem(grid, coeffs, rhs, z, ridge=ridge)
    s = solve_dirichlet(problem)
    diagnostics = dataclasses.replace(s.diagnostics, agreement=check_agreement(d))
    return Solution(s.field, s.theta, diagnostics)


def residual_report(s: Solution, p: DirichletProblem) -> Diagnostics:
    """Recompute the a-posteriori residuals of a solution; idempotent."""
    if s.field.grid != p.grid:
        raise ValueError("solution and problem grids differ")
    equation_residual = float(
        np.max(np.abs(apply_operator(s.field, p.coeffs).values - p.rhs.values))
    )
    return dataclasses.replace(
        s.diagnostics,
        compat=check_compatibility(p.data),
        equation_residual=equation_residual,
        condition_residuals=_condition_residuals(s.field, p.data),
    )
