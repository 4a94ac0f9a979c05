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
are kept.  The offset's trace part is the far-edge residual of
``representation.trace_part`` at theta = 0.  Where each condition sits
(its derivative and its nodes) is read from ``problem.CONDITIONS``, for
these rows and for the eleven residuals of the diagnostics alike.  The
system is solved in the least-squares sense; without a ridge, one of
lower rank than its unknowns is a NumericalError.  Data that are the
traces of an actual solution make the system consistent up to
discretization; for arbitrary data the minimized residual is reported as
a diagnostic.  The classical Dirichlet problem is solved by exact
conversion of its boundary data to non-classical form, which makes the
two formulations interchangeable.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .goursat import GoursatProblem, margins, march, solve_goursat
from .grid import Grid2D, GridFn, NonFiniteError, NumericalError, order_tables, scaled_norm, stage
from .problem import (
    CONDITIONS,
    AgreementReport,
    ClassicalData,
    Coefficients,
    CompatibilityReport,
    NonClassicalData,
    check_agreement,
    check_compatibility,
    classical_to_nonclassical,
    coefficient_norms,
    condition_values,
    lower_order,
)
from .representation import DerivativeField, TraceSet, line, trace_part

__all__ = [
    "DirichletProblem",
    "ClosureSystem",
    "Diagnostics",
    "Solution",
    "assemble_closure_system",
    "solve_dirichlet",
    "solve_classical",
]


class DirichletProblem:
    """Grid, coefficients, right-hand side and non-classical data.

    ``tol`` and ``max_iter`` are validated and kept for compatibility with
    callers and configs written for the former iterative Goursat solver;
    they have no effect, because the Goursat problem is solved directly.
    """

    def __init__(self, grid: Grid2D, coeffs: Coefficients, rhs: GridFn,
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
        if not (math.isfinite(ridge) and ridge >= 0.0):
            raise ValueError(f"ridge must be finite and nonnegative, got {ridge}")
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
    layout: the conditions of ``_CLOSURE`` in turn, one row per node that
    ``problem.CONDITIONS`` gives each of them: two corner rows and one per
    node of each axis, one row more than the unknowns.
    """

    def __init__(self, matrix: np.ndarray, offset: np.ndarray):
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] + 1:
            raise ValueError(f"closure matrix must have one row more than columns, got {matrix.shape}")
        if offset.shape != matrix.shape[:1]:
            raise ValueError(f"closure offset must have one entry per row, got {offset.shape}")
        if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(offset))):
            raise NonFiniteError("closure system entries must be finite")
        self.matrix = matrix
        self.offset = offset


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

    def __post_init__(self):
        values = [self.closure_residual, self.equation_residual,
                  *self.condition_residuals.values(), *self.coefficient_norms.values()]
        if not all(map(math.isfinite, values)):
            raise NonFiniteError("diagnostics must be finite")


class Solution:
    """Reconstructed derivative field, solved unknowns and diagnostics."""

    def __init__(self, field: DerivativeField, theta: np.ndarray, diagnostics: Diagnostics):
        self.field = field
        self.theta = theta
        self.diagnostics = diagnostics


def _traces(p: DirichletProblem, theta: np.ndarray) -> TraceSet:
    """The traces of the Goursat problem whose unknowns [c, g1 nodes, g2 nodes] are theta."""
    n1 = p.grid.g1.n
    return TraceSet(
        u00=p.data.z00, u10=p.data.z10, u01=p.data.z01, c=float(theta[0]),
        p=p.data.z20, g1=GridFn(p.grid.g1, theta[1:n1 + 2]),
        q=p.data.z02, g2=GridFn(p.grid.g2, theta[n1 + 2:]),
    )


def _signed_residuals(d, data: NonClassicalData) -> dict:
    """Signed residual of each of the eleven non-classical conditions on the arrays d[i][j]."""
    shape = (data.z20.grid.n + 1, data.z02.grid.n + 1)
    return {name: value - data.value(name) for name, value in condition_values(d, shape).items()}


# The conditions that theta must meet.  The others hold whatever theta is:
# z00, z10, z01, z20 and z02 are traces of the Goursat problem, and z00_h1
# and z00_h2 depend on the data alone (see check_compatibility).
_CLOSURE = ("z01_h1", "z10_h2", "z20_h2", "z02_h1")


@stage("closure assembly")
def assemble_closure_system(p: DirichletProblem) -> ClosureSystem:
    """Assemble the affine far-edge residual map R(theta) = matrix @ theta - offset.

    Each row is the residual of one condition of ``_CLOSURE`` at one of its
    nodes: a trace part plus the order table applied to the rows of w.  The
    march takes one column per unknown, in the order [R(0) | g2 | c | g1],
    and row i carries only those that can be nonzero there: with a live
    coefficient, every column up to g1 = e_i, since the field of g1 = e_m,
    and so its right-hand side and its w, vanish in the rows before m
    (F1[q][i, m] = 0 for m > i); with none, w = known and only column 0 has
    a nonzero known.  g2 is the x1 = 0 value of D1 D2^2 u, so the march
    forms the known rows of its columns from its own feed matrix.  The
    fields of c and g1 share the x2 factor line(x2), so their known rows
    are one rank-one product per live term a D1^q D2^r with r < 2, summed
    by one matrix product U @ V per row.  Each axis grid has one order
    table (F1 is F2 on a square grid); the march reads both and writes w
    into its rows.  The condition rows are views of one array, into which the
    march's w parts are summed; the tables are released before its columns
    are copied into the public order, so the closure holds at most the
    system and its one copy there.  The march holds one row at a time:
    neither ``rows`` nor the loop over the march keeps a row it is done
    with.  The march updates its rows on whole C-ordered arrays, since
    numpy buffers a ufunc operand that is a column slice (64 KB a buffer);
    the loop here sums into its fresh product, so that its column-prefix
    sum has one such operand, not two.  So the assembly peaks in the march,
    at the peak that the README's memory paragraph states.
    """
    g1, g2 = p.grid.g1, p.grid.g2
    n1, n2 = g1.n, g2.n
    F1, F2 = order_tables(p.grid)

    def unit(q, r, i, j, row):
        """Write D1^q D2^r u of the unit-trace fields at the nodes (i, j), one row per node.

        The unknowns are ordered [g2 = e_m | c | g1 = e_m]; their fields are
        line x F2[., m], line x line and F1[., m] x line.
        """
        line1, line2 = line(g1.nodes[i, None]), line(g2.nodes[j, None])
        for cols, f1, f2 in ((slice(0, n2 + 1), line1, [f[j] for f in F2]),
                             (slice(n2 + 1, n2 + 2), line1, line2),
                             (slice(n2 + 2, None), F1[:, i], line2)):
            if q < len(f1) and r < len(f2):
                row[:, cols] = f1[q] * f2[r]

    trace0 = trace_part(_traces(p, np.zeros(n1 + n2 + 3)), p.grid)
    known0 = p.rhs.values - lower_order(trace0, p.coeffs)
    residual0 = _signed_residuals(trace0, p.data)
    del trace0  # released before the march, where the closure's memory peaks
    conditions = [CONDITIONS[name] for name in _CLOSURE]
    # The rows of every condition, in turn, as views of one array.
    sizes = [np.size(residual0[name]) for name in _CLOSURE]
    system = np.zeros((sum(sizes), n1 + n2 + 4))
    blocks = np.split(system, np.cumsum(sizes)[:-1])
    for block, name, (ij, node) in zip(blocks, _CLOSURE, conditions):
        block[:, 0] = residual0[name]
        unit(*ij, *node, block[:, 1:])
    low = [(a, q, r) for a, (q, r) in p.coeffs.live if r < 2]
    x1_orders, line2 = [q for _, q, _ in low], line(g2.nodes)

    def rows():
        for i in range(n1 + 1):
            # [R(0) | g2 | c | g1 = e_0 .. e_i], or R(0) alone with no live term.
            row = np.zeros((n2 + 1, n2 + i + 4 if p.coeffs.live else 1))
            row[:, 0] = known0[i]
            if low:  # -sum a[i] line(x2)[r] (line(x1)[q], F1[q][i, :i+1]), written in place
                np.matmul(np.column_stack([-a[i] * line2[r] for a, _, r in low]),
                          np.column_stack([np.array([*line(g1.nodes[i]), 0.0])[x1_orders],
                                           F1[x1_orders, i, :i + 1]]),
                          out=row[:, n2 + 2:])
            yield row
            del row  # so that the consumed row is gone before the next is made

    # The w part of D1^q D2^r u at nodes (i, j) sums, over the march rows k,
    # F1[q][i, k] times the order-r x2 factor of row k at j.  An order below
    # 2 at node 0 is an empty integral, so such a condition has none; order
    # 2 is the identity, which picks row k itself.
    w_parts = [(block, q, r, i, j) for block, ((q, r), (i, j)) in zip(blocks, conditions)
               if not ((q < 2 and i == 0) or (r < 2 and j == 0))]
    g2_columns = slice(1, n2 + 2) if p.coeffs.live else None
    marched = march(p.coeffs, rows(), F1, F2, g2_columns)
    for k in range(n1 + 1):
        w = next(marched)
        width = w.shape[1]
        for block, q, r, i, j in w_parts:
            x2 = w[j] if r == 2 else F2[r][j] @ w
            if q == 2:  # z20_h2, along the whole x1 edge: its row k is node k
                block[k, :width] += x2
            else:  # block[:, :width] += t, summed in t
                t = F1[q][i, k] * x2
                np.add(block[:, :width], t, out=t)
                block[:, :width] = t
        del w, x2, t  # no consumed row is alive while the march makes the next
    del F1, F2, known0, marched  # released before the copy into the public layout [c | g1 | g2]
    matrix = system[:, np.r_[n2 + 2:n1 + n2 + 4, 1:n2 + 2]]
    return ClosureSystem(matrix, -system[:, 0])


def _scaled_rank(matrix: np.ndarray) -> int:
    """The rank of ``matrix`` once its rows and then its columns are divided
    by their largest |entry|, in four rounds, so that entries whose scales
    follow the powers of the sides do not read as a lower rank."""
    a = matrix.copy()
    for axis in (1, 0) * 4:
        peak = np.max(np.abs(a), axis=axis, keepdims=True)
        a /= np.where(peak > 0.0, peak, 1.0)
    return int(np.linalg.matrix_rank(a))


def _solve_least_squares(system: ClosureSystem, ridge: float, coeffs: Coefficients) -> np.ndarray:
    """The least-squares theta, regularised by ``ridge`` when that is
    positive.  Without a ridge a closure of lower rank than its unknowns is
    a NumericalError naming its cause: entries that span too many scales,
    when the closure has full rank once scaled, or else the margins
    (``goursat.margins``)."""
    matrix, offset = system.matrix, system.offset
    ncols = matrix.shape[1]
    if ridge > 0.0:
        matrix = np.vstack([matrix, np.sqrt(ridge) * np.eye(ncols)])
        offset = np.concatenate([offset, np.zeros(ncols)])
    theta, _, rank, _ = np.linalg.lstsq(matrix, offset, rcond=None)
    if ridge == 0.0 and rank < ncols:
        g1, g2 = coeffs.grid.axes
        cause = (f"its entries span too many scales at sides h1 = {g1.length:.6g}, h2 = "
                 f"{g2.length:.6g} (rank {ncols} once its rows and columns are scaled)"
                 if _scaled_rank(matrix) == ncols else margins(coeffs))
        raise NumericalError(f"closure system rank {rank} < {ncols} unknowns; "
                             f"{cause}; give a ridge > 0 to regularise")
    return theta


def _condition_residuals(field: DerivativeField, data: NonClassicalData) -> dict:
    return {name: float(np.max(np.abs(r)))
            for name, r in _signed_residuals(field.values, data).items()}


def solve_dirichlet(p: DirichletProblem) -> Solution:
    """Solve the non-classical Dirichlet problem.

    Steps: compatibility residuals, closure assembly (one
    multi-right-hand-side march), least squares for theta, one final
    Goursat solve, and a full diagnostic report (all eleven
    boundary-condition residuals evaluated on the returned field).

    The closure system is released once theta and the closure residual
    are known, so the final solve starts with theta alone.  A solve's
    memory peaks in one of two stages: with a live coefficient, in the
    closure march, which holds the closure rows, the order tables, the
    running sums and one march row with its kernels and one scratch row;
    with none, in the final solve's ``reconstruct_field``, which makes the
    nine output grids while w, the first sweeps of w and one trace-part
    entry are alive.  The README's memory paragraph states both peaks and
    the tests that bound them.
    """
    compat = check_compatibility(p.data)
    system = assemble_closure_system(p)
    with stage("closure solve"):
        theta = _solve_least_squares(system, p.ridge, p.coeffs)
        closure_residual = scaled_norm(np.linalg.norm, system.matrix @ theta - system.offset)
        traces = _traces(p, theta)
    del system  # released before the final solve
    final = solve_goursat(GoursatProblem(traces, p.coeffs, p.rhs))
    with stage("diagnostics"):
        diagnostics = Diagnostics(
            compat=compat,
            closure_residual=closure_residual,
            equation_residual=final.residual,
            condition_residuals=_condition_residuals(final.field, p.data),
            goursat_iterations=final.iterations,
            coefficient_norms=coefficient_norms(p.coeffs),
        )
    return Solution(final.field, theta, diagnostics)


def solve_classical(coeffs: Coefficients, rhs: GridFn, d: ClassicalData,
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

