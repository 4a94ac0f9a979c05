"""Goursat (characteristic initial-value) solver via Picard iteration.

Substituting the trace representation into the operator equation turns it
into a 2D Volterra integral equation of the second kind for the principal
mixed derivative w = D1^2 D2^2 u:

    w(x) = known(x) - sum_ij a_ij(x) * (K_ij w)(x),

where known collects the right-hand side and the trace contributions and
every K_ij integrates w over [0, x1] x [0, x2] only.  Successive
substitution converges super-linearly for bounded coefficients (the
iterated kernels pick up factorial denominators), so a generous sweep cap
suffices; failure to converge on a grid signals pathological coefficient
magnitudes and is reported, not silently accepted.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFn2D
from .problem import Coefficients, apply_operator, lower_order
from .representation import DerivativeField, TraceSet, reconstruct_field

__all__ = ["GoursatProblem", "GoursatSolution", "NonConvergenceError", "solve_goursat"]


class NonConvergenceError(RuntimeError):
    """Picard iteration failed to reach the tolerance within the sweep cap."""

    def __init__(self, message: str, last_change: float, iterations: int):
        super().__init__(message)
        self.last_change = last_change
        self.iterations = iterations


class GoursatProblem:
    """Traces on the x1 = 0 / x2 = 0 edges, coefficients and right-hand side."""

    def __init__(self, traces: TraceSet, coeffs: Coefficients, rhs: GridFn2D):
        grid = rhs.grid
        if coeffs.grid != grid:
            raise ValueError("coefficients and right-hand side grids differ")
        if traces.p.grid != grid.g1 or traces.q.grid != grid.g2:
            raise ValueError("trace grids do not match the problem grid")
        self.traces = traces
        self.coeffs = coeffs
        self.rhs = rhs
        self.grid = grid


class GoursatSolution:
    """Solution record: w, the reconstructed field and iteration diagnostics."""

    def __init__(self, w: GridFn2D, field: DerivativeField, iterations: int,
                 final_change: float, residual: float):
        self.w = w
        self.field = field
        self.iterations = iterations
        self.final_change = final_change
        self.residual = residual


def solve_goursat(gp: GoursatProblem, tol: float = 1e-12, max_iter: int = 200) -> GoursatSolution:
    """Picard iteration for w, starting from the trace-only ("known") part.

    Each sweep rebuilds the derivative grids from the current w (O(n^2)
    cumulative moments) and stops once the sup-norm update drops to
    ``tol``.  Returns w, the final reconstructed field, the sweep count,
    the last update size and the sup-norm residual of the full operator
    equation.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if int(max_iter) < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    grid = gp.grid
    zero_traces = TraceSet.zeros(grid)
    zero_w = GridFn2D.zeros(grid)

    trace_field = reconstruct_field(gp.traces, zero_w)
    known = gp.rhs.values - lower_order(trace_field, gp.coeffs)

    w = known.copy()
    change = np.inf
    iterations = 0
    while iterations < max_iter:
        feedback_field = reconstruct_field(zero_traces, GridFn2D(grid, w))
        w_next = known - lower_order(feedback_field, gp.coeffs)
        iterations += 1
        if not np.all(np.isfinite(w_next)):
            raise NonConvergenceError(
                f"Picard sweep {iterations} produced non-finite values", float("inf"), iterations
            )
        change = float(np.max(np.abs(w_next - w)))
        w = w_next
        if change <= tol:
            break
    if change > tol:
        raise NonConvergenceError(
            f"no convergence within {max_iter} sweeps (last change {change:.3e})",
            change, iterations,
        )

    w_fn = GridFn2D(grid, w)
    field = reconstruct_field(gp.traces, w_fn)
    residual = float(np.max(np.abs(apply_operator(field, gp.coeffs).values - gp.rhs.values)))
    return GoursatSolution(w_fn, field, iterations, change, residual)
