"""Goursat (characteristic initial-value) solver by row marching.

Substituting the trace representation into the operator equation turns it
into a 2D Volterra integral equation of the second kind for the principal
mixed derivative w = D1^2 D2^2 u:

    w(x) = known(x) - sum_ij a_ij(x) * (K_ij w)(x),

where known = rhs - sum_ij a_ij D1^i D2^j (trace part) is read straight off
the arrays of ``representation.trace_part`` (the traces' own terms, with no
w) and every K_ij integrates w over [0, x1] x [0, x2] only.  With the trapezoid
rule the discrete equation (I + A) w = known is lower-triangular in the
node order, so it is solved exactly by marching over the x1 rows (Brunner,
Volterra Integral Equations, CUP 2017): row i is an (n2+1) x (n2+1)
lower-triangular system whose right-hand side depends on the rows before
it only through two running x1 sums, of w and of x1 * w.  Every kernel
comes from the order table of ``ppde.representation``.  A vanishing
diagonal pivot or a non-finite row is reported as a MarchingError naming
the node or the row, never silently accepted.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFn2D
from .problem import Coefficients, apply_operator, live_terms, lower_order
from .representation import DerivativeField, TraceSet, orders, reconstruct_field, trace_part

__all__ = ["GoursatProblem", "GoursatSolution", "MarchingError", "march", "solve_goursat"]

# A diagonal pivot at most this multiple of its row's largest entry counts as
# zero: the triangular solve would divide by cancellation noise.
_PIVOT_RTOL = 16 * np.finfo(float).eps


class MarchingError(np.linalg.LinAlgError):
    """The row march met a vanishing pivot or produced non-finite values."""


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
    """Solution record: w, the reconstructed field and the equation residual.

    ``iterations`` counts the passes over the grid, which for a march is
    always one; diagnostics report it as ``goursat_iterations``.
    """

    iterations = 1

    def __init__(self, w: GridFn2D, field: DerivativeField, residual: float):
        self.w = w
        self.field = field
        self.residual = residual


def march(coeffs: Coefficients, known_rows):
    """Solve (I + A) w = known row by row; yields w[i] for each known[i].

    A = lower_order o reconstruct_field(zero traces, .) is the feedback of
    w on itself.  Each ``known[i]`` has shape (n2+1, k): k right-hand sides
    solved together.  With every coefficient zero, w = known and the rows
    pass through untouched.

    With zero traces D1^p D2^q u is the w term of the order table: the
    order-p x1 factor of w, then the order-q x2 factor of that.  Along a
    row the x2 orders are the trapezoid matrices K = orders(I) = (R, L, I)
    of int_0^{x2} (x2 - b) db, int_0^{x2} db and the identity.  Along x1,
    order 2 is the row w[i] itself, order 1 is C = s0 + (h1/2) w[i] and
    order 0 is R = x1 C - S = x1 s0 - s1, where s0 and s1 are the trapezoid
    sums of w and a * w over the rows before i.  Summing the live terms
    a_pq K[q] by p gives the row kernels G[p], so the row system is
    I + G[2] + (h1/2) G[1] with right-hand side known - G[1] s0 - G[0] R,
    taken as known - (G[1] + x1 G[0]) s0 + G[0] s1 so that the cancelling
    difference x1 s0 - s1 is never formed.  The march keeps O(n2 * k) state.
    """
    live = live_terms(coeffs)
    if not live:
        yield from known_rows
        return
    g1, g2 = coeffs.grid.g1, coeffs.grid.g2
    K = orders(np.eye(g2.n + 1), g2.nodes[:, None], g2.h)
    s0 = s1 = 0.0  # the x1 sums of w and a * w without their w[i] terms
    for i, (x, known) in enumerate(zip(g1.nodes, known_rows)):
        G = np.zeros((3,) + K[0].shape)
        for a, (p, q) in live:
            G[p] += a[i][:, None] * K[q]
        # The pivots are 1 + (a21 + a11 h1/2) h2/2 + a12 h1/2 (L and R have
        # an empty first row, and R a zero diagonal).
        half = 0.5 * g1.h if i else 0.0
        system = K[2] + G[2] + half * G[1]
        _check_pivots(system, i)
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            w = np.linalg.solve(system, known - (G[1] + x * G[0]) @ s0 + G[0] @ s1 if i else known)
        if not np.all(np.isfinite(w)):
            raise MarchingError(f"the march produced non-finite values in row {i}")
        weight = g1.h if i else 0.5 * g1.h
        s0 = s0 + weight * w
        s1 = s1 + (weight * x) * w
        yield w


def _check_pivots(system: np.ndarray, i: int) -> None:
    pivots = np.abs(np.diagonal(system))
    small = np.flatnonzero(~(pivots > _PIVOT_RTOL * np.max(np.abs(system), axis=1)))
    if small.size:
        j = int(small[0])
        raise MarchingError(
            f"vanishing pivot {system[j, j]:.3e} at node ({i}, {j}) of the march"
        )


def solve_goursat(gp: GoursatProblem) -> GoursatSolution:
    """Solve the discrete Volterra equation for w by one march.

    Returns w, the reconstructed field and the sup-norm residual of the
    full operator equation.
    """
    known = gp.rhs.values - lower_order(trace_part(gp.traces, gp.grid), gp.coeffs)
    w_fn = GridFn2D(gp.grid, np.array(list(march(gp.coeffs, known[:, :, None])))[:, :, 0])
    field = reconstruct_field(gp.traces, w_fn)
    residual = float(np.max(np.abs(apply_operator(field, gp.coeffs).values - gp.rhs.values)))
    return GoursatSolution(w_fn, field, residual)
