"""Goursat (characteristic initial-value) solver by row marching.

Substituting the trace representation into the operator equation turns it
into a 2D Volterra integral equation of the second kind for the principal
mixed derivative w = D1^2 D2^2 u:

    w(x) = known(x) - sum_ij a_ij(x) * (K_ij w)(x),

where known collects the right-hand side and the trace contributions and
every K_ij integrates w over [0, x1] x [0, x2] only.  With the trapezoid
rule the discrete equation (I + A) w = known is lower-triangular in the
node order, so it is solved exactly by marching over the x1 rows (Brunner,
Volterra Integral Equations, CUP 2017): row i is an (n2+1) x (n2+1)
lower-triangular system whose right-hand side depends on the rows before
it only through two running x1 sums, of w and of x1 * w.  A vanishing
diagonal pivot or a non-finite row is reported as a MarchingError naming
the node or the row, never silently accepted.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFn2D, cumulative_integrals
from .problem import COEFFICIENT_NAMES, Coefficients, apply_operator, lower_order
from .representation import DerivativeField, TraceSet, reconstruct_field

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

    Along a row, L and R are the trapezoid matrices of int_0^{x2} and of
    int_0^{x2} (x2 - b) db.  With zero traces the derivative rows of u are
    D1^2 D2^q u = K_q w, D1 D2^q u = K_q C and D2^q u = K_q (x1 C - S),
    where K_2 = I, K_1 = L, K_0 = R and C, S are the trapezoid integrals
    of w and a * w over a in [0, x1].  C and S take w[i] with weight h1/2
    and the rows before it through two running sums, so the feedback is
    G0 @ s0 + G1 @ s1 plus a lower-triangular matrix times w[i], and the
    march keeps O(n2 * k) state.
    """
    a = {name: getattr(coeffs, name).values for name in COEFFICIENT_NAMES}
    if not any(np.any(v) for v in a.values()):
        yield from known_rows
        return
    g1, g2 = coeffs.grid.g1, coeffs.grid.g2
    eye = np.eye(g2.n + 1)
    L, _, R = cumulative_integrals(eye, g2.nodes[:, None], g2.h)
    s0 = s1 = 0.0  # the x1 sums of w and a * w without their w[i] terms
    for i, (x, known) in enumerate(zip(g1.nodes, known_rows)):
        r = {name: v[i][:, None] for name, v in a.items()}
        G0 = ((r["a12"] + x * r["a02"]) * eye + (r["a11"] + x * r["a01"]) * L
              + (r["a10"] + x * r["a00"]) * R)
        G1 = -(r["a02"] * eye + r["a01"] * L + r["a00"] * R)
        # The pivots are 1 + (a21 + a11 h1/2) h2/2 + a12 h1/2 (L and R have
        # an empty first row, and R a zero diagonal).
        half = 0.5 * g1.h if i else 0.0
        system = (eye + (r["a21"] + half * r["a11"]) * L + (r["a20"] + half * r["a10"]) * R
                  + (half * r["a12"]) * eye)
        _check_pivots(system, i)
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            w = np.linalg.solve(system, known - G0 @ s0 - G1 @ s1 if i else known)
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
    trace_field = reconstruct_field(gp.traces, GridFn2D.zeros(gp.grid))
    known = gp.rhs.values - lower_order(trace_field, gp.coeffs)
    del trace_field
    w_fn = GridFn2D(gp.grid, np.array(list(march(gp.coeffs, known[:, :, None])))[:, :, 0])
    field = reconstruct_field(gp.traces, w_fn)
    residual = float(np.max(np.abs(apply_operator(field, gp.coeffs).values - gp.rhs.values)))
    return GoursatSolution(w_fn, field, residual)
