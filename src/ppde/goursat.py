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

A row system is solved as the triangular system it is, by forward
substitution in blocks of about 16 rows: the inverses of a row's diagonal
blocks come from one batched call, and the substitution is then matrix
products.  That costs O(n2^2 k) per row against the O(n2^3 + n2^2 k) of a
general LU solve; for a small row solve, with few nodes and few
right-hand sides, the one LU call is faster and is used instead.  The
solver needs numpy alone.  scipy's triangular solve would be faster per
call, but scipy brings a second BLAS whose threads compete with numpy's:
with the default thread counts on two cores, a four-coefficient solve
took about 1.6 times as long as with numpy's LU solve at n = 64 and 2.3
times at n = 128.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .grid import GridFn2D, order_table
from .problem import Coefficients, apply_operator, lower_order
from .representation import DerivativeField, TraceSet, reconstruct_field, trace_part

__all__ = ["GoursatProblem", "GoursatSolution", "MarchingError", "march", "solve_goursat"]

# A diagonal pivot at most this multiple of its row's largest entry counts as
# zero: the triangular solve would divide by cancellation noise.
_PIVOT_RTOL = 16 * np.finfo(float).eps

# Rows per diagonal block of the blocked triangular row solve.
_BLOCK = 16

# A row solve with m rows and k right-hand sides for which m * (m + 6 k) is
# below this uses one dense LU solve instead: the batched inverse of the
# diagonal blocks costs about as much per block as a small LU solve does in
# all (measured with one BLAS thread; the crossover lies near m = 100 for
# k = 1 and near k = 16 for m = 65).
_DENSE_WORK = 10_000


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


def march(coeffs: Coefficients, known_rows, K, g2_columns=None):
    """Solve (I + A) w = known row by row; yields w[i] for each known[i].

    A = lower_order o reconstruct_field(zero traces, .) is the feedback of
    w on itself.  Each ``known[i]`` has shape (n2+1, k): k right-hand sides
    solved together.  k may grow from one row to the next: the columns
    that join at row i count as zero in every row before it, so their x1
    sums start at row i.  w[i] is written into known[i], which is yielded:
    the caller hands over C-ordered rows it owns.  With every coefficient
    zero, w = known, the rows pass through untouched and K is not read.

    With zero traces D1^p D2^q u is the w term of the order table: the
    order-p x1 factor of w, then the order-q x2 factor of that.  Along a
    row the x2 orders are the caller's K = order_table(g2) = (R, L, I), of
    int_0^{x2} (x2 - b) db, int_0^{x2} db and the identity.  Along x1,
    order 2 is the row w[i] itself, order 1 is C = s0 + (h1/2) w[i] and
    order 0 is R = x1 C - S = x1 s0 - s1, where s0 and s1 are the trapezoid
    sums of w and x1 * w over the rows before i.  Summing the live terms
    a_pq K[q] by p gives the row kernels G[p], so the row system is
    I + G[2] + (h1/2) G[1] with right-hand side known - G[1] s0 - G[0] R,
    taken as known - F s0 + G[0] s1 with the feed matrix F = G[1] + x1 G[0]
    so that the cancelling difference x1 s0 - s1 is never formed.  The row
    system is lower-triangular (K[q] is), and is solved as such.  The march
    keeps O(n2 * k) state.

    The slice ``g2_columns`` names the closure's columns of the unit traces
    g2 = e_m: g2 is the x1 = 0 value of D1 D2^2 u, of field line(x1) K[., m],
    so their known rows are -F.  They come in as zero; the march subtracts F.
    """
    live = coeffs.live
    if not live:
        yield from known_rows
        return
    g1, n2 = coeffs.grid.g1, coeffs.grid.g2.n
    diagonal = np.diag_indices(n2 + 1)
    solve = _LowerSolver(n2 + 1)
    # The x1 sums of w and x1 * w without their w[i] terms; a column that
    # joins the march late has none in the rows before it.
    s0 = s1 = np.zeros((n2 + 1, 0))
    for i, (x, w) in enumerate(zip(g1.nodes, known_rows)):
        G = [_row_kernel(K, [(a[i], q) for a, (p, q) in live if p == order]) for order in range(3)]
        # The pivots are 1 + (a21 + a11 h1/2) h2/2 + a12 h1/2 (L and R have
        # an empty first row, and R a zero diagonal).
        half = 0.5 * g1.h if i else 0.0
        system = G[2]
        system[diagonal] += 1.0
        system += half * G[1]
        _check_pivots(system, i)
        k = s0.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            feed = G[1]  # F, in storage the system is done with
            feed += x * G[0]
            if g2_columns is not None:
                w[:, g2_columns] -= feed
            if k:
                w[:, :k] -= feed @ s0
                w[:, :k] += G[0] @ s1
            solve(system, w)
        if not np.all(np.isfinite(w)):
            raise MarchingError(f"the march produced non-finite values in row {i}")
        weight = g1.h if i else 0.5 * g1.h
        s0 = _widen(s0, weight * w)
        s1 = _widen(s1, (weight * x) * w)
        yield w


def _row_kernel(K, terms) -> np.ndarray:
    """The sum of a[:, None] * K[q] over the (a, q) in terms; zero if there are none.

    K[2] is the identity, so its terms are diagonal.
    """
    total = None
    for a, q in terms:
        term = np.diag(a) if q == 2 else a[:, None] * K[q]
        if total is None:
            total = term
        else:
            total += term
    return np.zeros(K[0].shape) if total is None else total


def _widen(total: np.ndarray, part: np.ndarray) -> np.ndarray:
    """total + part, where total lacks the trailing columns of part (zero there)."""
    part[:, :total.shape[1]] += total
    return part


class _LowerSolver:
    """Solve lower-triangular systems of one size by forward substitution in blocks.

    The rows fall into blocks of at most 2 * _BLOCK - 1 rows.  A call
    inverts the diagonal blocks together, in one batched call (padded with
    the identity to one size), then multiplies each block of rows of the
    right-hand side, less the product with the rows above it, by the
    inverse of its diagonal block.
    """

    def __init__(self, m: int):
        count = max(1, m // _BLOCK)
        edges = [j * m // count for j in range(count + 1)]
        self.spans = list(zip(edges, edges[1:]))
        # The last block is the largest; the others keep their identity padding.
        self.blocks = np.tile(np.eye(m - edges[-2]), (count, 1, 1))

    def __call__(self, system: np.ndarray, b: np.ndarray) -> None:
        """Overwrite b with the solution w of system @ w = b."""
        m, k = b.shape
        if m * (m + 6 * k) < _DENSE_WORK:
            b[...] = np.linalg.solve(system, b)
            return
        for block, (s, e) in zip(self.blocks, self.spans):
            block[:e - s, :e - s] = system[s:e, s:e]
        for inverse, (s, e) in zip(np.linalg.inv(self.blocks), self.spans):
            if s:
                b[s:e] -= system[s:e, :s] @ b[:s]
            b[s:e] = inverse[:e - s, :e - s] @ b[s:e]


def _check_pivots(system: np.ndarray, i: int) -> None:
    pivots = np.abs(np.diagonal(system))
    small = np.flatnonzero(~(pivots > _PIVOT_RTOL * np.max(np.abs(system), axis=1)))
    if small.size:
        j = int(small[0])
        raise MarchingError(f"vanishing pivot {system[j, j]:.3e} at node ({i}, {j}) of the march")


def solve_goursat(gp: GoursatProblem) -> GoursatSolution:
    """Solve the discrete Volterra equation for w by one march.

    Returns w, the reconstructed field and the sup-norm residual of the
    full operator equation.
    """
    known = gp.rhs.values - lower_order(trace_part(gp.traces, gp.grid), gp.coeffs)
    K = order_table(gp.grid.g2) if gp.coeffs.live else None  # unread when w = known
    deque(march(gp.coeffs, known[:, :, None], K), maxlen=0)  # writes w into known, keeps no row
    w_fn = GridFn2D(gp.grid, known)
    del K, known  # released before reconstruct_field, where a solve with coefficients peaks
    field = reconstruct_field(gp.traces, w_fn)
    residual = float(np.max(np.abs(apply_operator(field, gp.coeffs).values - gp.rhs.values)))
    return GoursatSolution(w_fn, field, residual)
