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
it only through two running x1 sums, of w and of x1 * w.  Every kernel and
every weight comes from the order tables of the two axes
(``grid.order_table``).  A vanishing diagonal pivot is reported as a
MarchingError naming its node and the margins that make the trapezoid
march singular (``margins``), never silently accepted; a row system
that overflows is a NonFiniteError, whose cause is not the pivot.  The
march checks no row of w: it runs inside its caller's ``grid.stage``, and
each caller rejects a w that is not finite there (``solve_goursat`` makes
w a GridFn, and the closure weighs every entry of w into its
ClosureSystem), so that the failure names the stage.

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

from .grid import GridFn, NonFiniteError, NumericalError, order_tables, stage
from .problem import Coefficients, apply_operator, lower_order
from .representation import DerivativeField, TraceSet, reconstruct_field, trace_part

__all__ = ["GoursatProblem", "GoursatSolution", "MarchingError", "margins", "march",
           "solve_goursat"]

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


class MarchingError(NumericalError):
    """The row march met a vanishing pivot at the march node ``node``."""

    def __init__(self, message: str, node: tuple[int, int]):
        super().__init__(message)
        self.node = node


class GoursatProblem:
    """Traces on the x1 = 0 / x2 = 0 edges, coefficients and right-hand side."""

    def __init__(self, traces: TraceSet, coeffs: Coefficients, rhs: GridFn):
        grid = rhs.grid
        if len(grid.axes) != 2:
            raise ValueError(f"the right-hand side must live on a Grid2D, got {grid!r}")
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

    def __init__(self, w: GridFn, field: DerivativeField, residual: float):
        self.w = w
        self.field = field
        self.residual = residual


def march(coeffs: Coefficients, known_rows, K1, K2, g2_columns=None):
    """Solve (I + A) w = known row by row; yields w[i] for each known[i].

    A = lower_order o reconstruct_field(zero traces, .) is the feedback of
    w on itself.  Each ``known[i]`` has shape (n2+1, k): k right-hand sides
    solved together.  k may grow from one row to the next: the columns
    that join at row i count as zero in every row before it, so their x1
    sums start at row i.  w[i] is written into known[i], which is yielded:
    the caller hands over C-ordered rows it owns.  With every coefficient
    zero, w = known, the rows pass through untouched and the tables are not
    read.

    With zero traces D1^p D2^q u is the w term of the order table: the
    order-p x1 factor of w, then the order-q x2 factor of that.  K1 and K2
    are the order tables (R, C, I) of the two axes (``grid.order_table``).
    Along a row the x2 orders are K2, of int_0^{x2} (x2 - b) db,
    int_0^{x2} db and the identity.  Along x1, order 2 is the row w[i]
    itself, order 1 is C = s0 + C1[i, i] w[i] and order 0 is
    R = x1 C - S = x1 s0 - s1, where s0 and s1 sum C1[k + 1, k] w[k] and
    C1[k + 1, k] x1_k w[k] over the rows k before i, with C1 = K1[1]: each
    row of C1 is a running sum plus its diagonal.  Summing the live terms
    a_pq K2[q] by p gives the row kernels G[p], so the row system is
    I + G[2] + C1[i, i] G[1] with right-hand side known - G[1] s0 - G[0] R,
    taken as known - F s0 + G[0] s1 with the feed matrix F = G[1] + x1 G[0]
    so that the cancelling difference x1 s0 - s1 is never formed.  The row
    system is lower-triangular (K2[q] is), and is solved as such.  The march
    keeps O(n2 * k) state: it holds no row it has yielded, and no row's
    kernels once that row is solved, so a caller that drops each row as it
    comes keeps one row alive.

    The slice ``g2_columns`` names the closure's columns of the unit traces
    g2 = e_m: g2 is the x1 = 0 value of D1 D2^2 u, of field line(x1) K2[., m],
    so their known rows are -F.  They come in as zero; the march subtracts F.

    A vanishing pivot raises MarchingError naming its node and the
    ``margins``, and a row system that is not finite raises
    NonFiniteError.  The march checks no row of w: run it inside a
    ``grid.stage``, where an overflow gives inf or nan without a warning,
    and reject a w that is not finite there.
    """
    live = coeffs.live
    if not live:
        yield from known_rows
        return
    g1, n2 = coeffs.grid.g1, coeffs.grid.g2.n
    C1 = K1[1]
    diagonal = np.diag_indices(n2 + 1)
    solve = _LowerSolver(n2 + 1)
    terms = [[(a, q) for a, (p, q) in live if p == order] for order in range(3)]
    # The x1 sums of w and x1 * w without their w[i] terms; a column that
    # joins the march late has none in the rows before it.
    s0 = s1 = np.zeros((n2 + 1, 0))
    # Rows are taken with next() and w is deleted once yielded: a loop tuple
    # or name would keep the previous row alive while the next is made.
    known_rows = iter(known_rows)
    for i, x in enumerate(g1.nodes):
        G = [_row_kernel(K2, t, i) for t in terms]
        # The pivot at node (i, j) is 1 + (a21 + a11 C1[i, i]) C2[j, j] + a12 C1[i, i],
        # with C2 = K2[1] (R has a zero diagonal).
        system = G[2]
        system[diagonal] += 1.0
        system += C1[i, i] * G[1]
        _check_pivots(system, i, coeffs)
        w = next(known_rows)
        k = s0.shape[1]
        feed = G[1]  # F, in storage the system is done with
        feed += x * G[0]
        if g2_columns is not None:
            w[:, g2_columns] -= feed
        if k:
            w[:, :k] -= feed @ s0
            w[:, :k] += G[0] @ s1
        solve(system, w)
        del G, system, feed
        if i < g1.n:  # the rows after i weigh row i by C1[i + 1, i]
            s0 = _widen(s0, C1[i + 1, i] * w)
            s1 = _widen(s1, (C1[i + 1, i] * x) * w)
        yield w
        del w


def _row_kernel(K, terms, i: int) -> np.ndarray:
    """The sum of a[i][:, None] * K[q] over the (a, q) in terms, in their
    order; zero if there are none.

    K[2] is the identity, so its terms go on the diagonal alone.  The first
    term is stored rather than added to zero, so that its zeros keep their
    signs.
    """
    total = np.zeros(K[0].shape) if not terms or terms[0][1] == 2 else None
    for n, (a, q) in enumerate(terms):
        if q == 2:  # the identity: on the diagonal alone, in place
            np.fill_diagonal(total, np.diagonal(total) + a[i] if n else a[i])
        elif n:
            total += a[i][:, None] * K[q]
        else:
            total = a[i][:, None] * K[q]
    return total


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


def _check_pivots(system: np.ndarray, i: int, coeffs: Coefficients) -> None:
    ok = np.abs(np.diagonal(system)) > _PIVOT_RTOL * np.max(np.abs(system), axis=1)
    if ok.all():
        return
    if not np.all(np.isfinite(system)):  # an overflow, not a small pivot
        raise NonFiniteError("the row systems of the march must be finite")
    j = int(np.argmin(ok))  # the first small pivot
    raise MarchingError(f"vanishing pivot {system[j, j]:.3e} at node ({i}, {j}) of the "
                        f"march; {margins(coeffs)}", (i, j))


def margins(coeffs: Coefficients) -> str:
    """The margins max |a12| h1/(2 n1) and max |a21| h2/(2 n2).  Where a
    dx/2 is 1 the trapezoid rule's amplification factor (1 - a dx/2)/(1 +
    a dx/2) vanishes, which drops columns of theta, and where it is -1 a
    pivot of the march vanishes: either makes a margin 1."""
    g1, g2 = coeffs.grid.axes
    m12 = np.max(np.abs(coeffs.a12.values)) * g1.length / (2 * g1.n)
    m21 = np.max(np.abs(coeffs.a21.values)) * g2.length / (2 * g2.n)
    return (f"max |a12| h1/(2 n1) = {m12:.6g}, max |a21| h2/(2 n2) = {m21:.6g} "
            "(1 makes the trapezoid march singular)")


@stage("Goursat solve")
def solve_goursat(gp: GoursatProblem) -> GoursatSolution:
    """Solve the discrete Volterra equation for w by one march.

    Returns w, the reconstructed field and the sup-norm residual of the
    full operator equation.
    """
    live = gp.coeffs.live  # with none, w = known = rhs: the trace part and tables are unread
    known = gp.rhs.values - (lower_order(trace_part(gp.traces, gp.grid), gp.coeffs)
                             if live else 0.0)
    tables = order_tables(gp.grid) if live else (None, None)
    # The march writes w into known and keeps no row.
    deque(march(gp.coeffs, known[:, :, None], *tables), maxlen=0)
    w_fn = GridFn(gp.grid, known)
    del tables, known  # released before reconstruct_field, where a solve with coefficients peaks
    field = reconstruct_field(gp.traces, w_fn)
    residual = apply_operator(field, gp.coeffs).values - gp.rhs.values
    return GoursatSolution(w_fn, field, float(np.max(np.abs(residual, out=residual))))
