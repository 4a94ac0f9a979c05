"""Reconstruction of a function and all nine mixed derivatives from traces.

A function u with D1^i D2^j u integrable for i, j <= 2 (S. L. Sobolev's
isotropic space) is determined on the rectangle by four corner scalars,
four edge derivative traces and the principal mixed derivative
w = D1^2 D2^2 u:

    u(x) = u(0,0) + x1*D1u(0,0) + x2*D2u(0,0) + x1*x2*D1D2u(0,0)
         + int_0^{x1} (x1-a) p(a) da   + x2 * int_0^{x1} (x1-a) g1(a) da
         + int_0^{x2} (x2-b) q(b) db   + x1 * int_0^{x2} (x2-b) g2(b) db
         + int_0^{x1} int_0^{x2} (x1-a)(x2-b) w(a,b) da db,

with p = D1^2 u(.,0), g1 = D1^2 D2 u(.,0), q = D2^2 u(0,.),
g2 = D1 D2^2 u(0,.).  Every term is a tensor product of one factor per
axis, and each factor is one of three kinds, listed by its derivatives of
order 0, 1 and 2 along its axis (the order table):

    the constant                          (1, 0, 0)
    the line                              (x, 1, 0)
    the part whose second derivative is f (R[f], C[f], f)

where C[f] = int_0^x f(t) dt and R[f] = int_0^x (x - t) f(t) dt.  So
D1^i D2^j u is the sum over the terms of (order-i x1 factor) times
(order-j x2 factor); the w term is the third kind applied along x1 and then
along x2.  A factor lists its orders up to its last nonzero one
(``_CONSTANT``, ``line``, ``grid.orders``); the missing ones are zero, and
their products are skipped.  The same table gives ``goursat.march`` its row
kernels and the closure in ``dirichlet`` its unit-trace right-hand sides.

The eight trace terms form the trace part (``trace_part``): the field of
the traces with w = 0, kept as arrays that broadcast against the grid.  It
takes two one-dimensional cumulative-trapezoid sweeps per trace function, 8
in all.
``reconstruct_field`` adds the w term, eight 2D sweeps over w (two along x1
and then two along x2 for each of its three x1 orders), and wraps the nine
sums; a full reconstruction is 16 sweeps, O(n1*n2) work in all.  The
Goursat solver and the closure take their known terms straight from the
trace part.
"""

from __future__ import annotations

import math

from . import expr as ex

# cumtrapz is bound here, unused, because perfbench/tracing.py wraps the
# name ppde.representation.cumtrapz and fails if it is missing.
from .grid import Grid2D, GridFn, NonFiniteError, cumtrapz, orders  # noqa: F401

__all__ = ["TraceSet", "DerivativeField", "line", "trace_part", "reconstruct_field",
           "extract_traces"]

_CONSTANT = (1.0,)


def line(x):
    """Orders 0 and 1 of the line x; its second derivative is zero."""
    return (x, 1.0)


class TraceSet:
    """Corner scalars and edge derivative traces parametrizing u.

    u00, u10, u01, c are u, D1u, D2u, D1D2u at the origin; p and g1 live on
    the x1 grid (D1^2 u and D1^2 D2 u along x2 = 0), q and g2 on the x2
    grid (D2^2 u and D1 D2^2 u along x1 = 0).
    """

    def __init__(self, u00: float, u10: float, u01: float, c: float,
                 p: GridFn, g1: GridFn, q: GridFn, g2: GridFn):
        for name, v in (("u00", u00), ("u10", u10), ("u01", u01), ("c", c)):
            if not math.isfinite(float(v)):
                raise NonFiniteError(f"trace scalar {name} must be finite")
        if p.grid != g1.grid:
            raise ValueError("p and g1 must share the x1 grid")
        if q.grid != g2.grid:
            raise ValueError("q and g2 must share the x2 grid")
        self.u00 = float(u00)
        self.u10 = float(u10)
        self.u01 = float(u01)
        self.c = float(c)
        self.p = p
        self.g1 = g1
        self.q = q
        self.g2 = g2

    @classmethod
    def zeros(cls, grid: Grid2D) -> "TraceSet":
        return cls(0.0, 0.0, 0.0, 0.0,
                   GridFn.zeros(grid.g1), GridFn.zeros(grid.g1),
                   GridFn.zeros(grid.g2), GridFn.zeros(grid.g2))


class DerivativeField:
    """All nine derivative grids D1^i D2^j u, i, j in {0, 1, 2}."""

    def __init__(self, grid: Grid2D, d):
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                fn = d[i][j]
                if fn.grid != grid:
                    raise ValueError(f"derivative grid d[{i}][{j}] does not match the field grid")
                row.append(fn)
            rows.append(tuple(row))
        self.grid = grid
        self.d = tuple(rows)

    @property
    def u(self) -> GridFn:
        return self.d[0][0]

    @property
    def w(self) -> GridFn:
        return self.d[2][2]

    @property
    def values(self) -> list:
        """The nine derivative grids as arrays, values[i][j]."""
        return [[fn.values for fn in row] for row in self.d]


def _trace_terms(t: TraceSet, grid: Grid2D):
    """(scalar, x1 factor, x2 factor) of each of the eight trace terms of u,
    in the order of the module docstring: 8 one-dimensional sweeps."""
    if t.p.grid != grid.g1 or t.q.grid != grid.g2:
        raise ValueError("trace grids do not match the grid")
    line1, line2 = line(grid.g1.nodes[:, None]), line(grid.g2.nodes[None, :])
    p, g1 = (orders(f.values[:, None], grid.g1) for f in (t.p, t.g1))
    q, g2 = (orders(f.values[None, :], grid.g2, axis=1) for f in (t.q, t.g2))
    return (
        (t.u00, _CONSTANT, _CONSTANT), (t.u10, line1, _CONSTANT),
        (t.u01, _CONSTANT, line2), (t.c, line1, line2),
        (1.0, p, _CONSTANT), (1.0, g1, line2), (1.0, _CONSTANT, q), (1.0, line1, g2),
    )


def _trace_entry(terms, i: int, j: int):
    """D1^i D2^j of the trace terms ``terms``: 0 where none has that order."""
    return sum(s * a[i] * b[j] for s, a, b in terms if i < len(a) and j < len(b))


def trace_part(t: TraceSet, grid: Grid2D):
    """D1^i D2^j of the eight trace terms of u, as d[i][j] for i, j in {0, 1, 2}.

    Each entry broadcasts against ``grid.shape``; the trace terms have no
    D1^2 D2^2 part, so d[2][2] is 0.  This is the field of the traces with
    w = 0, computed in 8 one-dimensional sweeps.
    """
    terms = _trace_terms(t, grid)
    return [[_trace_entry(terms, i, j) for j in range(3)] for i in range(3)]


def reconstruct_field(t: TraceSet, w: GridFn) -> DerivativeField:
    """Evaluate u and all nine derivative grids from traces and w.

    Each grid is the trace part plus the w term.  Restricted to the edges
    x2 = 0 / x1 = 0 the derivative grids reproduce the trace inputs
    exactly: the defining integrals are empty there.

    Each trace-part entry is formed only when its output grid is made, and
    each sweep of w is released as soon as its output grid is made.  So the
    memory peaks at the first grid, made while w, its entry of the trace
    part, the two x1 sweeps of w and the two x2 sweeps of the first are
    alive (``grid.cumtrapz`` makes each sweep in its output alone); the
    call ends holding the nine grids alone.  With no live coefficient this
    is where a whole Dirichlet solve peaks: 1.55 MB at n1 = n2 = 128, of
    which the nine grids are 1.20 MB.
    """
    grid = w.grid
    terms = _trace_terms(t, grid)
    w1 = list(orders(w.values, grid.g1))
    d = []
    for i in range(3):
        w2 = list(orders(w1[i], grid.g2, axis=1))
        w1[i] = None
        row = []
        for j in range(3):
            row.append(GridFn(grid, _trace_entry(terms, i, j) + w2[j]))
            w2[j] = None  # each released once its output grid exists
        d.append(row)
    return DerivativeField(grid, d)


def extract_traces(u: ex.Expr, grid: Grid2D) -> tuple[TraceSet, GridFn, DerivativeField]:
    """Sample the traces, w = D1^2 D2^2 u and all nine derivative grids of u.

    Derivatives are taken symbolically, so the returned field is exact at
    the nodes (up to roundoff) and serves as the reference in manufactured
    solution tests.
    """
    d1 = [u]
    for _ in range(2):
        d1.append(ex.differentiate(d1[-1], "x1"))
    d = []
    for i in range(3):
        row = [d1[i]]
        for _ in range(2):
            row.append(ex.differentiate(row[-1], "x2"))
        d.append([ex.sample(e, grid) for e in row])
    field = DerivativeField(grid, d)
    vals = field.values
    traces = TraceSet(
        u00=vals[0][0][0, 0],
        u10=vals[1][0][0, 0],
        u01=vals[0][1][0, 0],
        c=vals[1][1][0, 0],
        p=GridFn(grid.g1, vals[2][0][:, 0]),
        g1=GridFn(grid.g1, vals[2][1][:, 0]),
        q=GridFn(grid.g2, vals[0][2][0, :]),
        g2=GridFn(grid.g2, vals[1][2][0, :]),
    )
    return traces, field.w, field
