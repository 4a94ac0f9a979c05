"""Reconstruction of a function and all nine mixed derivatives from traces.

A function u with D1^i D2^j u integrable for i, j <= 2 is determined on the
rectangle by four corner scalars, four edge derivative traces and the
principal mixed derivative w = D1^2 D2^2 u:

    u(x) = u(0,0) + x1*D1u(0,0) + x2*D2u(0,0) + x1*x2*D1D2u(0,0)
         + int_0^{x1} (x1-a) p(a) da   + x2 * int_0^{x1} (x1-a) g1(a) da
         + int_0^{x2} (x2-b) q(b) db   + x1 * int_0^{x2} (x2-b) g2(b) db
         + int_0^{x1} int_0^{x2} (x1-a)(x2-b) w(a,b) da db,

with p = D1^2 u(.,0), g1 = D1^2 D2 u(.,0), q = D2^2 u(0,.),
g2 = D1 D2^2 u(0,.).  Differentiating under the integral signs gives the
remaining eight derivative grids; the formulas appear inline below.

The double integral is expanded through its four separable moments
(x1-a)(x2-b) = x1*x2 - x1*b - x2*a + a*b.  A full reconstruction takes 18
cumulative-trapezoid sweeps, O(n1*n2) work in all: two 1D sweeps per trace
function (8) and ten 2D sweeps over w, namely two per one-variable partial
integral, one each to finish the moments of w and a*w from their x1
partial sums, and two each for the moments of b*w and a*b*w.
"""

from __future__ import annotations

import math

from . import expr as ex
from .grid import Grid2D, GridFn1D, GridFn2D, cumtrapz, cumulative_integrals

__all__ = ["TraceSet", "DerivativeField", "reconstruct_field", "extract_traces"]


class TraceSet:
    """Corner scalars and edge derivative traces parametrizing u.

    u00, u10, u01, c are u, D1u, D2u, D1D2u at the origin; p and g1 live on
    the x1 grid (D1^2 u and D1^2 D2 u along x2 = 0), q and g2 on the x2
    grid (D2^2 u and D1 D2^2 u along x1 = 0).
    """

    def __init__(self, u00: float, u10: float, u01: float, c: float,
                 p: GridFn1D, g1: GridFn1D, q: GridFn1D, g2: GridFn1D):
        for name, v in (("u00", u00), ("u10", u10), ("u01", u01), ("c", c)):
            if not math.isfinite(float(v)):
                raise ValueError(f"trace scalar {name} must be finite")
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
                   GridFn1D.zeros(grid.g1), GridFn1D.zeros(grid.g1),
                   GridFn1D.zeros(grid.g2), GridFn1D.zeros(grid.g2))


class DerivativeField:
    """All nine derivative grids D1^i D2^j u, i, j in {0, 1, 2}."""

    def __init__(self, grid: Grid2D, d):
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                fn = d[i][j]
                if not isinstance(fn, GridFn2D) or fn.grid != grid:
                    raise ValueError(f"derivative grid d[{i}][{j}] does not match the field grid")
                row.append(fn)
            rows.append(tuple(row))
        self.grid = grid
        self.d = tuple(rows)

    @property
    def u(self) -> GridFn2D:
        return self.d[0][0]

    @property
    def w(self) -> GridFn2D:
        return self.d[2][2]


def _axes(grid: Grid2D):
    return grid.g1.nodes[:, None], grid.g2.nodes[None, :]


def reconstruct_field(t: TraceSet, w: GridFn2D) -> DerivativeField:
    """Evaluate u and all nine derivative grids from traces and w.

    Restricted to the edges x2 = 0 / x1 = 0 the derivative grids reproduce
    the trace inputs exactly: the defining integrals are empty there.
    """
    grid = w.grid
    if t.p.grid != grid.g1 or t.q.grid != grid.g2:
        raise ValueError("trace grids do not match the grid of w")
    X1, X2 = _axes(grid)
    h1, h2 = grid.g1.h, grid.g2.h
    W = w.values

    # 1D trace integrals: C* are plain cumulatives, T* are (x - t)-weighted.
    x1n, x2n = grid.g1.nodes, grid.g2.nodes
    Cp, _, Tp = cumulative_integrals(t.p.values, x1n, h1)
    Cg1, _, Tg1 = cumulative_integrals(t.g1.values, x1n, h1)
    Cq, _, Tq = cumulative_integrals(t.q.values, x2n, h2)
    Cg2, _, Tg2 = cumulative_integrals(t.g2.values, x2n, h2)

    # Partial integrals of w in one variable at a time:
    # C1w = int_0^{x1} w(a, x2) da, T1w = int_0^{x1} (x1-a) w(a, x2) da,
    # C2w, T2w likewise over b in [0, x2].
    C1w, S1w, T1w = cumulative_integrals(W, X1, h1, axis=0)
    C2w, S2w, T2w = cumulative_integrals(W, X2, h2, axis=1)

    # Cumulative 2D moments of w over [0,x1] x [0,x2]; M00 and M10 finish
    # the x1 sums of w and a*w taken above.
    M00 = cumtrapz(C1w, h2, axis=1)
    M10 = cumtrapz(S1w, h2, axis=1)
    del S1w, S2w  # two fewer live grids while the outputs are built
    M01 = cumtrapz(cumtrapz(X2 * W, h1, axis=0), h2, axis=1)
    M11 = cumtrapz(cumtrapz(X1 * X2 * W, h1, axis=0), h2, axis=1)
    double = X1 * X2 * M00 - X1 * M01 - X2 * M10 + M11

    pc = t.p.values[:, None]
    g1c = t.g1.values[:, None]
    qr = t.q.values[None, :]
    g2r = t.g2.values[None, :]

    # u = u00 + x1 u10 + x2 u01 + x1 x2 c + T[p] + x2 T[g1] + T[q] + x1 T[g2] + double
    d00 = (t.u00 + X1 * t.u10 + X2 * t.u01 + X1 * X2 * t.c
           + Tp[:, None] + X2 * Tg1[:, None] + Tq[None, :] + X1 * Tg2[None, :] + double)
    # D1 u = u10 + x2 c + C[p] + x2 C[g1] + T[g2] + int (x2-b) w over the rectangle
    d10 = (t.u10 + X2 * t.c + Cp[:, None] + X2 * Cg1[:, None] + Tg2[None, :]
           + (X2 * M00 - M01))
    # D2 u = u01 + x1 c + T[g1] + C[q] + x1 C[g2] + int (x1-a) w over the rectangle
    d01 = (t.u01 + X1 * t.c + Tg1[:, None] + Cq[None, :] + X1 * Cg2[None, :]
           + (X1 * M00 - M10))
    # D1 D2 u = c + C[g1] + C[g2] + int int w
    d11 = t.c + Cg1[:, None] + Cg2[None, :] + M00
    # D1^2 u = p(x1) + x2 g1(x1) + int_0^{x2} (x2-b) w(x1, b) db
    d20 = pc + X2 * g1c + T2w
    # D1^2 D2 u = g1(x1) + int_0^{x2} w(x1, b) db
    d21 = g1c + C2w
    # D2^2 u = q(x2) + x1 g2(x2) + int_0^{x1} (x1-a) w(a, x2) da
    d02 = qr + X1 * g2r + T1w
    # D1 D2^2 u = g2(x2) + int_0^{x1} w(a, x2) da
    d12 = g2r + C1w

    arrays = [[d00, d01, d02], [d10, d11, d12], [d20, d21, W]]
    wrapped = [[GridFn2D(grid, arrays[i][j]) for j in range(3)] for i in range(3)]
    return DerivativeField(grid, wrapped)


def extract_traces(u: ex.Expr, grid: Grid2D) -> tuple[TraceSet, GridFn2D, DerivativeField]:
    """Sample the traces, w = D1^2 D2^2 u and all nine derivative grids of u.

    Derivatives are taken symbolically, so the returned field is exact at
    the nodes (up to roundoff) and serves as the reference in manufactured
    solution tests.
    """
    X1, X2 = _axes(grid)
    shape = grid.shape

    d1 = [u]
    for _ in range(2):
        d1.append(ex.differentiate(d1[-1], "x1"))
    sym = []
    for i in range(3):
        row = [d1[i]]
        for _ in range(2):
            row.append(ex.differentiate(row[-1], "x2"))
        sym.append(row)

    vals = [[ex.sample(sym[i][j], X1, X2, shape) for j in range(3)] for i in range(3)]
    field = DerivativeField(
        grid, [[GridFn2D(grid, vals[i][j]) for j in range(3)] for i in range(3)]
    )
    traces = TraceSet(
        u00=vals[0][0][0, 0],
        u10=vals[1][0][0, 0],
        u01=vals[0][1][0, 0],
        c=vals[1][1][0, 0],
        p=GridFn1D(grid.g1, vals[2][0][:, 0]),
        g1=GridFn1D(grid.g1, vals[2][1][:, 0]),
        q=GridFn1D(grid.g2, vals[0][2][0, :]),
        g2=GridFn1D(grid.g2, vals[1][2][0, :]),
    )
    return traces, GridFn2D(grid, vals[2][2]), field
