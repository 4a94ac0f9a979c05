"""Uniform tensor-product grids, trapezoid quadrature and Lp / mixed norms.

Everything downstream (boundary-data conversion, the Volterra march, the
verification norms) is built on the composite trapezoid rule over the
equispaced grids defined here, so the exactness classes of that rule
(affine integrands for plain integrals, constant integrands for the
(x - t)-weighted remainder integral) propagate through the whole package.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Grid1D",
    "Grid2D",
    "GridFn1D",
    "GridFn2D",
    "make_grid",
    "cumtrapz",
    "orders",
    "order_table",
    "lp_norm",
    "mixed_norm",
]


class Grid1D:
    """Equispaced grid of ``n`` intervals on the interval [0, length]."""

    def __init__(self, length: float, n: int):
        length = float(length)
        if not math.isfinite(length) or length <= 0.0:
            raise ValueError(f"grid length must be positive and finite, got {length}")
        n = int(n)
        if n < 1:
            raise ValueError(f"number of intervals must be >= 1, got {n}")
        self.length = length
        self.n = n
        self.nodes = np.linspace(0.0, length, n + 1)
        self.h = length / n

    def __eq__(self, other):
        return isinstance(other, Grid1D) and (self.length, self.n) == (other.length, other.n)

    def __hash__(self):
        return hash((self.length, self.n))

    def __repr__(self):
        return f"Grid1D(length={self.length}, n={self.n})"


class Grid2D:
    """Tensor product of two 1D grids; axis 1 is x1, axis 2 is x2."""

    def __init__(self, g1: Grid1D, g2: Grid1D):
        if not isinstance(g1, Grid1D) or not isinstance(g2, Grid1D):
            raise ValueError("Grid2D needs two Grid1D axes")
        self.g1 = g1
        self.g2 = g2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.g1.n + 1, self.g2.n + 1)

    def __eq__(self, other):
        return isinstance(other, Grid2D) and self.g1 == other.g1 and self.g2 == other.g2

    def __hash__(self):
        return hash((self.g1, self.g2))

    def __repr__(self):
        return f"Grid2D({self.g1!r}, {self.g2!r})"


class GridFn1D:
    """Real values attached to the nodes of a Grid1D; ``values`` is a read-only copy."""

    def __init__(self, grid: Grid1D, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n + 1,):
            raise ValueError(f"values shape {values.shape} does not match grid with {grid.n + 1} nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        self.grid = grid
        self.values = values.copy()
        self.values.setflags(write=False)

    @classmethod
    def zeros(cls, grid: Grid1D) -> "GridFn1D":
        return cls(grid, np.zeros(grid.n + 1))


class GridFn2D:
    """Real values on a Grid2D, entry (i, j) at (x1_i, x2_j); ``values`` is a read-only copy."""

    def __init__(self, grid: Grid2D, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        self.grid = grid
        self.values = values.copy()
        self.values.setflags(write=False)

    @classmethod
    def zeros(cls, grid: Grid2D) -> "GridFn2D":
        return cls(grid, np.zeros(grid.shape))


def make_grid(length: float, n: int) -> Grid1D:
    """Build the equispaced grid with nodes i * length / n, i = 0..n."""
    return Grid1D(length, n)


def cumtrapz(values: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Cumulative composite-trapezoid antiderivative along one axis.

    Output has the same shape as ``values``, starts at exactly 0 and is
    exact whenever the integrand is affine between nodes.
    """
    values = np.asarray(values, dtype=float)
    lo = [slice(None)] * values.ndim
    hi = [slice(None)] * values.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    increments = 0.5 * h * (values[tuple(lo)] + values[tuple(hi)])
    out = np.zeros_like(values)
    out[tuple(hi)] = np.cumsum(increments, axis=axis)
    return out


def orders(f, x, h: float, axis: int = 0):
    """Orders 0, 1 and 2 of the part whose second derivative is f: (R[f], C[f], f).

    C[f](x) = int_0^x f(t) dt and the Taylor remainder
    R[f](x) = int_0^x (x - t) f(t) dt = x C[f](x) - int_0^x t f(t) dt, by
    cumulative trapezoid along ``axis``.  ``x`` holds the nodes of that axis,
    shaped to broadcast against ``f``; any other axes of ``f`` are carried
    along.  R and C start at exactly 0; C is exact for affine f and R for
    constant f.
    """
    c = cumtrapz(f, h, axis)
    m = cumtrapz(x * f, h, axis)
    return x * c - m, c, f


def order_table(g: Grid1D) -> np.ndarray:
    """The read-only stack (R, C, I) of orders(I) on g's nodes: table[q] @ f is order q."""
    table = np.array(orders(np.eye(g.n + 1), g.nodes[:, None], g.h))
    table.setflags(write=False)
    return table


def _check_exponent(p) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"norm exponent must be in [1, inf], got {p}")
    return p


def lp_norm(f: GridFn1D | GridFn2D, p) -> float:
    """Discrete L_p norm of a grid function.

    Parameters
    ----------
    f : GridFn1D or GridFn2D
        Grid function to measure.
    p : float
        Exponent in [1, inf].  For finite p the integral is evaluated with
        the (product) trapezoid rule; p = inf returns the exact maximum of
        the absolute node values.
    """
    p = _check_exponent(p)
    if math.isinf(p):
        return float(np.max(np.abs(f.values)))
    a = np.abs(f.values) ** p
    if isinstance(f, GridFn1D):
        total = np.trapezoid(a, dx=f.grid.h)
    else:
        total = np.trapezoid(np.trapezoid(a, dx=f.grid.g2.h, axis=1), dx=f.grid.g1.h)
    return float(total ** (1.0 / p))


def mixed_norm(f: GridFn2D, inner_exponent, outer_exponent) -> float:
    """Mixed-exponent norm: inner norm over x1 per x2 node, outer over x2.

    The inner exponent always pairs with x1 and the outer with x2, i.e.
    the exponent list is read positionally against the variable list
    (x1, x2).  The discrete sup norm is the max over grid nodes.
    """
    pi = _check_exponent(inner_exponent)
    po = _check_exponent(outer_exponent)
    a = np.abs(f.values)
    if math.isinf(pi):
        inner = np.max(a, axis=0)
    else:
        inner = np.trapezoid(a**pi, dx=f.grid.g1.h, axis=0) ** (1.0 / pi)
    if math.isinf(po):
        return float(np.max(inner))
    return float(np.trapezoid(inner**po, dx=f.grid.g2.h) ** (1.0 / po))
