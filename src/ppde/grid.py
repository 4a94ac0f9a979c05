"""Uniform tensor-product grids, trapezoid quadrature and Lp / mixed norms.

A grid is a Grid1D (an edge) or a Grid2D (the rectangle), and a grid
function on either is a GridFn: the one grid-function type, so that only
this module asks which of the two grids a function lives on.

Everything downstream (boundary-data conversion, the Volterra march, the
verification norms) is built on the composite trapezoid rule over the
equispaced grids defined here, so the exactness classes of that rule
(affine integrands for plain integrals, constant integrands for the
(x - t)-weighted remainder integral) propagate through the whole package.

It also holds the package's rule for values that are not finite: every
object that must hold finite values rejects others with NonFiniteError, a
ValueError about its input; inside a ``stage`` of a solve or a check the
same fault is a NumericalError naming the stage, and so is every other
numerical failure there.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = [
    "NonFiniteError",
    "NumericalError",
    "stage",
    "Grid1D",
    "Grid2D",
    "GridFn",
    "GridFn1D",
    "GridFn2D",
    "make_grid",
    "cumtrapz",
    "orders",
    "order_table",
    "order_tables",
    "scaled_norm",
    "lp_norm",
    "mixed_norm",
]


class NonFiniteError(ValueError):
    """The values an object is made of are not all finite."""


class NumericalError(np.linalg.LinAlgError):
    """A stage of a solve or a check produced values that are not finite,
    met a vanishing pivot or found its closure rank-deficient."""


@contextlib.contextmanager
def stage(name: str):
    """Run one stage of a solve or a check, named ``name`` in its errors.

    This is the one place that names a failed stage.  An overflow inside
    gives inf or nan without a numpy warning, and the object made of them
    raises NonFiniteError, which leaves the stage as NumericalError "<name>
    produced non-finite values".  Any other numpy.linalg.LinAlgError, such
    as a vanishing pivot (MarchingError) or numpy's own, leaves with its
    type and attributes and the message "<name>: <message>".  Inputs are
    made outside any stage, so a non-finite input stays a ValueError about
    it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            yield
        except NonFiniteError as err:
            raise NumericalError(f"{name} produced non-finite values") from err
        except np.linalg.LinAlgError as err:
            err.args = (f"{name}: {err}",)
            raise


# The most float64 nodes whose byte count numpy can state (as an intp).
_MAX_NODES = np.iinfo(np.intp).max // np.dtype(float).itemsize


class Grid1D:
    """Equispaced grid of ``n`` intervals on the interval [0, length], with
    nodes i * length / n, i = 0..n.  ``n`` is a whole number: an integer of
    Python or numpy, or a float such as 4.0."""

    def __init__(self, length: float, n: int):
        length = float(length)
        if not math.isfinite(length) or length <= 0.0:
            raise ValueError(f"grid length must be positive and finite, got {length}")
        if not isinstance(n, (int, np.integer)) and not float(n).is_integer():
            raise ValueError(f"number of intervals must be a whole number, got {n}")
        n = int(n)
        if n < 1:
            raise ValueError(f"number of intervals must be >= 1, got {n}")
        if n >= _MAX_NODES:
            raise ValueError(f"number of intervals is too large for an array of nodes, got {n}")
        self.length = length
        self.n = n
        self.nodes = np.linspace(0.0, length, n + 1)
        self.h = length / n
        self.shape = (n + 1,)

    @property
    def axes(self) -> tuple[Grid1D]:
        # A property, not an attribute: a grid that held itself would be a
        # reference cycle, freed by the cyclic garbage collector alone.
        return (self,)

    @property
    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """x1 and x2 at the nodes: both the node coordinate, so that an edge
        function may be written in either variable."""
        return self.nodes, self.nodes

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
        self.axes = (g1, g2)
        self.shape = (g1.n + 1, g2.n + 1)
        # x1 and x2 at the nodes, as a column and a row that broadcast to shape
        self.coordinates = (g1.nodes[:, None], g2.nodes[None, :])

    def __eq__(self, other):
        return isinstance(other, Grid2D) and self.g1 == other.g1 and self.g2 == other.g2

    def __hash__(self):
        return hash((self.g1, self.g2))

    def __repr__(self):
        return f"Grid2D({self.g1!r}, {self.g2!r})"


class GridFn:
    """Real values on the nodes of a Grid1D or a Grid2D, entry (i, j) at
    (x1_i, x2_j) on a Grid2D; ``values`` is a read-only copy, which must be
    finite and of the grid's shape."""

    def __init__(self, grid: Grid1D | Grid2D, values):
        if not isinstance(grid, (Grid1D, Grid2D)):
            raise ValueError(f"grid must be a Grid1D or a Grid2D, got {type(grid).__name__}")
        values = np.array(values, dtype=float, order="C")
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} does not match grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise NonFiniteError("grid function values must be finite")
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: Grid1D | Grid2D) -> GridFn:
        return cls(grid, np.zeros(grid.shape))


GridFn1D = GridFn2D = GridFn  # other names of the one type, kept for code that imports them

make_grid = Grid1D  # the public name of the grid constructor


def cumtrapz(values: np.ndarray, g: Grid1D, axis: int = 0) -> np.ndarray:
    """Cumulative composite-trapezoid antiderivative along one axis, whose
    nodes are those of the axis grid g.

    Output has the same shape as ``values``, starts at exactly 0 and is
    exact whenever the integrand is affine between nodes.  With
    ``_integral`` this is the trapezoid rule: the two are the only readers
    of the spacing.
    """
    values = np.asarray(values, dtype=float)
    head, lo, hi = ([slice(None)] * values.ndim for _ in range(3))
    head[axis], lo[axis], hi[axis] = 0, slice(None, -1), slice(1, None)
    out = np.empty_like(values)
    out[tuple(head)] = 0.0
    # The increments and then their running sum, written in place.
    tail = out[tuple(hi)]
    np.add(values[tuple(lo)], values[tuple(hi)], out=tail)
    tail *= 0.5 * g.h
    np.cumsum(tail, axis=axis, out=tail)
    return out


def _integral(values: np.ndarray, g: Grid1D, axis: int = -1) -> np.ndarray:
    """Composite-trapezoid integral along one whole axis, whose nodes are
    those of the axis grid g; the axis is dropped."""
    return np.trapezoid(values, dx=g.h, axis=axis)


def orders(f, g: Grid1D, axis: int = 0):
    """Orders 0, 1 and 2 of the part whose second derivative is f: (R[f], C[f], f).

    C[f](x) = int_0^x f(t) dt and the Taylor remainder
    R[f](x) = int_0^x (x - t) f(t) dt = x C[f](x) - int_0^x t f(t) dt, by
    cumulative trapezoid along ``axis`` of f, which holds the nodes of the
    axis grid g; any other axes of ``f`` are carried along.  R and C start
    at exactly 0; C is exact for affine f and R for constant f.
    """
    x = g.nodes.reshape([-1 if k == axis else 1 for k in range(np.ndim(f))])
    c = cumtrapz(f, g, axis)
    m = cumtrapz(x * f, g, axis)
    return x * c - m, c, f


def order_table(g: Grid1D) -> np.ndarray:
    """The read-only stack (R, C, I) of orders(I) on g's nodes: table[q] @ f is order q.

    Each row of C is a running sum plus a diagonal, C[i, k] == C[k + 1, k]
    for every i > k: ``goursat.march`` reads its x1 weights from C so, and a
    rule that breaks this must change the march too.
    """
    table = np.array(orders(np.eye(g.n + 1), g))
    table.setflags(write=False)
    return table


def order_tables(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """The order tables of the x1 and the x2 axis: one table for both on equal axes."""
    table = order_table(grid.g1)
    return table, (table if grid.g2 == grid.g1 else order_table(grid.g2))


def _check_exponent(p) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"norm exponent must be in [1, inf], got {p}")
    return p


def scaled_norm(norm, a) -> float:
    """``norm(a)`` for a positively homogeneous norm of the finite array a,
    or, where that overflows, max |a| times ``norm(a / max |a|)``."""
    with np.errstate(over="ignore"):
        value = float(norm(a))
        if math.isinf(value):
            scale = np.max(np.abs(a))
            value = float(scale * norm(a / scale))
    return value


def lp_norm(f: GridFn, p) -> float:
    """Discrete L_p norm of a grid function.

    Parameters
    ----------
    f : GridFn
        Grid function on a Grid1D or a Grid2D.
    p : float
        Exponent in [1, inf].  For finite p the integral is evaluated with
        the (product) trapezoid rule; p = inf returns the exact maximum of
        the absolute node values.  A norm whose integral overflows is
        taken from the grid scaled by its maximum (``scaled_norm``).
    """
    p = _check_exponent(p)
    a = np.abs(f.values)
    if math.isinf(p):
        return float(np.max(a))

    def norm(v):
        v = v**p
        for g in reversed(f.grid.axes):  # the last axis first: the tests pin this order
            v = _integral(v, g)
        return v ** (1.0 / p)
    return scaled_norm(norm, a)


def mixed_norm(f: GridFn, inner_exponent, outer_exponent) -> float:
    """Mixed-exponent norm: inner norm over x1 per x2 node, outer over x2.

    The inner exponent always pairs with x1 and the outer with x2, i.e.
    the exponent list is read positionally against the variable list
    (x1, x2).  The discrete sup norm is the max over grid nodes.  A norm
    that overflows is taken as ``lp_norm``'s is.
    """
    if len(f.grid.axes) != 2:
        raise ValueError(f"mixed_norm needs a grid function on a Grid2D, got one on {f.grid!r}")
    pi = _check_exponent(inner_exponent)
    po = _check_exponent(outer_exponent)

    def norm(v):
        if math.isinf(pi):
            inner = np.max(v, axis=0)
        else:
            inner = _integral(v**pi, f.grid.g1, axis=0) ** (1.0 / pi)
        if math.isinf(po):
            return np.max(inner)
        return _integral(inner**po, f.grid.g2) ** (1.0 / po)
    return scaled_norm(norm, np.abs(f.values))
