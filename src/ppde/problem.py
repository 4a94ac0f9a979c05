"""Coefficients, boundary data in both formulations, and their converters.

The operator under study is

    (Vu)(x) = D1^2 D2^2 u + a21 D1^2 D2 u + a12 D1 D2^2 u
            + a20 D1^2 u + a02 D2^2 u
            + a11 D1 D2 u + a10 D1 u + a01 D2 u + a00 u.

Classical Dirichlet data prescribes u on the four edges through functions
phi1, psi1, phi2, psi2 (edges x1 = 0, x2 = 0, x1 = h1, x2 = h2); these must
satisfy four corner agreement equalities.  The non-classical data instead
prescribes corner values, corner first derivatives and second-derivative
edge traces, which are free of agreement constraints.  Each boundary
function is stored as the triple (value at 0, first derivative at 0,
second derivative grid); evaluating it uses the Taylor identity

    f(x) = f(0) + x f'(0) + int_0^x (x - t) f''(t) dt.

The two formulations are equivalent: the table ``CLASSICAL`` names the
three non-classical data that make up each classical triple, and both
converters read it, so conversion is an exact repackaging.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .grid import Grid1D, Grid2D, GridFn1D, GridFn2D, orders
from .representation import DerivativeField

__all__ = [
    "ALL_NODES",
    "CLASSICAL",
    "COEFFICIENT_NAMES",
    "CONDITIONS",
    "Coefficients",
    "BoundaryFn",
    "ClassicalData",
    "NonClassicalData",
    "AgreementReport",
    "CompatibilityReport",
    "boundary_values",
    "check_agreement",
    "classical_to_nonclassical",
    "nonclassical_to_classical",
    "check_compatibility",
    "condition_values",
    "apply_operator",
    "lower_order",
]

# Each coefficient a_ij multiplies D1^i D2^j u; operator terms are summed in
# this order.
_TERMS = {
    "a21": (2, 1), "a12": (1, 2), "a20": (2, 0), "a02": (0, 2),
    "a11": (1, 1), "a10": (1, 0), "a01": (0, 1), "a00": (0, 0),
}
COEFFICIENT_NAMES = tuple(_TERMS)


class Coefficients:
    """The eight variable coefficients of the operator, sampled on one grid.

    ``live``: the (values, (i, j)) of each nonzero coefficient, in summation order.
    """

    def __init__(self, a21, a12, a20, a02, a11, a10, a01, a00):
        fns = (a21, a12, a20, a02, a11, a10, a01, a00)
        grid = fns[0].grid
        for name, fn in zip(COEFFICIENT_NAMES, fns):
            if not isinstance(fn, GridFn2D) or fn.grid != grid:
                raise ValueError(f"coefficient {name} must be a GridFn2D on the shared grid")
        (self.a21, self.a12, self.a20, self.a02,
         self.a11, self.a10, self.a01, self.a00) = fns
        self.grid = grid
        self.live = tuple((f.values, ij) for f, ij in zip(fns, _TERMS.values()) if np.any(f.values))

    @classmethod
    def zeros(cls, grid: Grid2D) -> "Coefficients":
        return cls(*[GridFn2D.zeros(grid)] * len(COEFFICIENT_NAMES))

    @classmethod
    def from_exprs(cls, grid: Grid2D, exprs: dict) -> "Coefficients":
        """Sample coefficients from expressions; missing names share one zero grid."""
        unknown = set(exprs) - set(COEFFICIENT_NAMES)
        if unknown:
            raise ValueError(f"unknown coefficient names: {sorted(unknown)}")
        X1 = grid.g1.nodes[:, None]
        X2 = grid.g2.nodes[None, :]
        fns = dict.fromkeys(COEFFICIENT_NAMES, GridFn2D.zeros(grid))
        for name in COEFFICIENT_NAMES:
            e = exprs.get(name)
            if e is not None:
                if isinstance(e, str):
                    e = ex.parse(e)
                try:
                    fns[name] = GridFn2D(grid, ex.sample(e, X1, X2, grid.shape))
                except ValueError as err:
                    raise ValueError(f"coefficient {name}: {err}") from err
        return cls(**fns)


class BoundaryFn:
    """One boundary function in Taylor form: value and slope at 0 plus f''."""

    def __init__(self, v0: float, v1: float, v2: GridFn1D):
        if not (math.isfinite(float(v0)) and math.isfinite(float(v1))):
            raise ValueError("boundary values v0, v1 must be finite")
        self.v0 = float(v0)
        self.v1 = float(v1)
        self.v2 = v2

    @classmethod
    def from_expr(cls, e, grid: Grid1D, var: str) -> "BoundaryFn":
        """Build the triple from a univariate expression in ``var`` exactly."""
        if isinstance(e, str):
            e = ex.parse(e)
        d1 = ex.differentiate(e, var)
        d2 = ex.differentiate(d1, var)

        def at(expr_node, x):
            if var == "x1":
                return ex.evaluate(expr_node, x, 0.0)
            return ex.evaluate(expr_node, 0.0, x)

        v2 = np.broadcast_to(np.asarray(at(d2, grid.nodes), dtype=float), grid.nodes.shape)
        return cls(float(at(e, 0.0)), float(at(d1, 0.0)), GridFn1D(grid, v2))

    @classmethod
    def from_samples(cls, grid: Grid1D, values) -> "BoundaryFn":
        """Build the triple from node samples by second-order differences."""
        f = np.asarray(values, dtype=float)
        if f.shape != (grid.n + 1,):
            raise ValueError("samples must cover every grid node")
        if grid.n < 3:
            raise ValueError("second differences need at least 3 intervals")
        h = grid.h
        v1 = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
        d2 = np.empty_like(f)
        d2[1:-1] = (f[:-2] - 2.0 * f[1:-1] + f[2:]) / h**2
        d2[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2
        d2[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h**2
        return cls(f[0], v1, GridFn1D(grid, d2))


class ClassicalData:
    """Dirichlet boundary functions: phi's along x2, psi's along x1."""

    def __init__(self, phi1: BoundaryFn, phi2: BoundaryFn,
                 psi1: BoundaryFn, psi2: BoundaryFn):
        if phi1.v2.grid != phi2.v2.grid:
            raise ValueError("phi1 and phi2 must share the x2 grid")
        if psi1.v2.grid != psi2.v2.grid:
            raise ValueError("psi1 and psi2 must share the x1 grid")
        self.phi1 = phi1
        self.phi2 = phi2
        self.psi1 = psi1
        self.psi2 = psi2


# Where each of the eleven non-classical conditions sits: condition name ->
# ((i, j), (x1 node, x2 node)).  The condition prescribes D1^i D2^j u at that
# node; index -1 is the far end of an axis and ALL_NODES every node of it.
ALL_NODES = slice(None)
CONDITIONS = {
    "z00": ((0, 0), (0, 0)),
    "z10": ((1, 0), (0, 0)),
    "z01": ((0, 1), (0, 0)),
    "z00_h1": ((0, 0), (-1, 0)),
    "z01_h1": ((0, 1), (-1, 0)),
    "z00_h2": ((0, 0), (0, -1)),
    "z10_h2": ((1, 0), (0, -1)),
    "z20": ((2, 0), (ALL_NODES, 0)),
    "z20_h2": ((2, 0), (ALL_NODES, -1)),
    "z02": ((0, 2), (0, ALL_NODES)),
    "z02_h1": ((0, 2), (-1, ALL_NODES)),
}


def condition_values(d, shape) -> dict:
    """D1^i D2^j u at the node(s) of each condition, read off the arrays d[i][j].

    Each d[i][j] broadcasts against ``shape``.  A value is a scalar for the
    corner conditions and the node values along the edge for the others.
    """
    full = [[a if np.shape(a) == shape else np.broadcast_to(a, shape) for a in row] for row in d]
    return {name: full[i][j][node] for name, ((i, j), node) in CONDITIONS.items()}


class NonClassicalData:
    """Right-hand sides of the non-classical boundary conditions.

    Each one prescribes a derivative of u at a corner (the scalars) or
    along an edge (the edge functions, on the x1 grid for X1_FUNCTIONS and
    on the x2 grid for X2_FUNCTIONS); ``CONDITIONS`` says which derivative
    and where.
    """

    SCALARS = ("z00", "z10", "z01", "z00_h1", "z01_h1", "z00_h2", "z10_h2")
    X1_FUNCTIONS = ("z20", "z20_h2")
    X2_FUNCTIONS = ("z02", "z02_h1")

    def __init__(self, z00, z10, z01, z00_h1, z01_h1, z00_h2, z10_h2,
                 z20: GridFn1D, z02: GridFn1D, z20_h2: GridFn1D, z02_h1: GridFn1D):
        for name, v in zip(self.SCALARS, (z00, z10, z01, z00_h1, z01_h1, z00_h2, z10_h2)):
            if not math.isfinite(float(v)):
                raise ValueError(f"scalar {name} must be finite")
        if z20.grid != z20_h2.grid:
            raise ValueError("z20 and z20_h2 must share the x1 grid")
        if z02.grid != z02_h1.grid:
            raise ValueError("z02 and z02_h1 must share the x2 grid")
        self.z00 = float(z00)
        self.z10 = float(z10)
        self.z01 = float(z01)
        self.z00_h1 = float(z00_h1)
        self.z01_h1 = float(z01_h1)
        self.z00_h2 = float(z00_h2)
        self.z10_h2 = float(z10_h2)
        self.z20 = z20
        self.z02 = z02
        self.z20_h2 = z20_h2
        self.z02_h1 = z02_h1

    @classmethod
    def edge_grids(cls, grid: Grid2D) -> dict:
        """The axis grid of each edge function, X1_FUNCTIONS then X2_FUNCTIONS."""
        return {**dict.fromkeys(cls.X1_FUNCTIONS, grid.g1), **dict.fromkeys(cls.X2_FUNCTIONS, grid.g2)}

    @classmethod
    def zeros(cls, grid: Grid2D) -> "NonClassicalData":
        return cls(**dict.fromkeys(cls.SCALARS, 0.0),
                   **{name: GridFn1D.zeros(g) for name, g in cls.edge_grids(grid).items()})

    @classmethod
    def from_field(cls, field: DerivativeField) -> "NonClassicalData":
        """The data that the field meets exactly, read off at the nodes of CONDITIONS."""
        v = condition_values(field.values, field.grid.shape)
        return cls(**{name: v[name] for name in cls.SCALARS},
                   **{name: GridFn1D(g, v[name]) for name, g in cls.edge_grids(field.grid).items()})

    def value(self, name: str):
        """Right-hand side of one condition: a float, or the edge function's node values."""
        v = getattr(self, name)
        return v if name in self.SCALARS else v.values


# The equivalence of the two formulations: each classical edge function is
# the Taylor triple (value at 0, slope at 0, second derivative) of three
# non-classical data.  CONDITIONS puts the first two at the start of the
# function's edge and the third along it, with orders 0, 1 and 2 along the
# function's axis: x2 for a phi, x1 for a psi.  z00 is in two triples; the
# first, phi1, is the one it is read from.
CLASSICAL = {
    "phi1": ("z00", "z01", "z02"),
    "phi2": ("z00_h1", "z01_h1", "z02_h1"),
    "psi1": ("z00", "z10", "z20"),
    "psi2": ("z00_h2", "z10_h2", "z20_h2"),
}


class _Residuals:
    """Signed residuals, one per dataclass field; ``dataclasses.asdict`` names them."""

    def max_abs(self) -> float:
        return max(abs(value) for value in dataclasses.asdict(self).values())


@dataclass(frozen=True)
class AgreementReport(_Residuals):
    """Signed residuals of the four corner agreement equalities."""

    r1: float  # phi1(0)  - psi1(0)
    r2: float  # phi2(h2) - psi2(h1)
    r3: float  # phi1(h2) - psi2(0)
    r4: float  # phi2(0)  - psi1(h1)


@dataclass(frozen=True)
class CompatibilityReport(_Residuals):
    """Corner Taylor-identity residuals of non-classical data.

    rho1 checks u(h1,0) against the x2 = 0 edge data, rho2 checks u(0,h2)
    against the x1 = 0 edge data, and rho3 compares the two available
    expressions for u(h1,h2).  All three vanish whenever the data are the
    traces of a single admissible u.
    """

    rho1: float
    rho2: float
    rho3: float


def boundary_values(f: BoundaryFn) -> GridFn1D:
    """Evaluate the Taylor form v0 + x v1 + int_0^x (x - t) v2(t) dt."""
    x = f.v2.grid.nodes
    rem = orders(f.v2.values, x, f.v2.grid.h)[0]
    return GridFn1D(f.v2.grid, f.v0 + x * f.v1 + rem)


def _far_ends(d: ClassicalData) -> tuple[float, float, float, float]:
    """phi1(h2), phi2(h2), psi1(h1), psi2(h1); the values at 0 are the v0's."""
    return tuple(float(boundary_values(f).values[-1]) for f in (d.phi1, d.phi2, d.psi1, d.psi2))


def check_agreement(d: ClassicalData) -> AgreementReport:
    """Evaluate the four corner agreement residuals of classical data."""
    phi1, phi2, psi1, psi2 = _far_ends(d)
    return AgreementReport(
        r1=d.phi1.v0 - d.psi1.v0,
        r2=phi2 - psi2,
        r3=phi1 - d.psi2.v0,
        r4=d.phi2.v0 - psi1,
    )


def classical_to_nonclassical(d: ClassicalData) -> NonClassicalData:
    """Read the non-classical right-hand sides off the boundary triples (see CLASSICAL).

    Exact (no quadrature).  The shared corner value z00 is read from phi1,
    the first triple that names it; any phi1(0) != psi1(0) mismatch is
    reported by check_agreement, never silently averaged.
    """
    z = {}
    for name, triple in CLASSICAL.items():
        f = getattr(d, name)
        for key, value in zip(triple, (f.v0, f.v1, f.v2)):
            z.setdefault(key, value)
    return NonClassicalData(**z)


def nonclassical_to_classical(z: NonClassicalData) -> ClassicalData:
    """Repackage non-classical data as boundary triples (exact inverse; see CLASSICAL)."""
    return ClassicalData(**{name: BoundaryFn(*(getattr(z, key) for key in triple))
                            for name, triple in CLASSICAL.items()})


def check_compatibility(z: NonClassicalData) -> CompatibilityReport:
    """Corner Taylor residuals of non-classical data.

    rho1 = z00_h1 - [z00 + h1 z10 + int_0^{h1} (h1 - t) z20(t) dt],
    rho2 = z00_h2 - [z00 + h2 z01 + int_0^{h2} (h2 - t) z02(t) dt],
    rho3 = [z00_h1 + h2 z01_h1 + int (h2 - t) z02_h1]
         - [z00_h2 + h1 z10_h2 + int (h1 - t) z20_h2].
    """
    phi1, phi2, psi1, psi2 = _far_ends(nonclassical_to_classical(z))
    return CompatibilityReport(rho1=z.z00_h1 - psi1, rho2=z.z00_h2 - phi1, rho3=phi2 - psi2)


def _terms(d, a: Coefficients):
    """The products a_ij * d[i][j] of the live terms, one grid each, in summation order."""
    return (v * d[i][j] for v, (i, j) in a.live)


def lower_order(d, a: Coefficients) -> np.ndarray:
    """Coefficient-weighted sum of the eight non-principal derivatives d[i][j].

    Each d[i][j] is an array that broadcasts against the grid shape, such
    as the entries of ``representation.trace_part``.  Only the live terms
    are summed; with none, the sum is the scalar 0.0.
    """
    terms = _terms(d, a)
    first = next(terms, None)
    return 0.0 if first is None else sum(terms, first)


def apply_operator(field: DerivativeField, a: Coefficients) -> GridFn2D:
    """Pointwise value of (Vu) at every node, from the derivative grids."""
    if a.grid != field.grid:
        raise ValueError("coefficients and field live on different grids")
    return GridFn2D(field.grid, sum(_terms(field.values, a), field.w.values))
