"""Coefficients, boundary data in both formulations, and their converters.

The operator under study is

    (Vu)(x) = D1^2 D2^2 u + a21 D1^2 D2 u + a12 D1 D2^2 u
            + a20 D1^2 u + a02 D2^2 u
            + a11 D1 D2 u + a10 D1 u + a01 D2 u + a00 u.

Classical Dirichlet data prescribes u on the four edges through functions
phi1, psi1, phi2, psi2 (edges x1 = 0, x2 = 0, x1 = h1, x2 = h2); these must
satisfy four corner agreement equalities.  The non-classical data instead
prescribes corner values, corner first derivatives and second-derivative
edge traces.  These carry three corner identities of their own, the
residuals rho1-rho3 of ``check_compatibility``.  The solution does not
depend on z00_h1 or z00_h2, which enter the diagnostics only; the closure
has one row more than it has unknowns, and its one consistency condition is
a far-corner agreement, so data that break it leave a closure residual
instead of being met.  ROADMAP.md's open item "Pose the paper's
agreement-free data" plans the paper's free set.  Each boundary function is
stored as the triple (value at 0, first derivative at 0, second derivative
grid); evaluating it uses the Taylor identity

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
from .grid import Grid1D, Grid2D, GridFn, NonFiniteError, lp_norm, mixed_norm, orders, stage
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
    "coefficient_norms",
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
    """The eight variable coefficients of the operator, sampled on one Grid2D.

    ``live``: the (values, (i, j)) of each nonzero coefficient, in summation order.
    """

    def __init__(self, a21, a12, a20, a02, a11, a10, a01, a00):
        fns = (a21, a12, a20, a02, a11, a10, a01, a00)
        grid = fns[0].grid
        if len(grid.axes) != 2:
            raise ValueError(f"coefficients must live on a Grid2D, got {grid!r}")
        for name, fn in zip(COEFFICIENT_NAMES, fns):
            if fn.grid != grid:
                raise ValueError(f"coefficient {name} is not on the shared grid")
        (self.a21, self.a12, self.a20, self.a02,
         self.a11, self.a10, self.a01, self.a00) = fns
        self.grid = grid
        self.live = tuple((f.values, ij) for f, ij in zip(fns, _TERMS.values()) if np.any(f.values))

    @classmethod
    def zeros(cls, grid: Grid2D) -> "Coefficients":
        return cls(*[GridFn.zeros(grid)] * len(COEFFICIENT_NAMES))

    @classmethod
    def from_exprs(cls, grid: Grid2D, exprs: dict) -> "Coefficients":
        """Sample coefficients from expressions; missing names share one zero grid.

        Raises ValueError "unknown coefficient names: [...]", or "<name>: <reason>"
        for a coefficient that divides by zero or overflows at a node.
        """
        unknown = set(exprs) - set(COEFFICIENT_NAMES)
        if unknown:
            raise ValueError(f"unknown coefficient names: {sorted(unknown)}")
        fns = dict.fromkeys(COEFFICIENT_NAMES, GridFn.zeros(grid))
        for name in filter(exprs.__contains__, COEFFICIENT_NAMES):
            e = ex.parse(exprs[name]) if isinstance(exprs[name], str) else exprs[name]
            try:
                fns[name] = ex.sample(e, grid)
            except (ex.EvalDomainError, ValueError) as err:
                raise ValueError(f"{name}: {err}") from err
        return cls(**fns)


def coefficient_norms(coeffs: Coefficients) -> dict:
    """Informational norms of the coefficients, keyed by name in summation order.

    Each is the sup/integrability pattern that the coefficient of D1^i D2^j
    u is expected to satisfy, evaluated with exponent 2 on the grid: sup
    over x1 when i = 2, sup over x2 when j = 2, L2 otherwise.  Every such
    norm of a zero coefficient is 0.0, which is written as is.
    """
    norms, live = {}, {ij for _, ij in coeffs.live}
    for name, (i, j) in _TERMS.items():
        a = getattr(coeffs, name)
        norms[name] = (0.0 if (i, j) not in live else
                       mixed_norm(a, np.inf, 2) if i == 2 else
                       mixed_norm(a, 2, np.inf) if j == 2 else lp_norm(a, 2))
    return norms


class BoundaryFn:
    """One boundary function in Taylor form: value and slope at 0 plus f''."""

    def __init__(self, v0: float, v1: float, v2: GridFn):
        if not (math.isfinite(float(v0)) and math.isfinite(float(v1))):
            raise NonFiniteError("boundary values v0, v1 must be finite")
        self.v0 = float(v0)
        self.v1 = float(v1)
        self.v2 = v2

    @classmethod
    def from_expr(cls, e, grid: Grid1D, var: str) -> "BoundaryFn":
        """Build the triple exactly from an expression in ``var`` alone.

        The derivatives are taken in ``var``.  v0 and v1 are their values at
        x1 = x2 = 0, and v2 is sampled by ``expr.sample``, which binds x1 and
        x2 both to the node coordinate.
        """
        if isinstance(e, str):
            e = ex.parse(e)
        d1 = ex.differentiate(e, var)
        d2 = ex.differentiate(d1, var)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, which cls rejects
            v0, v1 = ex.evaluate(e, 0.0, 0.0), ex.evaluate(d1, 0.0, 0.0)
        return cls(v0, v1, ex.sample(d2, grid))


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
                 z20: GridFn, z02: GridFn, z20_h2: GridFn, z02_h1: GridFn):
        for name, v in zip(self.SCALARS, (z00, z10, z01, z00_h1, z01_h1, z00_h2, z10_h2)):
            if not math.isfinite(float(v)):
                raise NonFiniteError(f"scalar {name} must be finite")
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
                   **{name: GridFn.zeros(g) for name, g in cls.edge_grids(grid).items()})

    @classmethod
    def from_field(cls, field: DerivativeField) -> "NonClassicalData":
        """The data that the field meets exactly, read off at the nodes of CONDITIONS."""
        v = condition_values(field.values, field.grid.shape)
        return cls(**{name: v[name] for name in cls.SCALARS},
                   **{name: GridFn(g, v[name]) for name, g in cls.edge_grids(field.grid).items()})

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

    def __post_init__(self):
        if not all(map(math.isfinite, dataclasses.asdict(self).values())):
            raise NonFiniteError("residuals must be finite")

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


def boundary_values(f: BoundaryFn) -> GridFn:
    """Evaluate the Taylor form v0 + x v1 + int_0^x (x - t) v2(t) dt."""
    g = f.v2.grid
    return GridFn(g, f.v0 + g.nodes * f.v1 + orders(f.v2.values, g)[0])


def _far_ends(d: ClassicalData) -> tuple[float, float, float, float]:
    """phi1(h2), phi2(h2), psi1(h1), psi2(h1); the values at 0 are the v0's."""
    return tuple(float(boundary_values(f).values[-1]) for f in (d.phi1, d.phi2, d.psi1, d.psi2))


@stage("agreement check")
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


@stage("compatibility check")
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
    are summed; with none, the sum is the scalar 0.0.  Like the march, it
    runs inside its caller's ``grid.stage``: a product that overflows gives
    inf or nan there without a numpy warning, and the stage rejects the w
    made from it.
    """
    terms = _terms(d, a)
    first = next(terms, None)
    return 0.0 if first is None else sum(terms, first)


def apply_operator(field: DerivativeField, a: Coefficients) -> GridFn:
    """Pointwise value of (Vu) at every node, from the derivative grids; an
    overflow raises the GridFn's ValueError, and no numpy warning.  With no
    live term Vu is w, whose read-only grid is returned itself."""
    if a.grid != field.grid:
        raise ValueError("coefficients and field live on different grids")
    if not a.live:
        return field.w
    with np.errstate(over="ignore", invalid="ignore"):
        return GridFn(field.grid, sum(_terms(field.values, a), field.w.values))
