"""Solvers for fourth-order pseudoparabolic Dirichlet problems on rectangles.

The package reduces the operator D1^2 D2^2 u + lower-order terms to a 2D
Volterra integral equation through an exact trace representation, solves
the discretized Goursat problem exactly by marching over the grid rows,
and closes the remaining unknown traces against the far-edge boundary data
by least squares; every closure column comes from one multi-right-hand-side
march.  Boundary data may be given classically (u on the four edges) or
non-classically (corner values and second-derivative edge traces); the two
formulations convert into each other exactly.
"""

from .dirichlet import (
    ClosureSystem,
    Diagnostics,
    DirichletProblem,
    Solution,
    assemble_closure_system,
    solve_classical,
    solve_dirichlet,
)
from .expr import EvalDomainError, ParseError, differentiate, evaluate, parse, to_string
from .goursat import GoursatProblem, GoursatSolution, MarchingError, solve_goursat
from .grid import (
    Grid1D,
    Grid2D,
    GridFn,
    GridFn1D,
    GridFn2D,
    lp_norm,
    make_grid,
    mixed_norm,
)
from .problem import (
    AgreementReport,
    BoundaryFn,
    ClassicalData,
    Coefficients,
    CompatibilityReport,
    NonClassicalData,
    apply_operator,
    boundary_values,
    check_agreement,
    check_compatibility,
    classical_to_nonclassical,
    lower_order,
    nonclassical_to_classical,
)
from .representation import (
    DerivativeField,
    TraceSet,
    extract_traces,
    reconstruct_field,
)
from .verify import (
    ConvergenceTable,
    ManufacturedCase,
    convergence_study,
    convergence_table,
    manufactured_problem,
    sobolev_norm,
)

__version__ = "0.1.0"
