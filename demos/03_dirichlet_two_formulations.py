"""One Dirichlet problem, two equivalent boundary formulations.

Classical data prescribes u along the four edges and must satisfy four
corner agreement equalities.  The non-classical data prescribes corner
values, corner first derivatives, and second-derivative edge traces; they
carry three corner identities, the compatibility residuals rho1-rho3.  The
solution does not depend on z00_h1 or z00_h2, and data that break the
far-corner agreement leave a closure residual instead of being met
(ROADMAP.md's open item "Pose the paper's agreement-free data" plans the
paper's free set).  Because boundary functions are stored in Taylor form
(value, slope, second-derivative grid), converting between the
formulations is an exact repackaging, and both solve paths run the
identical computation, solution grids included, bit for bit.

The script also pokes the data: shifting the corner value u(h1, 0) by
1e-3 moves the corresponding compatibility residual by exactly 1e-3 while
the solved unknowns do not move at all, since that datum enters only the
diagnostics, never the closure system.
"""

import numpy as np

from ppde import (
    Coefficients,
    DirichletProblem,
    Grid2D,
    NonClassicalData,
    make_grid,
    manufactured_problem,
    nonclassical_to_classical,
    solve_classical,
    solve_dirichlet,
)

grid = Grid2D(make_grid(1.0, 24), make_grid(1.0, 24))
coeffs = Coefficients.from_exprs(grid, {"a00": "1", "a21": "0.3*x2"})
case = manufactured_problem("x1^2*x2^2 + x1*x2 + sin(x1)*x2", coeffs, grid)

nonclassical = solve_dirichlet(case.problem)
classical = solve_classical(
    coeffs, case.problem.rhs, nonclassical_to_classical(case.problem.data), grid
)

err = np.max(np.abs(nonclassical.field.u.values - case.reference.u.values))
same = all(
    np.array_equal(nonclassical.field.d[i][j].values, classical.field.d[i][j].values)
    for i in range(3)
    for j in range(3)
)
print(f"max |u - reference|      : {err:.3e}")
print(f"solution grids bit-equal : {same}")
print(f"theta bit-equal          : {np.array_equal(nonclassical.theta, classical.theta)}")
print(f"agreement residuals (classical path): "
      f"{[f'{r:.1e}' for r in (classical.diagnostics.agreement.r1, classical.diagnostics.agreement.r2, classical.diagnostics.agreement.r3, classical.diagnostics.agreement.r4)]}")

# now perturb the corner datum u(h1, 0)
z = case.problem.data
fields = {k: getattr(z, k) for k in
          NonClassicalData.SCALARS + NonClassicalData.X1_FUNCTIONS + NonClassicalData.X2_FUNCTIONS}
fields["z00_h1"] = z.z00_h1 + 1e-3
perturbed = solve_dirichlet(
    DirichletProblem(grid, coeffs, case.problem.rhs, NonClassicalData(**fields))
)
print("\nafter z00_h1 += 1e-3:")
print(f"rho1 moved by            : "
      f"{perturbed.diagnostics.compat.rho1 - nonclassical.diagnostics.compat.rho1:.6e}")
print(f"theta moved by           : "
      f"{np.max(np.abs(perturbed.theta - nonclassical.theta)):.1e}")
print(f"corner condition residual: "
      f"{perturbed.diagnostics.condition_residuals['z00_h1']:.6e}")
