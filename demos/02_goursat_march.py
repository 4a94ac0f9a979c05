"""Row marching for the Goursat problem, checked against a series.

With zero traces on the x1 = 0 and x2 = 0 edges, the equation

    D1^2 D2^2 u + u = 1     on the unit square

has the explicit solution u = sum_{k>=1} (-1)^{k+1} (x1 x2)^{2k} / ((2k)!)^2,
an alternating series that converges ferociously fast.  The engine never
sees that series: it solves the trapezoid discretization of the Volterra
form of the equation exactly, marching once over the grid rows.  The
table shows one march per grid, an equation residual at roundoff, and a
quadrature error falling at second order.
"""

import math

import numpy as np

from ppde import Coefficients, Grid2D, GoursatProblem, GridFn, TraceSet, make_grid, solve_goursat

series = sum((-1) ** (k + 1) / math.factorial(2 * k) ** 2 for k in range(1, 10))
print(f"series value of u(1,1): {series:.10f}\n")

print(" n    marches  u(1,1)         error      eqn residual")
previous = None
for n in (16, 32, 64, 128):
    grid = Grid2D(make_grid(1.0, n), make_grid(1.0, n))
    coeffs = Coefficients.from_exprs(grid, {"a00": "1"})
    rhs = GridFn(grid, np.ones(grid.shape))
    sol = solve_goursat(GoursatProblem(TraceSet.zeros(grid), coeffs, rhs))
    u11 = sol.field.u.values[-1, -1]
    err = abs(u11 - series)
    rate = "" if previous is None else f"   (order {np.log2(previous / err):.2f})"
    print(f"{n:4d}   {sol.iterations:4d}     {u11:.8f}   {err:.2e}   {sol.residual:.1e}{rate}")
    previous = err

print("\nThe principal derivative w = D1^2 D2^2 u solves w = 1 - u pointwise:")
print(f"w(1,1) = {sol.w.values[-1, -1]:.8f}  vs  1 - series = {1 - series:.8f}")
