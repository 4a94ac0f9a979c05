"""Grid-refinement studies with manufactured solutions.

Each study samples a symbolic u, builds matching boundary data and
right-hand side, solves the Dirichlet problem on a doubling sequence of
grids, and reports node errors of the recovered u.  The trapezoid-based
discretization is second order, so smooth cases show observed orders
near 2; polynomial cases of coordinate degree <= 2 are inside the
quadrature exactness class and bottom out at roundoff immediately.
"""

import tempfile
from pathlib import Path

from ppde import convergence_study

CASES = [
    ("sin(x1)*sin(x2)", {}, [8, 16, 32, 64]),
    ("exp(0.5*x1)*cos(x2) + x1^2*x2", {"a00": "1", "a10": "0.5*x2"}, [8, 16, 32]),
    ("x1^2*x2^2 + x1*x2", {"a00": "1"}, [8, 16, 32]),
]

out_dir = Path(tempfile.mkdtemp(prefix="ppde_convergence_"))

for k, (u, coeff_exprs, ns) in enumerate(CASES, start=1):
    print(f"u = {u}    coefficients: {coeff_exprs or 'none'}")
    table = convergence_study(u, coeff_exprs, (1.0, 1.0), ns)
    for row in table.rows:
        order = "  -  " if row.observed_order != row.observed_order else f"{row.observed_order:.2f}"
        print(f"  n = {row.n:3d}: max {row.max_error:.3e}  l2 {row.l2_error:.3e}  order {order}")
    csv_path = out_dir / f"convergence_{k}.csv"
    csv_path.write_text(table.as_csv())
    print(f"  table written to {csv_path}\n")
