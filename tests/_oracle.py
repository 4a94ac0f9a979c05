"""The discrete non-classical Dirichlet problem, stated as one dense system.

A statement of the equations that ``solve_dirichlet`` solves which shares
nothing with the solver but ``grid.order_table``, for the tests to compare
the solver against.  Let F = (R, C, I) be an axis's order table, so that
F[q] @ f is the order-q part of the field whose second derivative is f,
and let W be the node values of w = D1^2 D2^2 u, flattened in C order.  On
each axis a factor has the orders

    the constant    (1, 0, 0)
    the line        (x, 1, 0)
    a trace part    (F[0] @ f, F[1] @ f, F[2] @ f),

and the representation of ``representation`` reads, with the unknowns
theta = [c, g1, g2] and the traces u00 = z00, u10 = z10, u01 = z01,
p = z20 and q = z02,

    D1^i D2^j u = kron(F1[i], F2[j]) @ W
                + z00 const[i] const[j] + z10 line[i] const[j]
                + z01 const[i] line[j] + c line[i] line[j]
                + (F1[i] @ z20) const[j] + (F1[i] @ g1) line[j]
                + const[i] (F2[j] @ z02) + line[i] (F2[j] @ g2).

The unknowns meet the operator equation at every node,

    D1^2 D2^2 u + sum a_ij D1^i D2^j u = f,

and, in the least-squares sense, the four far-edge conditions

    D2 u(h1, 0) = z01_h1,          D1 u(0, h2) = z10_h2,
    D1^2 u(x1, h2) = z20_h2(x1),   D2^2 u(h1, x2) = z02_h1(x2).

``system`` eliminates W densely, which leaves the four conditions in theta
alone, and ``solve`` solves them by ``lstsq``.
"""

import numpy as np

from ppde.grid import order_table

# The operator's terms: the coefficient's name -> the (i, j) of the D1^i D2^j u it multiplies.
TERMS = {"a21": (2, 1), "a12": (1, 2), "a20": (2, 0), "a02": (0, 2),
         "a11": (1, 1), "a10": (1, 0), "a01": (0, 1), "a00": (0, 0)}


def system(grid, coeffs, rhs, data):
    """(matrix, offset, field) of the discrete problem.

    The far-edge residual of theta is matrix @ theta - offset, one row per
    condition node in the order above, as in ``dirichlet.ClosureSystem``;
    field(theta) gives the nine grids d[i][j] = D1^i D2^j u at theta.
    """
    F1, F2 = order_table(grid.g1), order_table(grid.g2)
    (m1, m2), x1, x2 = grid.shape, grid.g1.nodes, grid.g2.nodes
    const1, const2 = ([np.ones(m), np.zeros(m), np.zeros(m)] for m in (m1, m2))
    line1, line2 = ([x, np.ones_like(x), np.zeros_like(x)] for x in (x1, x2))

    def derivative(i, j):
        """(A, b) with D1^i D2^j u = A @ [W, c, g1, g2] + b, flattened in C order."""
        A = np.hstack([np.kron(F1[i], F2[j]), np.kron(line1[i], line2[j])[:, None],
                       np.kron(F1[i], line2[j][:, None]), np.kron(line1[i][:, None], F2[j])])
        b = (data.z00 * np.kron(const1[i], const2[j]) + data.z10 * np.kron(line1[i], const2[j])
             + data.z01 * np.kron(const1[i], line2[j])
             + np.kron(F1[i] @ data.z20.values, const2[j])
             + np.kron(const1[i], F2[j] @ data.z02.values))
        return A, b

    d = {(i, j): derivative(i, j) for i in range(3) for j in range(3)}
    A, b = d[2, 2][0].copy(), rhs.values.ravel() - d[2, 2][1]
    for name, ij in TERMS.items():
        a = getattr(coeffs, name).values.ravel()
        A += a[:, None] * d[ij][0]
        b -= a * d[ij][1]
    node = np.arange(m1 * m2).reshape(m1, m2)
    conditions = [((0, 1), node[-1, :1], [data.z01_h1]), ((1, 0), node[:1, -1], [data.z10_h2]),
                  ((2, 0), node[:, -1], data.z20_h2.values), ((0, 2), node[-1, :], data.z02_h1.values)]
    Q = np.vstack([d[ij][0][k] for ij, k, _ in conditions])
    z = np.concatenate([z - d[ij][1][k] for ij, k, z in conditions])
    n = m1 * m2
    # W = A_w^-1 (b - A_theta theta), and the conditions in theta alone
    solved = np.linalg.solve(A[:, :n], np.column_stack([b, A[:, n:]]))

    def field(theta):
        v = np.concatenate([solved[:, 0] - solved[:, 1:] @ theta, theta])
        return [[(d[i, j][0] @ v + d[i, j][1]).reshape(m1, m2) for j in range(3)]
                for i in range(3)]

    return Q[:, n:] - Q[:, :n] @ solved[:, 1:], z - Q[:, :n] @ solved[:, 0], field


def solve(grid, coeffs, rhs, data):
    """theta by least squares, and the nine grids d[i][j] = D1^i D2^j u at theta."""
    matrix, offset, field = system(grid, coeffs, rhs, data)
    theta = np.linalg.lstsq(matrix, offset, rcond=None)[0]
    return theta, field(theta)
