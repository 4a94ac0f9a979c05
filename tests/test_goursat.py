import math
import subprocess
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _families import coefficient_subsets
from _memory import RowLog
from ppde import goursat
from ppde.expr import parse
from ppde.goursat import GoursatProblem, MarchingError, march, solve_goursat
from ppde.grid import Grid2D, GridFn, NumericalError, make_grid, order_table, order_tables, orders
from ppde.problem import Coefficients, apply_operator, lower_order
from ppde.representation import TraceSet, extract_traces, line, reconstruct_field


def unit_square(n):
    return Grid2D(make_grid(1.0, n), make_grid(1.0, n))


def constant_rhs(grid, v):
    return GridFn(grid, v * np.ones(grid.shape))


def picard(gp, tol=1e-14, max_iter=100):
    """Successive substitution for the discrete Volterra equation (the oracle)."""
    grid = gp.grid
    known = gp.rhs.values - lower_order(reconstruct_field(gp.traces, GridFn.zeros(grid)).values,
                                       gp.coeffs)
    w = known
    for _ in range(max_iter):
        feedback = reconstruct_field(TraceSet.zeros(grid), GridFn(grid, w))
        w_next = known - lower_order(feedback.values, gp.coeffs)
        if np.max(np.abs(w_next - w)) <= tol:
            return w_next
        w = w_next
    raise AssertionError("Picard iteration did not converge")


class TestSolveGoursat:
    def test_no_coefficients_one_sweep(self):
        g = unit_square(8)
        rng = np.random.default_rng(0)
        rhs = GridFn(g, rng.normal(size=g.shape))
        sol = solve_goursat(GoursatProblem(TraceSet.zeros(g), Coefficients.zeros(g), rhs))
        np.testing.assert_array_equal(sol.w.values, rhs.values)
        np.testing.assert_array_equal(sol.field.d[2][2].values, sol.w.values)
        assert sol.iterations == 1

    def test_quartic_fixed_point(self):
        # D1^2 D2^2 u + u = 4 + x1^2 x2^2 with zero traces: u = x1^2 x2^2
        g = unit_square(16)
        X1 = g.g1.nodes[:, None]
        X2 = g.g2.nodes[None, :]
        coeffs = Coefficients.from_exprs(g, {"a00": "1"})
        rhs = GridFn(g, 4 + X1**2 * X2**2)
        sol = solve_goursat(GoursatProblem(TraceSet.zeros(g), coeffs, rhs))
        np.testing.assert_allclose(sol.w.values, 4.0, atol=1e-11)
        np.testing.assert_allclose(sol.field.u.values, X1**2 * X2**2, atol=1e-11)

    def test_series_oracle(self):
        # independent truncated-series solution of D1^2D2^2 u + u = 1
        g = unit_square(64)
        coeffs = Coefficients.from_exprs(g, {"a00": "1"})
        sol = solve_goursat(GoursatProblem(TraceSet.zeros(g), coeffs, constant_rhs(g, 1.0)))
        series = sum((-1) ** (k + 1) / math.factorial(2 * k) ** 2 for k in range(1, 9))
        assert sol.field.u.values[-1, -1] == pytest.approx(series, abs=5e-4)
        assert sol.w.values[-1, -1] == pytest.approx(1 - series, abs=5e-4)

    def test_residual_contract(self):
        g = unit_square(12)
        coeffs = Coefficients.from_exprs(
            g, {"a00": "1", "a21": "x2", "a12": "x1", "a11": "x1*x2", "a20": "0.5"}
        )
        rng = np.random.default_rng(4)
        rhs = GridFn(g, rng.normal(size=g.shape))
        sol = solve_goursat(GoursatProblem(TraceSet.zeros(g), coeffs, rhs))
        assert sol.residual <= 1e-10
        # residual is recomputable from the returned field
        recomputed = np.max(np.abs(apply_operator(sol.field, coeffs).values - rhs.values))
        assert recomputed == sol.residual

    def test_linearity_of_solution_map(self):
        g = unit_square(10)
        coeffs = Coefficients.from_exprs(g, {"a00": "1", "a01": "x1"})
        rng = np.random.default_rng(8)

        def traces(seed_rng):
            return TraceSet(*seed_rng.normal(size=4),
                            GridFn(g.g1, seed_rng.normal(size=11)),
                            GridFn(g.g1, seed_rng.normal(size=11)),
                            GridFn(g.g2, seed_rng.normal(size=11)),
                            GridFn(g.g2, seed_rng.normal(size=11)))

        ta, tb = traces(rng), traces(rng)
        ra = GridFn(g, rng.normal(size=g.shape))
        rb = GridFn(g, rng.normal(size=g.shape))
        wa = solve_goursat(GoursatProblem(ta, coeffs, ra)).w.values
        wb = solve_goursat(GoursatProblem(tb, coeffs, rb)).w.values

        t_sum = TraceSet(ta.u00 + tb.u00, ta.u10 + tb.u10, ta.u01 + tb.u01, ta.c + tb.c,
                         GridFn(g.g1, ta.p.values + tb.p.values),
                         GridFn(g.g1, ta.g1.values + tb.g1.values),
                         GridFn(g.g2, ta.q.values + tb.q.values),
                         GridFn(g.g2, ta.g2.values + tb.g2.values))
        r_sum = GridFn(g, ra.values + rb.values)
        w_sum = solve_goursat(GoursatProblem(t_sum, coeffs, r_sum)).w.values
        assert np.max(np.abs(w_sum - (wa + wb))) <= 1e-11

    def test_volterra_causality(self):
        g = unit_square(12)
        coeffs = Coefficients.from_exprs(g, {"a00": "1", "a21": "0.5"})
        rng = np.random.default_rng(21)
        base = rng.normal(size=g.shape)
        rhs_a = GridFn(g, base)
        i0, j0 = 7, 5
        perturbed = base.copy()
        perturbed[i0:, j0:] += rng.normal(size=perturbed[i0:, j0:].shape)
        rhs_b = GridFn(g, perturbed)
        wa = solve_goursat(GoursatProblem(TraceSet.zeros(g), coeffs, rhs_a)).w.values
        wb = solve_goursat(GoursatProblem(TraceSet.zeros(g), coeffs, rhs_b)).w.values
        unchanged = np.zeros(g.shape, dtype=bool)
        unchanged[:i0, :] = True
        unchanged[:, :j0] = True
        np.testing.assert_array_equal(wa[unchanged], wb[unchanged])
        assert np.max(np.abs(wa[i0:, j0:] - wb[i0:, j0:])) > 1e-3  # something did change

    def test_grid_convergence(self):
        errors = []
        for n in (16, 32, 64):
            g = unit_square(n)
            coeffs = Coefficients.from_exprs(g, {"a00": "1", "a21": "x2"})
            traces, _, reference = extract_traces(parse("sin(x1)*sin(x2)"), g)
            rhs = apply_operator(reference, coeffs)
            sol = solve_goursat(GoursatProblem(traces, coeffs, rhs))
            errors.append(np.max(np.abs(sol.field.u.values - reference.u.values)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 1.8)

    def test_matches_picard_oracle(self):
        g = Grid2D(make_grid(1.0, 12), make_grid(0.7, 12))
        exprs = {"a21": "x1", "a12": "1+x2", "a20": "0.3", "a02": "x2",
                 "a11": "sin(x1*x2)", "a10": "x1*x2", "a01": "-0.5", "a00": "1"}
        rng = np.random.default_rng(1)
        traces = TraceSet(*rng.normal(size=4),
                          GridFn(g.g1, rng.normal(size=13)), GridFn(g.g1, rng.normal(size=13)),
                          GridFn(g.g2, rng.normal(size=13)), GridFn(g.g2, rng.normal(size=13)))
        rhs = GridFn(g, rng.normal(size=g.shape))
        for subset in coefficient_subsets(exprs, seed=2):
            gp = GoursatProblem(traces, Coefficients.from_exprs(g, subset), rhs)
            w = solve_goursat(gp).w.values
            assert np.max(np.abs(w - picard(gp))) <= 1e-12, subset

    def test_vanishing_pivot_names_node(self):
        # a21 = -2/h2 cancels the pivot 1 + a21 h2/2 from the second x2 node
        # on; a direct solve names its stage, the node and the margins
        g = unit_square(8)
        coeffs = Coefficients.from_exprs(g, {"a21": "-16"})
        with pytest.raises(MarchingError) as caught:
            solve_goursat(GoursatProblem(TraceSet.zeros(g), coeffs, constant_rhs(g, 1.0)))
        assert caught.value.node == (0, 1)
        assert str(caught.value) == (
            "Goursat solve: vanishing pivot 0.000e+00 at node (0, 1) of the march; "
            "max |a12| h1/(2 n1) = 0, max |a21| h2/(2 n2) = 1 (1 makes the trapezoid march "
            "singular)")

    def test_overflow_reported(self):
        g = unit_square(8)
        coeffs = Coefficients.from_exprs(g, {"a00": "1e200"})
        with pytest.raises(NumericalError, match="^Goursat solve produced non-finite values$"):
            solve_goursat(GoursatProblem(TraceSet.zeros(g), coeffs, constant_rhs(g, 1.0)))
        assert issubclass(MarchingError, np.linalg.LinAlgError)

    def test_overflow_in_a_row_system_is_not_a_vanishing_pivot(self):
        # a20 K2[0] overflows where x2 spans 1e3; every pivot is 1
        g = Grid2D(make_grid(1.0, 4), make_grid(1e3, 4))
        coeffs = Coefficients.from_exprs(g, {"a20": "1e305"})
        with pytest.raises(NumericalError) as caught:
            solve_goursat(GoursatProblem(TraceSet.zeros(g), coeffs, constant_rhs(g, 1.0)))
        assert type(caught.value) is NumericalError
        assert str(caught.value) == "Goursat solve produced non-finite values"

    def test_grid_mismatch(self):
        g, other = unit_square(4), unit_square(5)
        with pytest.raises(ValueError, match="^coefficients and right-hand side grids differ$"):
            GoursatProblem(TraceSet.zeros(g), Coefficients.zeros(other), constant_rhs(g, 0.0))
        with pytest.raises(ValueError, match="^trace grids do not match the problem grid$"):
            GoursatProblem(TraceSet.zeros(other), Coefficients.zeros(g), constant_rhs(g, 0.0))
        edge = GridFn.zeros(g.g1)
        with pytest.raises(ValueError, match=r"^the right-hand side must live on a Grid2D, "
                                             r"got Grid1D\(length=1.0, n=4\)$"):
            GoursatProblem(TraceSet.zeros(g), Coefficients.zeros(g), edge)


ALL_COEFFICIENTS = {"a21": "x1", "a12": "1+x2", "a20": "0.3", "a02": "x2",
                    "a11": "sin(x1*x2)", "a10": "x1*x2", "a01": "-0.5", "a00": "1"}


@settings(max_examples=25, deadline=None)
@given(n1=st.integers(1, 8), n2=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_columns_that_join_late(n1, n2, seed):
    # Column c joins the march at row start[c]: the rows before it are
    # narrower.  Marching them must give what marching the rows padded with
    # zeros gives, and in the padded march such a column stays exactly 0
    # until its start row.  The march overwrites its rows, so each subset
    # marches a copy of the known rows.
    g = Grid2D(make_grid(1.0, n1), make_grid(0.7, n2))
    K1, K2 = order_tables(g)
    rng = np.random.default_rng(seed)
    start = np.sort(rng.integers(0, n1 + 1, size=rng.integers(1, 6)))
    start[0] = 0
    started = np.arange(n1 + 1)[:, None, None] >= start
    known = np.where(started, rng.normal(size=(n1 + 1, n2 + 1, len(start))), 0.0)
    widths = [int(np.sum(start <= i)) for i in range(n1 + 1)]
    for subset in coefficient_subsets(ALL_COEFFICIENTS, seed=seed % 7):
        coeffs = Coefficients.from_exprs(g, subset)
        grown = list(march(coeffs, (known[i, :, :k].copy() for i, k in enumerate(widths)), K1, K2))
        padded = list(march(coeffs, known.copy(), K1, K2))
        for i, (w, full) in enumerate(zip(grown, padded)):
            assert w.shape == (n2 + 1, widths[i]) and w.flags.c_contiguous
            assert full.flags.c_contiguous
            np.testing.assert_allclose(w, full[:, :widths[i]], rtol=0, atol=1e-13)
            assert np.all(full[:, widths[i]:] == 0.0), (subset, i)


@settings(max_examples=25, deadline=None)
@given(n1=st.integers(1, 8), n2=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_march_supplies_the_g2_known_rows(n1, n2, seed):
    # The field of the unit trace g2 = e_m is line(x1) x K2[., m], so the
    # known rows of its column are -sum a line(x1)[p] K2[q][:, m] over the
    # live terms a D1^p D2^q: minus the feed matrix G[1] + x1 G[0].  Named
    # to the march as zero columns, they must give what marching those
    # known rows written out gives.  Each subset marches a copy of the
    # known rows, which the march overwrites.
    g = Grid2D(make_grid(1.0, n1), make_grid(0.7, n2))
    rng = np.random.default_rng(seed)
    g2_columns = slice(1, n2 + 2)  # with one other column on each side
    known = rng.normal(size=(n1 + 1, n2 + 1, n2 + 3))
    known[:, :, g2_columns] = 0.0
    K1, K2 = order_tables(g)
    x1_line = line(g.g1.nodes[:, None])
    for subset in coefficient_subsets(ALL_COEFFICIENTS, seed=seed % 7):
        coeffs = Coefficients.from_exprs(g, subset)
        written = known.copy()
        for a, (p, q) in coeffs.live:
            if p < 2:
                written[:, :, g2_columns] -= (x1_line[p] * a)[:, :, None] * K2[q]
        supplied = list(march(coeffs, known.copy(), K1, K2, g2_columns))
        for i, (w, full) in enumerate(zip(supplied, march(coeffs, written, K1, K2))):
            assert w.flags.c_contiguous and full.flags.c_contiguous
            np.testing.assert_allclose(w, full, rtol=0, atol=1e-13, err_msg=f"{subset} row {i}")
        assert len(supplied) == n1 + 1


@pytest.mark.parametrize("exprs", [{}, ALL_COEFFICIENTS], ids=["no_coefficient", "all_eight"])
def test_march_writes_w_into_the_rows_it_is_given(exprs):
    # Each w is the known row object handed in, overwritten; the order
    # tables K1 and K2 are read-only and read only.
    g = Grid2D(make_grid(1.0, 6), make_grid(0.7, 9))
    coeffs = Coefficients.from_exprs(g, exprs)
    known = np.random.default_rng(14).normal(size=(7, 10, 3))
    K1, K2 = order_tables(g)
    np.testing.assert_array_equal(K1, order_table(g.g1))
    np.testing.assert_array_equal(K2, orders(np.eye(10), g.g2))
    assert not K1.flags.writeable and not K2.flags.writeable
    before = K1.copy(), K2.copy()
    rows = list(known.copy())
    expected = [w.copy() for w in march(coeffs, known.copy(), K1, K2)]
    for row, w, e in zip(rows, march(coeffs, iter(rows), K1, K2), expected, strict=True):
        assert w is row and w.flags.c_contiguous
        np.testing.assert_array_equal(w, e)
    for K, K_before in zip((K1, K2), before):
        np.testing.assert_array_equal(K, K_before)
    if not exprs:  # without a live coefficient no table is read, so solve_goursat passes None
        assert all(w is row for w, row in zip(march(coeffs, iter(rows), None, None), rows,
                                               strict=True))


@pytest.mark.parametrize("g2_columns", [None, slice(1, 9)], ids=["no_g2_columns", "g2_columns"])
def test_march_holds_no_consumed_row(g2_columns):
    # When the march asks for the next known row, no row it has yielded is
    # alive any more: no loop tuple or local of the march keeps one, so it
    # holds one row's working set.  The consumer drops each row at once.
    g = Grid2D(make_grid(1.0, 6), make_grid(0.7, 7))
    rows = RowLog(lambda i: np.ones((8, 10)), 7)
    coeffs = Coefficients.from_exprs(g, ALL_COEFFICIENTS)
    deque(march(coeffs, rows, *order_tables(g), g2_columns), maxlen=0)
    assert rows.alive == [[]] * 7


@pytest.mark.parametrize("m, k", [(9, 3), (33, 1), (41, 60), (65, 1), (65, 132), (129, 1)])
def test_row_solve_is_the_triangular_solve(m, k):
    # Both ways of solving a row (one dense LU solve for small ones, blocked
    # forward substitution otherwise) against the dense solve.
    rng = np.random.default_rng(m + k)
    system = np.eye(m) + (3.0 / m) * np.tril(rng.uniform(-1, 1, size=(m, m)))
    b = rng.normal(size=(m, k))
    w = b.copy()
    goursat._LowerSolver(m)(system, w)
    np.testing.assert_allclose(w, np.linalg.solve(system, b), rtol=0, atol=1e-13)


def test_numpy_is_the_only_numerical_dependency():
    # A solve with coefficients marches both ways of solving a row, with
    # numpy alone: scipy bundles a second BLAS whose threads compete with
    # numpy's.
    code = (
        "import sys, ppde, ppde.cli\n"
        "from ppde.dirichlet import solve_dirichlet\n"
        "from ppde.grid import Grid2D, make_grid\n"
        "from ppde.problem import Coefficients\n"
        "from ppde.verify import manufactured_problem\n"
        "g = Grid2D(make_grid(1.0, 40), make_grid(1.0, 40))\n"
        "c = Coefficients.from_exprs(g, {'a00': '1', 'a21': 'x1'})\n"
        "solve_dirichlet(manufactured_problem('sin(x1)*x2', c, g).problem)\n"
        "assert 'scipy' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
