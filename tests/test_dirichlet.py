import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _families import coefficient_subsets
from _memory import traced_peak
from ppde.dirichlet import (
    ClosureSystem,
    DirichletProblem,
    _solve_least_squares,
    assemble_closure_system,
    solve_classical,
    solve_dirichlet,
)
from ppde.goursat import GoursatProblem, solve_goursat
from ppde.grid import Grid2D, GridFn, NonFiniteError, NumericalError, make_grid
from ppde.problem import (
    COEFFICIENT_NAMES,
    CONDITIONS,
    BoundaryFn,
    ClassicalData,
    Coefficients,
    NonClassicalData,
    nonclassical_to_classical,
)
from ppde.representation import TraceSet, reconstruct_field
from ppde.verify import manufactured_problem


def unit_square(n):
    return Grid2D(make_grid(1.0, n), make_grid(1.0, n))


def poly_case(n):
    g = unit_square(n)
    coeffs = Coefficients.from_exprs(g, {"a00": "1"})
    return manufactured_problem("x1^2*x2^2 + x1*x2", coeffs, g)


def far_edge_residual(p, theta):
    """Residuals of the four far-edge conditions after one Goursat solve at theta."""
    n1, n2 = p.grid.g1.n, p.grid.g2.n
    traces = TraceSet(p.data.z00, p.data.z10, p.data.z01, theta[0],
                      p.data.z20, GridFn(p.grid.g1, theta[1:n1 + 2]),
                      p.data.z02, GridFn(p.grid.g2, theta[n1 + 2:]))
    d = solve_goursat(GoursatProblem(traces, p.coeffs, p.rhs)).field.d
    return np.concatenate([
        [d[0][1].values[n1, 0] - p.data.z01_h1],
        [d[1][0].values[0, n2] - p.data.z10_h2],
        d[2][0].values[:, n2] - p.data.z20_h2.values,
        d[0][2].values[n1, :] - p.data.z02_h1.values,
    ])


def mixed64_problem():
    g = unit_square(64)
    coeffs = Coefficients.from_exprs(
        g, {"a00": "1", "a21": "x1", "a12": "1+x2", "a11": "sin(x1*x2)"})
    return manufactured_problem("sin(x1)*cos(x2) + x1*x2^2", coeffs, g).problem


def replace_scalar(z, **kwargs):
    fields = {k: getattr(z, k) for k in
              NonClassicalData.SCALARS + NonClassicalData.X1_FUNCTIONS
              + NonClassicalData.X2_FUNCTIONS}
    fields.update(kwargs)
    return NonClassicalData(**fields)


def assert_solutions_bit_identical(a, b):
    np.testing.assert_array_equal(a.theta, b.theta)
    for i in range(3):
        for j in range(3):
            np.testing.assert_array_equal(a.field.d[i][j].values, b.field.d[i][j].values)
    da, db = a.diagnostics, b.diagnostics
    assert da.compat == db.compat
    assert da.closure_residual == db.closure_residual
    assert da.equation_residual == db.equation_residual
    assert da.condition_residuals == db.condition_residuals
    assert da.goursat_iterations == db.goursat_iterations
    assert da.coefficient_norms == db.coefficient_norms


class TestClosureSystem:
    def test_shape(self):
        system = assemble_closure_system(poly_case(4).problem)
        assert system.matrix.shape == (12, 11)
        assert system.offset.shape == (12,)

    def test_zero_coefficient_structure(self):
        n = 4
        g = Grid2D(make_grid(1.5, n), make_grid(0.5, n))
        h1, h2 = 1.5, 0.5
        problem = DirichletProblem(g, Coefficients.zeros(g),
                                   GridFn.zeros(g), NonClassicalData.zeros(g))
        system = assemble_closure_system(problem)
        c_col = system.matrix[:, 0]
        np.testing.assert_allclose(c_col[:2], [h1, h2], atol=1e-14)
        np.testing.assert_allclose(c_col[2:], 0.0, atol=1e-14)
        # g1 block of the D1^2u(., h2) rows is h2 * identity
        block_g1 = system.matrix[2:2 + n + 1, 1:1 + n + 1]
        np.testing.assert_allclose(block_g1, h2 * np.eye(n + 1), atol=1e-14)
        block_g2 = system.matrix[2 + n + 1:, 2 + n:]
        np.testing.assert_allclose(block_g2, h1 * np.eye(n + 1), atol=1e-14)

    def test_probe_failure_annotated(self):
        # the unit-trace march overflows; the error names the closure's stage
        g = unit_square(6)
        coeffs = Coefficients.from_exprs(g, {"a00": "1e200"})
        problem = DirichletProblem(g, coeffs, GridFn.zeros(g), NonClassicalData.zeros(g))
        with pytest.raises(NumericalError, match="^closure assembly produced non-finite values$"):
            assemble_closure_system(problem)

    def test_matches_dense_probing(self):
        g = Grid2D(make_grid(1.0, 6), make_grid(0.8, 7))
        exprs = {"a21": "x1", "a12": "1+x2", "a20": "0.5", "a02": "-x1*x2",
                 "a11": "sin(x1*x2)", "a10": "x2", "a01": "0.3", "a00": "1"}
        rng = np.random.default_rng(5)
        data = NonClassicalData(
            *rng.normal(size=7),
            z20=GridFn(g.g1, rng.normal(size=7)), z02=GridFn(g.g2, rng.normal(size=8)),
            z20_h2=GridFn(g.g1, rng.normal(size=7)), z02_h1=GridFn(g.g2, rng.normal(size=8)))
        rhs = GridFn(g, rng.normal(size=g.shape))
        for subset in coefficient_subsets(exprs, seed=6):
            p = DirichletProblem(g, Coefficients.from_exprs(g, subset), rhs, data)
            system = assemble_closure_system(p)
            ncols = system.matrix.shape[1]
            r0 = far_edge_residual(p, np.zeros(ncols))
            dense = np.column_stack([far_edge_residual(p, e) - r0 for e in np.eye(ncols)])
            assert np.max(np.abs(system.matrix - dense)) <= 1e-13, subset
            assert np.max(np.abs(system.offset + r0)) <= 1e-13, subset

    def test_assembly_peak_memory(self):
        # The closure march holds one order table per axis grid (one on this
        # square grid, shared with the march) and writes each w into its
        # known row, and no consumed row or kernel outlives its row.  At n =
        # 64 with the benchmark's four-coefficient mix the assembly peaks in
        # the march at about 0.800 MB; one more 65 x 65 temporary alive
        # across a march row (33 KB) exceeds the bound.  It read 0.869 MB
        # (bound 0.90e6) while the last one or two consumed rows (68 KB
        # each) and the previous row's three kernels stayed alive.
        assert traced_peak(assemble_closure_system, mixed64_problem()) <= 0.83e6

    def test_solve_peak_memory(self):
        # The whole solve, which the benchmark reports as peak_mb, peaks in
        # the closure march at about 0.801 MB on the same problem (0.870 MB,
        # bound 0.92e6, before the march released its consumed rows).  The
        # final Goursat solve's reconstruct_field, which read 0.896 MB while
        # it held the whole trace part and every sweep of w to its end, now
        # stays near 0.48 MB.
        assert traced_peak(solve_dirichlet, mixed64_problem()) <= 0.83e6

    def test_coefficient_free_solve_peak_memory(self):
        # With no coefficient the march is cheap, and the solve peaks in the
        # final reconstruct_field at about 1.554 MB for n = 128: the field's
        # nine 129 x 129 grids (1.20 MB) are made while w, the first sweeps
        # of w and the trace-part entry of the grid being made are alive.
        # It read 1.618 MB (bound 1.70e6) while cumtrapz made its increments
        # and their running sum apart from its output and the equation
        # residual took two grids beside the field; 1.876 MB (bound 2.05e6)
        # while all six full-grid trace-part entries were alive at the first
        # grid; and 3.48 MB while the solve kept the closure system, every
        # trace-part entry and every sweep alive to the end and formed the
        # products of all-zero coefficients.
        g = unit_square(128)
        p = manufactured_problem("sin(x1)*exp(x2) + x1^2*x2", Coefficients.zeros(g), g).problem
        assert traced_peak(solve_dirichlet, p) <= 1.585e6

    def test_affine_consistency(self):
        # R(theta) from a direct solve matches matrix @ theta - offset
        case = poly_case(8)
        p = case.problem
        system = assemble_closure_system(p)
        theta = np.random.default_rng(3).normal(size=system.matrix.shape[1])
        probed = system.matrix @ theta - system.offset
        assert np.max(np.abs(far_edge_residual(p, theta) - probed)) <= 1e-9


class TestSolveDirichlet:
    def test_zero_problem(self):
        g = unit_square(6)
        problem = DirichletProblem(g, Coefficients.from_exprs(g, {"a00": "x1*x2"}),
                                   GridFn.zeros(g), NonClassicalData.zeros(g))
        sol = solve_dirichlet(problem)
        np.testing.assert_array_equal(sol.theta, np.zeros(sol.theta.size))
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(sol.field.d[i][j].values, 0.0)
        assert sol.diagnostics.equation_residual == 0.0
        assert all(v == 0.0 for v in sol.diagnostics.condition_residuals.values())

    def test_manufactured_polynomial(self):
        case = poly_case(32)
        sol = solve_dirichlet(case.problem)
        err = np.max(np.abs(sol.field.u.values - case.reference.u.values))
        assert err <= 5e-3
        assert sol.theta[0] == pytest.approx(1.0, abs=1e-9)  # c = D1D2u(0,0)
        assert np.max(np.abs(sol.theta[1:])) <= 1e-9  # g1 and g2 vanish

    def test_manufactured_smooth(self):
        g = unit_square(24)
        coeffs = Coefficients.from_exprs(g, {"a00": "1", "a10": "x2"})
        case = manufactured_problem("sin(x1)*exp(x2)", coeffs, g)
        sol = solve_dirichlet(case.problem)
        err = np.max(np.abs(sol.field.u.values - case.reference.u.values))
        assert err <= 20 * g.g1.h**2

    def test_perturbing_unused_corner_keeps_theta(self):
        case = poly_case(16)
        p = case.problem
        base = solve_dirichlet(p)
        p2 = DirichletProblem(p.grid, p.coeffs, p.rhs,
                              replace_scalar(p.data, z00_h1=p.data.z00_h1 + 1e-3),
                              tol=p.tol)
        pert = solve_dirichlet(p2)
        assert pert.diagnostics.compat.rho1 - base.diagnostics.compat.rho1 == pytest.approx(
            1e-3, abs=1e-10
        )
        # z00_h1 feeds neither the traces nor the closure rows
        np.testing.assert_array_equal(base.theta, pert.theta)
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(
                    base.field.d[i][j].values, pert.field.d[i][j].values
                )
        shift = (pert.diagnostics.condition_residuals["z00_h1"]
                 - base.diagnostics.condition_residuals["z00_h1"])
        assert shift == pytest.approx(1e-3, abs=1e-9)
        for name, value in pert.diagnostics.condition_residuals.items():
            if name != "z00_h1":
                assert value == base.diagnostics.condition_residuals[name]
                assert value <= 1e-8  # consistent base problem solves exactly

    def test_diagnostics_contents(self):
        sol = solve_dirichlet(poly_case(8).problem)
        d = sol.diagnostics
        assert set(d.condition_residuals) == {
            "z00", "z10", "z01", "z20", "z02",
            "z00_h1", "z01_h1", "z00_h2", "z10_h2", "z20_h2", "z02_h1",
        }
        assert set(d.coefficient_norms) == {"a21", "a12", "a20", "a02",
                                            "a11", "a10", "a01", "a00"}
        assert d.coefficient_norms["a00"] == pytest.approx(1.0, abs=1e-12)
        assert d.goursat_iterations >= 1
        assert d.agreement is None

    @pytest.mark.parametrize("coeff_exprs", [
        {"a21": "30"}, {"a21": "100"}, {"a00": "1000"}, {"a11": "200"},
    ])
    def test_stiff_coefficients_solve_exactly(self, coeff_exprs):
        # successive substitution diverged or stalled on each of these
        g = unit_square(16)
        case = manufactured_problem("x1^2*x2^2", Coefficients.from_exprs(g, coeff_exprs), g)
        sol = solve_dirichlet(case.problem)
        assert np.max(np.abs(sol.field.u.values - case.reference.u.values)) <= 1e-10
        assert sol.diagnostics.equation_residual <= 1e-10
        assert sol.diagnostics.goursat_iterations == 1

    def test_validation(self):
        g = unit_square(4)
        with pytest.raises(ValueError):
            DirichletProblem(g, Coefficients.zeros(g), GridFn.zeros(g),
                             NonClassicalData.zeros(g), tol=0.0)
        with pytest.raises(ValueError):
            DirichletProblem(g, Coefficients.zeros(g), GridFn.zeros(g),
                             NonClassicalData.zeros(g), max_iter=0)
        with pytest.raises(ValueError, match="ridge"):
            DirichletProblem(g, Coefficients.zeros(g), GridFn.zeros(g),
                             NonClassicalData.zeros(g), ridge=float("nan"))
        with pytest.raises(ValueError):
            DirichletProblem(g, Coefficients.zeros(unit_square(5)),
                             GridFn.zeros(g), NonClassicalData.zeros(g))
        with pytest.raises(ValueError, match="^data edge functions do not match the problem grid$"):
            DirichletProblem(g, Coefficients.zeros(g), GridFn.zeros(g),
                             NonClassicalData.zeros(Grid2D(make_grid(1.0, 5), make_grid(1.0, 4))))

    @pytest.mark.parametrize("field", ["closure_residual", "equation_residual",
                                       "condition_residuals", "coefficient_norms"])
    def test_diagnostics_not_finite(self, field):
        d = solve_dirichlet(poly_case(4).problem).diagnostics
        value = {"z00": np.nan} if field in ("condition_residuals", "coefficient_norms") else np.inf
        with pytest.raises(NonFiniteError, match="^diagnostics must be finite$"):
            dataclasses.replace(d, **{field: value})

    def test_small_ridge_barely_moves_theta(self):
        case = poly_case(8)
        p = case.problem
        plain = solve_dirichlet(p)
        ridged = solve_dirichlet(DirichletProblem(p.grid, p.coeffs, p.rhs, p.data,
                                                  tol=p.tol, ridge=1e-12))
        assert np.max(np.abs(plain.theta - ridged.theta)) <= 1e-6

    @pytest.mark.parametrize("matrix, offset", [((5, 5), (5,)), ((6, 5), (5,)), ((6,), (6,))])
    def test_closure_shape_is_checked(self, matrix, offset):
        with pytest.raises(ValueError, match="closure"):
            ClosureSystem(np.zeros(matrix), np.zeros(offset))

    def test_rank_collapse_is_a_numerical_error(self):
        system = ClosureSystem(np.zeros((6, 5)), np.zeros(6))
        with pytest.raises(NumericalError, match=r"^closure system rank 0 < 5 unknowns; "):
            _solve_least_squares(system, 0.0, Coefficients.zeros(unit_square(2)))

    def test_single_rank_loss_is_a_numerical_error_that_a_ridge_regularises(self):
        # rank ncols - 1: the fifth column repeats the fourth
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(6, 5))
        matrix[:, 4] = matrix[:, 3]
        system = ClosureSystem(matrix, rng.normal(size=6))
        coeffs = Coefficients.zeros(unit_square(2))
        with pytest.raises(NumericalError, match="rank 4 < 5 unknowns"):
            _solve_least_squares(system, 0.0, coeffs)
        theta = _solve_least_squares(system, 1e-8, coeffs)
        assert theta[3] == pytest.approx(theta[4], rel=1e-6)  # the two copies share the weight

    def test_resonant_coefficient_is_an_error_that_a_ridge_regularises(self):
        # a21 dx2 / 2 = 1 is the zero of the trapezoid rule's amplification
        # factor (1 - a dx/2)/(1 + a dx/2): the closure drops the columns of g2.
        # tests/test_cli.py::TestSingularClosure has the message at n = 4 and 8.
        g = unit_square(8)
        p = manufactured_problem("sin(x1)*exp(x2) + x1^2*x2",
                                 Coefficients.from_exprs(g, {"a21": "16"}), g).problem
        with pytest.raises(NumericalError, match=r"rank 10 < 19 unknowns; .* h2/\(2 n2\) = 1 "):
            solve_dirichlet(p)
        ridged = solve_dirichlet(DirichletProblem(p.grid, p.coeffs, p.rhs, p.data, ridge=1e-12))
        assert np.all(np.isfinite(ridged.theta))

    def test_least_squares_optimality(self):
        # attained residual matches the pseudoinverse optimum
        case = poly_case(8)
        system = assemble_closure_system(case.problem)
        theta = _solve_least_squares(system, 0.0, case.problem.coeffs)
        attained = np.linalg.norm(system.matrix @ theta - system.offset)
        best = np.linalg.norm(
            system.matrix @ (np.linalg.pinv(system.matrix) @ system.offset)
            - system.offset
        )
        assert attained <= best + 1e-10

    def test_asymmetric_domain_all_coefficients(self):
        coeff_exprs = {"a21": "0.3*x1", "a12": "-0.2*x2", "a20": "0.5",
                       "a02": "0.4*x1*x2", "a11": "-0.3", "a10": "0.2*x2",
                       "a01": "0.1*x1", "a00": "1 - 0.5*x1"}
        errs = []
        for n in (8, 16):
            g = Grid2D(make_grid(1.5, n), make_grid(0.8, 2 * n))
            coeffs = Coefficients.from_exprs(g, coeff_exprs)
            case = manufactured_problem("sin(x1)*exp(0.5*x2) + x1^2*x2 - cos(x2)",
                                        coeffs, g)
            sol = solve_dirichlet(case.problem)
            errs.append(np.max(np.abs(sol.field.u.values - case.reference.u.values)))
            assert sol.diagnostics.equation_residual <= 1e-10
        assert np.log2(errs[0] / errs[1]) >= 1.8

    def test_repeated_solves_are_bit_identical_and_leave_the_problem_unchanged(self):
        # The marches overwrite the rows they are given, so every row must
        # be the solver's own: a second solve of the same problem gives the
        # same bits, and the problem's arrays are not written.
        g = Grid2D(make_grid(1.0, 12), make_grid(0.7, 15))
        rng = np.random.default_rng(14)
        coeffs = Coefficients.from_exprs(g, {
            "a21": "x1", "a12": "1+x2", "a20": "0.5", "a02": "-x1*x2",
            "a11": "sin(x1*x2)", "a10": "x2", "a01": "0.3", "a00": "1"})
        data = NonClassicalData(
            *rng.normal(size=7),
            z20=GridFn(g.g1, rng.normal(size=13)), z02=GridFn(g.g2, rng.normal(size=16)),
            z20_h2=GridFn(g.g1, rng.normal(size=13)), z02_h1=GridFn(g.g2, rng.normal(size=16)))
        p = DirichletProblem(g, coeffs, GridFn(g, rng.normal(size=g.shape)), data)
        arrays = [p.rhs.values, *(getattr(coeffs, name).values for name in COEFFICIENT_NAMES),
                  *(getattr(data, key).values
                    for key in NonClassicalData.X1_FUNCTIONS + NonClassicalData.X2_FUNCTIONS)]
        before = [a.copy() for a in arrays]
        first = solve_dirichlet(p)
        assert_solutions_bit_identical(first, solve_dirichlet(p))
        for a, b in zip(arrays, before):
            np.testing.assert_array_equal(a, b)

    def test_solution_grids_are_read_only(self):
        sol = solve_dirichlet(poly_case(4).problem)
        for fn in (fn for row in sol.field.d for fn in row):
            with pytest.raises(ValueError, match="read-only"):
                fn.values[1, 1] = 0.0

    def test_closure_residual_and_field_converge(self):
        # with coefficient feedback both the minimized closure residual and
        # the recovered field converge at second order
        closure, field = [], []
        for n in (8, 16, 32):
            g = unit_square(n)
            coeffs = Coefficients.from_exprs(g, {"a00": "1", "a21": "x2"})
            case = manufactured_problem("sin(x1)*exp(x2)", coeffs, g)
            sol = solve_dirichlet(case.problem)
            system = assemble_closure_system(case.problem)
            closure.append(np.linalg.norm(system.matrix @ sol.theta - system.offset))
            field.append(np.max(np.abs(sol.field.u.values - case.reference.u.values)))
        for errs in (closure, field):
            orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
            assert np.all(orders >= 1.8)


class TestEquivalence:
    def test_bit_identical_solutions(self):
        rng = np.random.default_rng(12)
        g = unit_square(8)
        coeffs = Coefficients.from_exprs(g, {"a00": "1", "a21": "0.25*x2"})
        for _ in range(3):
            z = NonClassicalData(
                *rng.normal(size=7),
                z20=GridFn(g.g1, rng.normal(size=9)),
                z02=GridFn(g.g2, rng.normal(size=9)),
                z20_h2=GridFn(g.g1, rng.normal(size=9)),
                z02_h1=GridFn(g.g2, rng.normal(size=9)),
            )
            rhs = GridFn(g, rng.normal(size=g.shape))
            nonclassical = solve_dirichlet(DirichletProblem(g, coeffs, rhs, z))
            classical = solve_classical(coeffs, rhs, nonclassical_to_classical(z), g)
            assert_solutions_bit_identical(nonclassical, classical)
            assert classical.diagnostics.agreement is not None

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 8), names=st.sets(st.sampled_from(COEFFICIENT_NAMES)),
           seed=st.integers(0, 2**32 - 1))
    def test_classical_path_is_bit_identical(self, n, names, seed):
        g = Grid2D(make_grid(1.0, n), make_grid(0.6, n))
        rng = np.random.default_rng(seed)
        coeffs = Coefficients.from_exprs(
            g, {name: f"{rng.uniform(-0.5, 0.5):.4f}*(1 + x1*x2)" for name in sorted(names)})
        z = NonClassicalData(
            *rng.normal(size=7),
            z20=GridFn(g.g1, rng.normal(size=n + 1)), z02=GridFn(g.g2, rng.normal(size=n + 1)),
            z20_h2=GridFn(g.g1, rng.normal(size=n + 1)),
            z02_h1=GridFn(g.g2, rng.normal(size=n + 1)))
        rhs = GridFn(g, rng.normal(size=g.shape))
        nonclassical = solve_dirichlet(DirichletProblem(g, coeffs, rhs, z))
        classical = solve_classical(coeffs, rhs, nonclassical_to_classical(z), g)
        assert_solutions_bit_identical(nonclassical, classical)

    def test_classical_linear(self):
        # u = x1 + x2 with the bare principal operator and zero rhs
        g = unit_square(8)
        d = ClassicalData(
            phi1=BoundaryFn.from_expr("x2", g.g2, "x2"),
            phi2=BoundaryFn.from_expr("1 + x2", g.g2, "x2"),
            psi1=BoundaryFn.from_expr("x1", g.g1, "x1"),
            psi2=BoundaryFn.from_expr("1 + x1", g.g1, "x1"),
        )
        sol = solve_classical(Coefficients.zeros(g), GridFn.zeros(g), d, g)
        X1 = g.g1.nodes[:, None]
        X2 = g.g2.nodes[None, :]
        assert np.max(np.abs(sol.field.u.values - (X1 + X2))) <= 1e-9
        assert sol.diagnostics.agreement.max_abs() <= 1e-12

    def test_classical_quadratic_with_reaction(self):
        # V u = D1^2D2^2 u + u = x1^2 + x2^2 recovers u = x1^2 + x2^2
        g = unit_square(16)
        X1 = g.g1.nodes[:, None]
        X2 = g.g2.nodes[None, :]
        d = ClassicalData(
            phi1=BoundaryFn.from_expr("x2^2", g.g2, "x2"),
            phi2=BoundaryFn.from_expr("1 + x2^2", g.g2, "x2"),
            psi1=BoundaryFn.from_expr("x1^2", g.g1, "x1"),
            psi2=BoundaryFn.from_expr("1 + x1^2", g.g1, "x1"),
        )
        coeffs = Coefficients.from_exprs(g, {"a00": "1"})
        rhs = GridFn(g, X1**2 + X2**2)
        sol = solve_classical(coeffs, rhs, d, g)
        assert np.max(np.abs(sol.field.u.values - (X1**2 + X2**2))) <= 10 * g.g1.h**2


# The x1 <-> x2 mirror: the coefficients and data that trade places when the
# axes swap; a11, a00 and z00 keep theirs.
_MIRRORED = [("a21", "a12"), ("a20", "a02"), ("a10", "a01"), ("a11", "a11"), ("a00", "a00"),
             ("z00", "z00"), ("z10", "z01"), ("z00_h1", "z00_h2"), ("z01_h1", "z10_h2"),
             ("z20", "z02"), ("z20_h2", "z02_h1")]
MIRROR = {**dict(_MIRRORED), **{b: a for a, b in _MIRRORED}}


class TestMirror:
    """The problem and its trapezoid discretization are symmetric under
    swapping the axes, so the mirrored solve is an oracle at every size."""

    @staticmethod
    def solve(grid, a, rhs, z):
        """The solve of node values: coefficients ``a`` by name (absent ones
        zero), ``rhs`` on ``grid`` and data ``z`` by name."""
        edges = NonClassicalData.edge_grids(grid)
        coeffs = Coefficients(**{name: GridFn(grid, a[name]) if name in a else GridFn.zeros(grid)
                                 for name in COEFFICIENT_NAMES})
        data = NonClassicalData(**{k: GridFn(edges[k], v) if k in edges else v for k, v in z.items()})
        return solve_dirichlet(DirichletProblem(grid, coeffs, GridFn(grid, rhs), data))

    @settings(max_examples=40, deadline=None)
    @given(n1=st.integers(1, 24), n2=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_mirrored_solve_is_the_transposed_solve(self, n1, n2, seed):
        rng = np.random.default_rng(seed)
        grid = Grid2D(make_grid(rng.uniform(0.3, 1.5), n1), make_grid(rng.uniform(0.3, 1.5), n2))
        a = {name: rng.normal(0.0, 0.25, grid.shape)
             for name in COEFFICIENT_NAMES if rng.random() < 0.5}
        rhs = rng.normal(size=grid.shape)
        z = {**{k: float(rng.normal()) for k in NonClassicalData.SCALARS},
             **{k: rng.normal(size=g.n + 1) for k, g in NonClassicalData.edge_grids(grid).items()}}
        s = self.solve(grid, a, rhs, z)
        m = self.solve(Grid2D(grid.g2, grid.g1), {MIRROR[name]: v.T for name, v in a.items()},
                       rhs.T, {MIRROR[k]: v for k, v in z.items()})

        def close(x, y, scale=None):
            x, y = np.asarray(x, float), np.asarray(y, float)
            scale = np.max(np.abs(x)) if scale is None else scale
            assert np.max(np.abs(x - y)) <= 1e-13 * scale

        for i in range(3):  # d[0][0] is u
            for j in range(3):
                close(s.field.d[i][j].values, m.field.d[j][i].values.T)
        # theta = [c, g1, g2], and the mirror's g2 is on the x1 axis
        close(s.theta, np.concatenate([m.theta[:1], m.theta[n2 + 2:], m.theta[1:n2 + 2]]))
        sd, md = s.diagnostics, m.diagnostics
        scale = max(np.max(np.abs(v)) for v in (rhs, *z.values()))
        close([sd.condition_residuals[k] for k in CONDITIONS],
              [md.condition_residuals[MIRROR[k]] for k in CONDITIONS], scale)
        close([sd.compat.rho1, sd.compat.rho2, sd.compat.rho3],
              [md.compat.rho2, md.compat.rho1, -md.compat.rho3], scale)
        close([sd.closure_residual, sd.equation_residual],
              [md.closure_residual, md.equation_residual], scale)
        # The norms of a21/a12 and a20/a02 take sup and L2 in the other
        # order under the mirror, so only these four map.
        same = ("a11", "a10", "a01", "a00")
        close([sd.coefficient_norms[k] for k in same],
              [md.coefficient_norms[MIRROR[k]] for k in same])


class TestSuperposition:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_solution_is_linear_in_rhs_and_data(self, n, seed):
        g = Grid2D(make_grid(1.0, n), make_grid(0.6, n))
        coeffs = Coefficients.from_exprs(
            g, {"a21": "x1", "a12": "1+x2", "a11": "sin(x1*x2)", "a00": "1"})
        rng = np.random.default_rng(seed)

        def random_data():
            return (rng.normal(size=g.shape), rng.normal(size=7),
                    [rng.normal(size=n + 1) for _ in range(4)])

        def solve(rhs, scalars, edges):
            z20, z02, z20_h2, z02_h1 = edges
            data = NonClassicalData(
                *scalars, z20=GridFn(g.g1, z20), z02=GridFn(g.g2, z02),
                z20_h2=GridFn(g.g1, z20_h2), z02_h1=GridFn(g.g2, z02_h1))
            problem = DirichletProblem(g, coeffs, GridFn(g, rhs), data)
            return solve_dirichlet(problem).field.u.values

        (r1, s1, e1), (r2, s2, e2) = random_data(), random_data()
        both = solve(r1 + r2, s1 + s2, [a + b for a, b in zip(e1, e2)])
        each = solve(r1, s1, e1) + solve(r2, s2, e2)
        assert np.max(np.abs(both - each)) <= 1e-10 * (1.0 + np.max(np.abs(each)))


class TestScaledData:
    """Data and right-hand side near the end of the float range."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, 308), live=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(k=308, live=False, seed=0)
    @example(k=308, live=True, seed=0)
    def test_finite_outputs_or_a_linalg_error(self, k, live, seed):
        # A numpy warning would fail the test (pyproject), and so would a
        # ValueError: only LinAlgError may leave the solve.
        g = unit_square(6)
        coeffs = Coefficients.from_exprs(
            g, {"a00": "1", "a21": "x1", "a12": "1+x2", "a11": "sin(x1*x2)"} if live else {})
        rng = np.random.default_rng(seed)
        rhs, scalars = rng.uniform(-1, 1, g.shape), rng.uniform(-1, 1, 7)
        edges = rng.uniform(-1, 1, (4, 7))
        scale = 10.0**k
        z20, z02, z20_h2, z02_h1 = (GridFn(axis, scale * e)
                                    for axis, e in zip((g.g1, g.g2, g.g1, g.g2), edges))
        data = NonClassicalData(*(scale * scalars), z20=z20, z02=z02, z20_h2=z20_h2, z02_h1=z02_h1)
        try:
            sol = solve_dirichlet(DirichletProblem(g, coeffs, GridFn(g, scale * rhs), data))
        except np.linalg.LinAlgError:
            assert k >= 300  # only near the end of the float range
            return
        d = sol.diagnostics
        assert np.all(np.isfinite(sol.theta))
        assert all(np.all(np.isfinite(f.values)) for row in sol.field.d for f in row)
        assert np.all(np.isfinite([d.closure_residual, d.equation_residual,
                                   *dataclasses.asdict(d.compat).values(),
                                   *d.condition_residuals.values(), *d.coefficient_norms.values()]))


class TestOutputsOwnTheirMemory:
    """The solves release their work arrays early; what they return must
    still be arrays of their own, and what they are given must be left as
    it was, bit for bit."""

    @staticmethod
    def check(inputs, call):
        before = [a.tobytes() for a in inputs]
        outputs = call()
        for a, b in itertools.combinations(outputs, 2):
            assert not np.shares_memory(a, b)
        for a, b in itertools.product(outputs, inputs):
            assert not np.shares_memory(a, b)
        assert [a.tobytes() for a in inputs] == before

    @staticmethod
    def case(exprs):
        g = Grid2D(make_grid(1.0, 6), make_grid(0.7, 9))
        case = manufactured_problem("sin(x1)*exp(x2) + x1^2*x2",
                                    Coefficients.from_exprs(g, exprs), g)
        p = case.problem
        coeffs = [getattr(p.coeffs, name).values for name in COEFFICIENT_NAMES]
        edges = [p.data.value(name) for name in
                 NonClassicalData.X1_FUNCTIONS + NonClassicalData.X2_FUNCTIONS]
        return case, [p.rhs.values, *coeffs, *edges, g.g1.nodes, g.g2.nodes]

    @staticmethod
    def grids(field):
        return [fn.values for row in field.d for fn in row]

    @pytest.mark.parametrize("exprs", [{}, {"a00": "1", "a21": "x1", "a12": "1+x2",
                                            "a11": "sin(x1*x2)"}], ids=["free", "mixed"])
    def test_solves(self, exprs):
        case, inputs = self.case(exprs)
        p = case.problem

        def dirichlet():
            s = solve_dirichlet(p)
            return self.grids(s.field) + [s.theta]

        self.check(inputs, dirichlet)
        t = case.reference
        traces = TraceSet(p.data.z00, p.data.z10, p.data.z01, t.d[1][1].values[0, 0],
                          p.data.z20, GridFn(p.grid.g1, t.d[2][1].values[:, 0]),
                          p.data.z02, GridFn(p.grid.g2, t.d[1][2].values[0, :]))
        inputs += [traces.g1.values, traces.g2.values]

        def goursat():
            s = solve_goursat(GoursatProblem(traces, p.coeffs, p.rhs))
            return self.grids(s.field) + [s.w.values]

        self.check(inputs, goursat)
        inputs.append(t.w.values)
        self.check(inputs, lambda: self.grids(reconstruct_field(traces, t.w)))
