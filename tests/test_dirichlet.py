import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _families import coefficient_subsets
from ppde.dirichlet import (
    ClosureSystem,
    DirichletProblem,
    _solve_least_squares,
    assemble_closure_system,
    residual_report,
    solve_classical,
    solve_dirichlet,
)
from ppde.goursat import GoursatProblem, MarchingError, solve_goursat
from ppde.grid import Grid2D, GridFn1D, GridFn2D, make_grid
from ppde.problem import (
    COEFFICIENT_NAMES,
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
                      p.data.z20, GridFn1D(p.grid.g1, theta[1:n1 + 2]),
                      p.data.z02, GridFn1D(p.grid.g2, theta[n1 + 2:]))
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


def traced_peak(f, *args):
    """tracemalloc peak of f(*args) in bytes; the first call's allocations do not count."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
                                   GridFn2D.zeros(g), NonClassicalData.zeros(g))
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
        # the unit-trace march overflows; the error says it came from the closure
        g = unit_square(6)
        coeffs = Coefficients.from_exprs(g, {"a00": "1e200"})
        problem = DirichletProblem(g, coeffs, GridFn2D.zeros(g), NonClassicalData.zeros(g))
        with pytest.raises(MarchingError, match="closure.*non-finite"):
            assemble_closure_system(problem)

    def test_matches_dense_probing(self):
        g = Grid2D(make_grid(1.0, 6), make_grid(0.8, 7))
        exprs = {"a21": "x1", "a12": "1+x2", "a20": "0.5", "a02": "-x1*x2",
                 "a11": "sin(x1*x2)", "a10": "x2", "a01": "0.3", "a00": "1"}
        rng = np.random.default_rng(5)
        data = NonClassicalData(
            *rng.normal(size=7),
            z20=GridFn1D(g.g1, rng.normal(size=7)), z02=GridFn1D(g.g2, rng.normal(size=8)),
            z20_h2=GridFn1D(g.g1, rng.normal(size=7)), z02_h1=GridFn1D(g.g2, rng.normal(size=8)))
        rhs = GridFn2D(g, rng.normal(size=g.shape))
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
        # known row.  At n = 64 with the benchmark's four-coefficient mix the
        # assembly peaks in the march at about 0.869 MB; one more 65 x 65
        # temporary alive across a march row (33 KB) exceeds the bound.
        assert traced_peak(assemble_closure_system, mixed64_problem()) <= 0.90e6

    def test_solve_peak_memory(self):
        # The whole solve, which the benchmark reports as peak_mb, peaks in
        # the closure march at about 0.870 MB on the same problem.  The final
        # Goursat solve's reconstruct_field, which read 0.896 MB while it
        # held the whole trace part and every sweep of w to its end, now
        # stays near 0.48 MB.
        assert traced_peak(solve_dirichlet, mixed64_problem()) <= 0.92e6

    def test_coefficient_free_solve_peak_memory(self):
        # With no coefficient the march is cheap, and the solve peaks in the
        # final reconstruct_field at about 1.876 MB for n = 128: the field's
        # nine 129 x 129 grids (1.20 MB) are made while w, the trace part and
        # the first sweeps of w are alive.  It read 3.48 MB while the solve
        # kept the closure system, every trace-part entry and every sweep
        # alive to the end, and formed the products of all-zero coefficients;
        # keeping the 0.54 MB closure system alone would exceed the bound.
        g = unit_square(128)
        p = manufactured_problem("sin(x1)*exp(x2) + x1^2*x2", Coefficients.zeros(g), g).problem
        assert traced_peak(solve_dirichlet, p) <= 2.05e6

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
                                   GridFn2D.zeros(g), NonClassicalData.zeros(g))
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
            DirichletProblem(g, Coefficients.zeros(g), GridFn2D.zeros(g),
                             NonClassicalData.zeros(g), tol=0.0)
        with pytest.raises(ValueError):
            DirichletProblem(g, Coefficients.zeros(g), GridFn2D.zeros(g),
                             NonClassicalData.zeros(g), max_iter=0)
        with pytest.raises(ValueError, match="ridge"):
            DirichletProblem(g, Coefficients.zeros(g), GridFn2D.zeros(g),
                             NonClassicalData.zeros(g), ridge=float("nan"))
        with pytest.raises(ValueError):
            DirichletProblem(g, Coefficients.zeros(unit_square(5)),
                             GridFn2D.zeros(g), NonClassicalData.zeros(g))

    def test_small_ridge_barely_moves_theta(self):
        case = poly_case(8)
        p = case.problem
        plain = solve_dirichlet(p)
        ridged = solve_dirichlet(DirichletProblem(p.grid, p.coeffs, p.rhs, p.data,
                                                  tol=p.tol, ridge=1e-12))
        assert np.max(np.abs(plain.theta - ridged.theta)) <= 1e-6

    def test_rank_collapse_warns_not_fatal(self):
        n = 1
        system = ClosureSystem(np.zeros((6, 5)), np.zeros(6), n, n)
        with pytest.warns(RuntimeWarning, match="rank"):
            theta = _solve_least_squares(system, 0.0)
        np.testing.assert_array_equal(theta, np.zeros(5))

    def test_single_rank_loss_warns(self):
        # rank ncols - 1: the fifth column repeats the fourth
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(6, 5))
        matrix[:, 4] = matrix[:, 3]
        system = ClosureSystem(matrix, rng.normal(size=6), 1, 1)
        with pytest.warns(RuntimeWarning, match="rank 4 < 5"):
            _solve_least_squares(system, 0.0)

    def test_least_squares_optimality(self):
        # attained residual matches the pseudoinverse optimum
        case = poly_case(8)
        system = assemble_closure_system(case.problem)
        theta = _solve_least_squares(system, 0.0)
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
            z20=GridFn1D(g.g1, rng.normal(size=13)), z02=GridFn1D(g.g2, rng.normal(size=16)),
            z20_h2=GridFn1D(g.g1, rng.normal(size=13)), z02_h1=GridFn1D(g.g2, rng.normal(size=16)))
        p = DirichletProblem(g, coeffs, GridFn2D(g, rng.normal(size=g.shape)), data)
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
                z20=GridFn1D(g.g1, rng.normal(size=9)),
                z02=GridFn1D(g.g2, rng.normal(size=9)),
                z20_h2=GridFn1D(g.g1, rng.normal(size=9)),
                z02_h1=GridFn1D(g.g2, rng.normal(size=9)),
            )
            rhs = GridFn2D(g, rng.normal(size=g.shape))
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
            z20=GridFn1D(g.g1, rng.normal(size=n + 1)), z02=GridFn1D(g.g2, rng.normal(size=n + 1)),
            z20_h2=GridFn1D(g.g1, rng.normal(size=n + 1)),
            z02_h1=GridFn1D(g.g2, rng.normal(size=n + 1)))
        rhs = GridFn2D(g, rng.normal(size=g.shape))
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
        sol = solve_classical(Coefficients.zeros(g), GridFn2D.zeros(g), d, g)
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
        rhs = GridFn2D(g, X1**2 + X2**2)
        sol = solve_classical(coeffs, rhs, d, g)
        assert np.max(np.abs(sol.field.u.values - (X1**2 + X2**2))) <= 10 * g.g1.h**2


class TestResidualReport:
    def test_idempotent(self):
        case = poly_case(8)
        sol = solve_dirichlet(case.problem)
        rep = residual_report(sol, case.problem)
        assert rep.compat == sol.diagnostics.compat
        assert rep.equation_residual == sol.diagnostics.equation_residual
        assert rep.condition_residuals == sol.diagnostics.condition_residuals
        assert rep.closure_residual == sol.diagnostics.closure_residual

    def test_zero_solution(self):
        g = unit_square(4)
        problem = DirichletProblem(g, Coefficients.zeros(g), GridFn2D.zeros(g),
                                   NonClassicalData.zeros(g))
        sol = solve_dirichlet(problem)
        rep = residual_report(sol, problem)
        assert rep.equation_residual == 0.0
        assert all(v == 0.0 for v in rep.condition_residuals.values())

    def test_grid_mismatch(self):
        case = poly_case(8)
        sol = solve_dirichlet(case.problem)
        with pytest.raises(ValueError):
            residual_report(sol, poly_case(4).problem)


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
                *scalars, z20=GridFn1D(g.g1, z20), z02=GridFn1D(g.g2, z02),
                z20_h2=GridFn1D(g.g1, z20_h2), z02_h1=GridFn1D(g.g2, z02_h1))
            problem = DirichletProblem(g, coeffs, GridFn2D(g, rhs), data)
            return solve_dirichlet(problem).field.u.values

        (r1, s1, e1), (r2, s2, e2) = random_data(), random_data()
        both = solve(r1 + r2, s1 + s2, [a + b for a, b in zip(e1, e2)])
        each = solve(r1, s1, e1) + solve(r2, s2, e2)
        assert np.max(np.abs(both - each)) <= 1e-10 * (1.0 + np.max(np.abs(each)))


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
                          p.data.z20, GridFn1D(p.grid.g1, t.d[2][1].values[:, 0]),
                          p.data.z02, GridFn1D(p.grid.g2, t.d[1][2].values[0, :]))
        inputs += [traces.g1.values, traces.g2.values]

        def goursat():
            s = solve_goursat(GoursatProblem(traces, p.coeffs, p.rhs))
            return self.grids(s.field) + [s.w.values]

        self.check(inputs, goursat)
        inputs.append(t.w.values)
        self.check(inputs, lambda: self.grids(reconstruct_field(traces, t.w)))
