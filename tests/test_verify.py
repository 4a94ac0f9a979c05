import numpy as np
import pytest

import ppde.verify
from ppde.expr import parse
from ppde.grid import Grid2D, GridFn2D, make_grid
from ppde.problem import Coefficients
from ppde.representation import DerivativeField, extract_traces
from ppde.verify import (
    ConvergenceRow,
    ConvergenceTable,
    convergence_study,
    manufactured_problem,
    sobolev_norm,
)


def unit_square(n):
    return Grid2D(make_grid(1.0, n), make_grid(1.0, n))


def scaled_field(field, alpha):
    return DerivativeField(field.grid, [
        [GridFn2D(field.grid, alpha * field.d[i][j].values) for j in range(3)]
        for i in range(3)
    ])


def summed_field(a, b):
    return DerivativeField(a.grid, [
        [GridFn2D(a.grid, a.d[i][j].values + b.d[i][j].values) for j in range(3)]
        for i in range(3)
    ])


def random_field(grid, rng):
    return DerivativeField(grid, [
        [GridFn2D(grid, rng.normal(size=grid.shape)) for _ in range(3)]
        for _ in range(3)
    ])


class TestManufacturedProblem:
    def test_quartic(self):
        g = unit_square(8)
        coeffs = Coefficients.from_exprs(g, {"a00": "1"})
        case = manufactured_problem("x1^2*x2^2", coeffs, g)
        z = case.problem.data
        for name in z.SCALARS:
            assert getattr(z, name) == 0.0
        np.testing.assert_array_equal(z.z20.values, np.zeros(9))
        np.testing.assert_array_equal(z.z02.values, np.zeros(9))
        np.testing.assert_array_equal(z.z20_h2.values, 2 * np.ones(9))
        np.testing.assert_array_equal(z.z02_h1.values, 2 * np.ones(9))
        X1 = g.g1.nodes[:, None]
        X2 = g.g2.nodes[None, :]
        np.testing.assert_allclose(case.problem.rhs.values, 4 + X1**2 * X2**2, atol=1e-13)

    def test_zero(self):
        g = unit_square(4)
        case = manufactured_problem("0", Coefficients.zeros(g), g)
        z = case.problem.data
        assert all(getattr(z, name) == 0.0 for name in z.SCALARS)
        np.testing.assert_array_equal(case.problem.rhs.values, np.zeros(g.shape))

    def test_linear(self):
        g = unit_square(4)
        case = manufactured_problem("x1 + x2", Coefficients.zeros(g), g)
        z = case.problem.data
        assert (z.z10, z.z01, z.z00_h1, z.z00_h2, z.z01_h1, z.z10_h2) == (1.0,) * 6
        assert z.z00 == 0.0
        for fn in (z.z20, z.z02, z.z20_h2, z.z02_h1):
            np.testing.assert_array_equal(fn.values, np.zeros(5))
        np.testing.assert_array_equal(case.problem.rhs.values, np.zeros(g.shape))


class TestConvergenceStudy:
    def test_exact_regime_bilinear(self):
        table = convergence_study("1 + x1 + x2 + x1*x2", {}, (1.0, 1.0), [8, 16])
        for row in table.rows:
            assert row.max_error <= 1e-10

    def test_exact_regime_quartic_with_a00(self):
        # The polynomial case of acceptance criterion 6: the trapezoid rule
        # reproduces it, so its error is roundoff at every grid, and an
        # observed order between roundoff errors says nothing.
        table = convergence_study("x1^2*x2^2 + x1*x2", {"a00": "1"}, (1.0, 1.0), [16, 32, 64])
        for row in table.rows:
            assert row.max_error <= 1e-13, row

    def test_sine_orders(self):
        table = convergence_study("sin(x1)*sin(x2)", {}, (1.0, 1.0), [16, 32])
        assert table.rows[1].observed_order >= 1.8

    def test_needs_two_grids(self):
        with pytest.raises(ValueError):
            convergence_study("x1", {}, (1.0, 1.0), [16])

    @pytest.mark.parametrize("ns", [[8, 12], [0, 0], [8]])
    def test_grid_sizes_checked_before_any_solve(self, monkeypatch, ns):
        def no_solve(problem):
            raise AssertionError("solved before the grid sizes were checked")

        monkeypatch.setattr(ppde.verify, "solve_dirichlet", no_solve)
        with pytest.raises(ValueError, match="doubling"):
            convergence_study("x1", {}, (1.0, 1.0), ns)

    def test_doubling_enforced(self):
        with pytest.raises(ValueError):
            ConvergenceTable([
                ConvergenceRow(8, 1.0, 1.0, float("nan")),
                ConvergenceRow(24, 0.5, 0.5, 1.0),
            ])

    def test_csv_shape(self):
        table = convergence_study("x1*x2", {}, (1.0, 1.0), [4, 8])
        lines = table.as_csv().strip().splitlines()
        assert lines[0] == "n,max_error,l2_error,observed_order"
        assert len(lines) == 3
        assert lines[1].startswith("4,")


class TestSobolevNorm:
    def test_bilinear_l2(self):
        # nonzero terms: |x1 x2|, |x2|, |x1|, |1| -> 1/3 + 2/sqrt(3) + 1
        g = unit_square(64)
        _, _, field = extract_traces(parse("x1*x2"), g)
        expected = 1.0 / 3.0 + 2.0 / np.sqrt(3.0) + 1.0
        assert sobolev_norm(field, 2) == pytest.approx(expected, abs=1e-3)

    def test_bilinear_sup(self):
        g = unit_square(64)
        _, _, field = extract_traces(parse("x1*x2"), g)
        assert sobolev_norm(field, np.inf) == pytest.approx(4.0, abs=1e-12)

    def test_zero_field(self):
        g = unit_square(8)
        _, _, field = extract_traces(parse("0"), g)
        for p in (1, 2, np.inf):
            assert sobolev_norm(field, p) == 0.0

    def test_homogeneity(self):
        rng = np.random.default_rng(17)
        field = random_field(unit_square(10), rng)
        for alpha in (-3.0, 0.5):
            assert sobolev_norm(scaled_field(field, alpha), 2) == pytest.approx(
                abs(alpha) * sobolev_norm(field, 2), rel=1e-12
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(23)
        g = unit_square(9)
        for _ in range(5):
            a = random_field(g, rng)
            b = random_field(g, rng)
            for p in (1, 2, np.inf):
                assert sobolev_norm(summed_field(a, b), p) <= (
                    sobolev_norm(a, p) + sobolev_norm(b, p) + 1e-12
                )

    def test_dominates_components(self):
        from ppde.grid import lp_norm
        rng = np.random.default_rng(29)
        field = random_field(unit_square(7), rng)
        for p in (1, 2, np.inf):
            total = sobolev_norm(field, p)
            for i in range(3):
                for j in range(3):
                    assert total >= lp_norm(field.d[i][j], p) - 1e-12
