import numpy as np
import pytest

from ppde.grid import (
    Grid2D,
    GridFn1D,
    GridFn2D,
    lp_norm,
    make_grid,
    mixed_norm,
    orders,
)


def fn1(grid, f):
    return GridFn1D(grid, f(grid.nodes))


def fn2(grid, f):
    X1 = grid.g1.nodes[:, None]
    X2 = grid.g2.nodes[None, :]
    return GridFn2D(grid, np.broadcast_to(np.asarray(f(X1, X2), dtype=float), grid.shape))


def cumulative(f):
    """Node values of int_0^x f(t) dt for a GridFn1D f."""
    return orders(f.values, f.grid.nodes, f.grid.h)[1]


def remainder(f):
    """Node values of int_0^x (x - t) f(t) dt for a GridFn1D f."""
    return orders(f.values, f.grid.nodes, f.grid.h)[0]


def unit_square(n):
    return Grid2D(make_grid(1.0, n), make_grid(1.0, n))


class TestMakeGrid:
    def test_nodes(self):
        g = make_grid(1.0, 4)
        np.testing.assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single_interval(self):
        g = make_grid(2.0, 1)
        np.testing.assert_array_equal(g.nodes, [0.0, 2.0])

    @pytest.mark.parametrize("length,n", [(1.0, 0), (0.0, 4), (-1.0, 4), (np.inf, 4)])
    def test_invalid(self, length, n):
        with pytest.raises(ValueError):
            make_grid(length, n)

    def test_invariants(self):
        g = make_grid(0.7, 13)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 0.7
        assert np.all(np.diff(g.nodes) > 0)
        # spacings agree with h to within one unit of roundoff at node scale
        np.testing.assert_allclose(np.diff(g.nodes), g.h, atol=np.spacing(g.length))


class TestGridFnValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            GridFn1D(make_grid(1.0, 4), [1.0, 2.0])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            GridFn1D(make_grid(1.0, 2), [0.0, np.nan, 1.0])

    def test_wrong_shape_2d(self):
        g = unit_square(2)
        with pytest.raises(ValueError):
            GridFn2D(g, np.zeros((2, 3)))

    def test_values_are_a_read_only_copy(self):
        source = np.array([0.0, 1.0, 2.0])
        f1 = GridFn1D(make_grid(1.0, 2), source)
        source[0] = 5.0  # the caller's array stays writable, and the copy does not follow
        assert f1.values[0] == 0.0
        f2 = GridFn2D(unit_square(2), np.ones((3, 3)))
        with pytest.raises(ValueError, match="read-only"):
            f1.values[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            f2.values += 1.0
        np.testing.assert_array_equal(f2.values, 1.0)


class TestCumulativeIntegral:
    def test_constant_exact(self):
        g = make_grid(1.0, 4)
        F = cumulative(fn1(g, lambda t: np.ones_like(t)))
        np.testing.assert_array_equal(F, g.nodes)

    def test_linear_exact(self):
        g = make_grid(1.0, 4)
        F = cumulative(fn1(g, lambda t: t))
        np.testing.assert_allclose(F, g.nodes**2 / 2, atol=1e-16)
        assert F[-1] == 0.5

    def test_quadratic_hand_value(self):
        # trapezoid sum over node values 0, 0.375, 1.5, 3.375, 6
        g = make_grid(1.0, 4)
        F = cumulative(fn1(g, lambda t: 6 * t**2))
        np.testing.assert_allclose(
            F, [0.0, 0.046875, 0.28125, 0.890625, 2.0625], atol=1e-15
        )

    def test_starts_at_zero(self):
        g = make_grid(2.0, 7)
        F = cumulative(fn1(g, np.sin))
        assert F[0] == 0.0


class TestTaylorRemainderIntegral:
    def test_zero(self):
        g = make_grid(1.0, 5)
        R = remainder(GridFn1D.zeros(g))
        np.testing.assert_array_equal(R, np.zeros(6))

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_constant_exact(self, n):
        g = make_grid(1.0, n)
        R = remainder(fn1(g, lambda t: 2 * np.ones_like(t)))
        np.testing.assert_allclose(R, g.nodes**2, atol=1e-15)

    def test_linear_hand_value(self):
        # x*C0 - C1 at x=1 with f = 6t: 3 - 2.0625
        g = make_grid(1.0, 4)
        R = remainder(fn1(g, lambda t: 6 * t))
        assert abs(R[-1] - 0.9375) < 1e-15

    def test_matches_double_cumulative(self):
        # both discretize the iterated integral of f; agree to O(h^2)
        g = make_grid(1.0, 32)
        f = fn1(g, np.sin)
        R = remainder(f)
        CC = cumulative(GridFn1D(g, cumulative(f)))
        assert np.max(np.abs(R - CC)) <= 10 * g.h**2


class TestCumulativeIntegrals2D:
    def test_each_axis_matches_the_1d_sweeps(self):
        rng = np.random.default_rng(11)
        g = Grid2D(make_grid(1.3, 6), make_grid(0.7, 4))
        values = rng.normal(size=g.shape)
        X1 = g.g1.nodes[:, None]
        X2 = g.g2.nodes[None, :]
        along_x1 = orders(values, X1, g.g1.h, axis=0)
        along_x2 = orders(values, X2, g.g2.h, axis=1)
        for j in range(g.shape[1]):
            for got, want in zip(along_x1, orders(values[:, j], g.g1.nodes, g.g1.h)):
                np.testing.assert_array_equal(got[:, j], want)
        for i in range(g.shape[0]):
            for got, want in zip(along_x2, orders(values[i, :], g.g2.nodes, g.g2.h)):
                np.testing.assert_array_equal(got[i, :], want)


class TestLinearity:
    def test_both_operators(self):
        rng = np.random.default_rng(7)
        g = make_grid(1.3, 17)
        for op in (cumulative, remainder):
            f1 = GridFn1D(g, rng.normal(size=18))
            f2 = GridFn1D(g, rng.normal(size=18))
            a, b = 2.5, -1.25
            combo = op(GridFn1D(g, a * f1.values + b * f2.values))
            split = a * op(f1) + b * op(f2)
            np.testing.assert_allclose(combo, split, atol=1e-13)


class TestRefinementOrder:
    def test_second_order(self):
        # max-node error against the analytic antiderivatives of sin
        errors_c, errors_t = [], []
        for n in (16, 32, 64):
            g = make_grid(1.0, n)
            f = fn1(g, np.sin)
            ec = np.max(np.abs(cumulative(f) - (1 - np.cos(g.nodes))))
            et = np.max(
                np.abs(remainder(f) - (g.nodes - np.sin(g.nodes)))
            )
            errors_c.append(ec)
            errors_t.append(et)
        for errs in (errors_c, errors_t):
            orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
            assert np.all(orders >= 1.8)


class TestLpNorm:
    def test_constant(self):
        g = make_grid(1.0, 8)
        assert lp_norm(fn1(g, lambda t: np.ones_like(t)), 2) == pytest.approx(1.0, abs=1e-14)

    def test_sup_is_exact_max(self):
        rng = np.random.default_rng(3)
        g = unit_square(9)
        f = GridFn2D(g, rng.normal(size=g.shape))
        assert lp_norm(f, np.inf) == np.max(np.abs(f.values))

    def test_bilinear_sup(self):
        f = fn2(unit_square(8), lambda a, b: a * b)
        assert lp_norm(f, np.inf) == 1.0

    def test_bilinear_l2(self):
        # analytic: sqrt(1/9)
        f = fn2(unit_square(64), lambda a, b: a * b)
        assert lp_norm(f, 2) == pytest.approx(1.0 / 3.0, abs=1e-3)

    @pytest.mark.parametrize("p", [0.5, 0.0, -2, np.nan])
    def test_bad_exponent(self, p):
        g = make_grid(1.0, 4)
        with pytest.raises(ValueError):
            lp_norm(GridFn1D.zeros(g), p)


class TestMixedNorm:
    def test_zero(self):
        assert mixed_norm(GridFn2D.zeros(unit_square(6)), np.inf, 2) == 0.0

    def test_sup_x1_then_l2_of_x2(self):
        # sup over x1 of |x2| is x2; L2 of x2 on [0,1] is 1/sqrt(3)
        f = fn2(unit_square(64), lambda a, b: b + 0 * a)
        assert mixed_norm(f, np.inf, 2) == pytest.approx(1 / np.sqrt(3), abs=1e-3)

    def test_sup_x1_of_x1(self):
        # sup over x1 of |x1| is the constant 1; its L2 over x2 is 1
        f = fn2(unit_square(64), lambda a, b: a + 0 * b)
        assert mixed_norm(f, np.inf, 2) == pytest.approx(1.0, abs=1e-9)

    def test_reverse_pairing(self):
        # L2 over x1 of x2 is x2/1... the x1-norm of the constant-in-x1
        # slice equals |x2|, then sup over x2 gives 1
        f = fn2(unit_square(32), lambda a, b: b + 0 * a)
        assert mixed_norm(f, 2, np.inf) == pytest.approx(1.0, abs=1e-9)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            mixed_norm(GridFn2D.zeros(unit_square(4)), 0.5, 2)
