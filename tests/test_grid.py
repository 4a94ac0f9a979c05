import ast
import gc
import itertools
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _families import unit_square
import ppde
from ppde.goursat import MarchingError
from ppde.grid import (
    Grid2D,
    GridFn,
    NonFiniteError,
    NumericalError,
    lp_norm,
    make_grid,
    mixed_norm,
    order_table,
    orders,
    stage,
)


def fn1(grid, f):
    return GridFn(grid, f(grid.nodes))


def fn2(grid, f):
    X1 = grid.g1.nodes[:, None]
    X2 = grid.g2.nodes[None, :]
    return GridFn(grid, np.broadcast_to(np.asarray(f(X1, X2), dtype=float), grid.shape))


def cumulative(f):
    """Node values of int_0^x f(t) dt for a GridFn f."""
    return orders(f.values, f.grid)[1]


def remainder(f):
    """Node values of int_0^x (x - t) f(t) dt for a GridFn f."""
    return orders(f.values, f.grid)[0]


class TestMakeGrid:
    def test_nodes(self):
        g = make_grid(1.0, 4)
        np.testing.assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_repr_names_both_axes(self):
        g = Grid2D(make_grid(1.5, 3), make_grid(0.7, 2))
        assert repr(g) == "Grid2D(Grid1D(length=1.5, n=3), Grid1D(length=0.7, n=2))"

    def test_single_interval(self):
        g = make_grid(2.0, 1)
        np.testing.assert_array_equal(g.nodes, [0.0, 2.0])

    @pytest.mark.parametrize("length,n", [(1.0, 0), (0.0, 4), (-1.0, 4), (np.inf, 4)])
    def test_invalid(self, length, n):
        with pytest.raises(ValueError):
            make_grid(length, n)

    @pytest.mark.parametrize("n", [10**20, 2**62, 2**63 - 1])
    def test_count_numpy_cannot_size_is_rejected_before_any_allocation(self, n):
        with pytest.raises(ValueError, match=f"too large for an array of nodes, got {n}$"):
            make_grid(1.0, n)

    @pytest.mark.parametrize("n", [4.5, np.float64(4.7), float("inf"), -float("inf"), float("nan")])
    def test_count_that_is_not_a_whole_number_is_rejected(self, n):
        with pytest.raises(ValueError, match=f"must be a whole number, got {n}$"):
            make_grid(1.0, n)

    @pytest.mark.parametrize("n", [4, 4.0, np.float64(4.0), np.int32(4), np.int64(4), np.uint8(4)])
    def test_whole_numbers_of_any_type_are_counts(self, n):
        g = make_grid(1.0, n)
        assert g.n == 4 and type(g.n) is int
        assert g.shape == (5,) == g.nodes.shape

    @pytest.mark.parametrize("axes", [(None, make_grid(1.0, 2)), (make_grid(1.0, 2), [0.0, 1.0]),
                                      (unit_square(2), make_grid(1.0, 2))])
    def test_grid2d_needs_two_grid1d_axes(self, axes):
        with pytest.raises(ValueError, match="^Grid2D needs two Grid1D axes$"):
            Grid2D(*axes)

    def test_equal_grids_hash_equal(self):
        a, b = make_grid(1.3, 6), make_grid(1.3, 6.0)
        assert a == b and hash(a) == hash(b) and len({a, b, make_grid(1.3, 7)}) == 2
        c, d = Grid2D(a, make_grid(0.7, 4)), Grid2D(b, make_grid(0.7, 4))
        assert c == d and hash(c) == hash(d) and len({c, d, Grid2D(make_grid(0.7, 4), a)}) == 2
        assert a != c and c != a

    def test_grids_are_freed_by_reference_counting_alone(self):
        # No grid refers to itself, so none waits for the cyclic collector.
        enabled = gc.isenabled()
        gc.disable()
        try:
            g1 = make_grid(1.0, 4)
            grid = Grid2D(g1, make_grid(2.0, 3))
            assert g1.axes == (g1,) and grid.axes == (g1, grid.g2)
            refs = [weakref.ref(g1), weakref.ref(grid)]
            del g1, grid
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_invariants(self):
        g = make_grid(0.7, 13)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 0.7
        assert np.all(np.diff(g.nodes) > 0)
        # spacings agree with h to within one unit of roundoff at node scale
        np.testing.assert_allclose(np.diff(g.nodes), g.h, atol=np.spacing(g.length))


class TestGridFnValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError, match=r"values shape \(2,\) does not match grid shape \(5,\)"):
            GridFn(make_grid(1.0, 4), [1.0, 2.0])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            GridFn(make_grid(1.0, 2), [0.0, np.nan, 1.0])

    @pytest.mark.parametrize("grid, kind", [(None, "NoneType"), ([0.0, 1.0], "list"),
                                            (np.zeros(3), "ndarray")])
    def test_a_non_grid_is_named(self, grid, kind):
        with pytest.raises(ValueError, match=f"^grid must be a Grid1D or a Grid2D, got {kind}$"):
            GridFn(grid, np.zeros(3))

    def test_values_shaped_for_the_other_grid(self):
        # one type for both grids: the values' shape alone says which grid they fit
        g = unit_square(2)
        with pytest.raises(ValueError, match=r"^values shape \(3, 3\) does not match grid shape \(3,\)$"):
            GridFn(g.g1, np.zeros(g.shape))
        with pytest.raises(ValueError, match=r"^values shape \(3,\) does not match grid shape \(3, 3\)$"):
            GridFn(g, np.zeros(g.g1.shape))
        assert GridFn(g.g1, np.zeros(3)).grid == g.g1 != GridFn(g, np.zeros((3, 3))).grid

    def test_wrong_shape_2d(self):
        g = unit_square(2)
        with pytest.raises(ValueError):
            GridFn(g, np.zeros((2, 3)))

    def test_values_are_a_read_only_copy(self):
        source = np.array([0.0, 1.0, 2.0])
        f1 = GridFn(make_grid(1.0, 2), source)
        source[0] = 5.0  # the caller's array stays writable, and the copy does not follow
        assert f1.values[0] == 0.0
        f2 = GridFn(unit_square(2), np.ones((3, 3)))
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
        R = remainder(GridFn.zeros(g))
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
        CC = cumulative(GridFn(g, cumulative(f)))
        assert np.max(np.abs(R - CC)) <= 10 * g.h**2


class TestCumulativeIntegrals2D:
    def test_each_axis_matches_the_1d_sweeps(self):
        rng = np.random.default_rng(11)
        g = Grid2D(make_grid(1.3, 6), make_grid(0.7, 4))
        values = rng.normal(size=g.shape)
        along_x1 = orders(values, g.g1, axis=0)
        along_x2 = orders(values, g.g2, axis=1)
        for j in range(g.shape[1]):
            for got, want in zip(along_x1, orders(values[:, j], g.g1)):
                np.testing.assert_array_equal(got[:, j], want)
        for i in range(g.shape[0]):
            for got, want in zip(along_x2, orders(values[i, :], g.g2)):
                np.testing.assert_array_equal(got[i, :], want)


@pytest.mark.parametrize("length, n", [(1.0, 1), (1.0, 2), (0.7, 5), (1.3, 16), (2.0, 33)])
class TestOrderTable:
    def test_exact_for_affine_and_constant_integrands(self, length, n):
        g = make_grid(length, n)
        R, C, I = order_table(g)
        x = g.nodes
        np.testing.assert_array_equal(I, np.eye(n + 1))
        np.testing.assert_allclose(C @ (3.0 - 2.0 * x), 3.0 * x - x**2, rtol=0, atol=1e-14)
        np.testing.assert_allclose(C @ np.ones(n + 1), x, rtol=0, atol=1e-14)
        np.testing.assert_allclose(R @ np.full(n + 1, 2.0), x**2, rtol=0, atol=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0))
    def test_exact_for_drawn_affine_and_constant_integrands(self, length, n, a, b):
        # C[a + b t](x) = a x + b x^2 / 2 and R[a](x) = a x^2 / 2, to a few
        # roundings of each result's size.  The worst of about 10^5 seeded
        # draws on these grids read 4.2 eps (|a| L + |b| L^2) for C and
        # 1.7 eps |a| L^2 for R; 1e-320 covers subnormal a and b.
        g = make_grid(length, n)
        R, C, _ = order_table(g)
        x, eps = g.nodes, np.finfo(float).eps
        np.testing.assert_allclose(C @ (a + b * x), a * x + b * x**2 / 2, rtol=0,
                                   atol=8 * eps * (abs(a) * length + abs(b) * length**2) + 1e-320)
        np.testing.assert_allclose(R @ np.full(n + 1, a), a * x**2 / 2, rtol=0,
                                   atol=4 * eps * abs(a) * length**2 + 1e-320)

    def test_lower_triangular_with_an_empty_first_row(self, length, n):
        table = order_table(make_grid(length, n))
        for T in table:
            assert np.all(np.triu(T, 1) == 0.0)
        assert np.all(table[:2, 0] == 0.0)
        assert np.all(np.diagonal(table[0]) == 0.0)

    def test_each_row_of_C_is_a_running_sum_plus_a_diagonal(self, length, n):
        # goursat.march reads its x1 weights as C[i, i] and C[k + 1, k]:
        # the latter must be every later row's weight of node k, bit for bit.
        C = order_table(make_grid(length, n))[1]
        for k in range(n):
            assert np.all(C[k + 1:, k] == C[k + 1, k]), k


def package_trees():
    """(file name, AST) for every module of the package."""
    for path in sorted(Path(ppde.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def package_nodes():
    """(file name, node) for every AST node of every module of the package."""
    for name, tree in package_trees():
        for node in ast.walk(tree):
            yield name, node


def test_only_grid_reads_the_spacing():
    # grid.py alone knows that the grid is uniform and the quadrature
    # trapezoidal, and in it only the two functions that hold the trapezoid
    # rule read the spacing h: no other code of the package reads, writes or
    # deletes an attribute h.  Grid1D alone sets it, in its __init__.
    rule = {("grid.py", "cumtrapz"), ("grid.py", "_integral")}
    readers = [f"{name}:{node.lineno}" for name, tree in package_trees()
               for top in tree.body if (name, getattr(top, "name", None)) not in rule
               for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr == "h"
               and not ((name, getattr(top, "name", None)) == ("grid.py", "Grid1D")
                        and isinstance(node.ctx, ast.Store))]
    assert not readers


def test_only_grid_asks_which_grid():
    # One grid-function type serves both grids, so no module but grid.py
    # branches on a grid's or a grid function's type.
    kinds = {"Grid1D", "Grid2D", "GridFn", "GridFn1D", "GridFn2D"}
    askers = [f"{name}:{node.lineno}" for name, node in package_nodes()
              if name != "grid.py" and isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2
              and kinds & {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}]
    assert not askers


def test_no_module_imports_a_private_name():
    # An underscore name is its own module's business: a rule that another
    # module needs gets a public name in the module that owns it.
    imports = [f"{name}:{node.lineno} {alias.name}" for name, node in package_nodes()
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "ppde")
               for alias in node.names if alias.name.startswith("_")]
    assert not imports


def test_every_import_is_used():
    # No linter runs on the package: each module's imports are read in the
    # module or listed in its __all__.  ppde/__init__.py only re-exports, and
    # representation.py keeps cumtrapz for perfbench/tracing.py to patch.
    imported, used = {}, {("representation.py", "cumtrapz")}
    for name, node in package_nodes():
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported[name, alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add((name, node.id))
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            used.update((name, elt.value) for elt in node.value.elts)
    unused = [f"{name}:{line} {bound}" for (name, bound), line in imported.items()
              if (name, bound) not in used and name != "__init__.py"]
    assert not unused


class TestLinearity:
    def test_both_operators(self):
        rng = np.random.default_rng(7)
        g = make_grid(1.3, 17)
        for op in (cumulative, remainder):
            f1 = GridFn(g, rng.normal(size=18))
            f2 = GridFn(g, rng.normal(size=18))
            a, b = 2.5, -1.25
            combo = op(GridFn(g, a * f1.values + b * f2.values))
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
        f = GridFn(g, rng.normal(size=g.shape))
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
            lp_norm(GridFn.zeros(g), p)

    # |1e160|**p overflows; the norm is 1e160 times the norm of the ones grid.
    @pytest.mark.parametrize("two_d", [False, True])
    @pytest.mark.parametrize("p", [2, 3])
    def test_grid_whose_power_overflows(self, two_d, p):
        g = Grid2D(make_grid(2.0, 6), make_grid(3.0, 5)) if two_d else make_grid(2.0, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = lp_norm(GridFn(g, np.full(g.shape, 1e160)), p)
        assert norm == 1e160 * lp_norm(GridFn(g, np.ones(g.shape)), p)


class TestMixedNorm:
    def test_zero(self):
        assert mixed_norm(GridFn.zeros(unit_square(6)), np.inf, 2) == 0.0

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
            mixed_norm(GridFn.zeros(unit_square(4)), 0.5, 2)

    def test_a_function_on_a_grid1d_is_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"Grid2D, got one on Grid1D\(length=1.0, n=4\)"):
            mixed_norm(GridFn.zeros(make_grid(1.0, 4)), np.inf, 2)

    @pytest.mark.parametrize("exponents", [(np.inf, 2), (2, np.inf), (2, 3)])
    def test_grid_whose_power_overflows(self, exponents):
        g = Grid2D(make_grid(2.0, 6), make_grid(3.0, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = mixed_norm(GridFn(g, np.full(g.shape, -1e160)), *exponents)
        assert norm == 1e160 * mixed_norm(GridFn(g, np.ones(g.shape)), *exponents)


class TestNormsBitForBit:
    # On a rectangle with n1 != n2 and h1 != h2, each norm equals its nested
    # trapezoid sums written out here, bit for bit: the L_p integral runs
    # over x2 first, then x1, and mixed_norm's inner integral over x1.  The
    # two orders differ only in rounding, so only an exact test sees a swap.
    grid = Grid2D(make_grid(1.3, 16), make_grid(0.7, 33))

    def values(self):
        return np.abs(np.random.default_rng(5).normal(size=self.grid.shape))

    @pytest.mark.parametrize("p", [1, 2, 3.5])
    def test_lp_norm(self, p):
        g1, g2 = self.grid.g1, self.grid.g2
        a = self.values()
        want = np.trapezoid(np.trapezoid(a**p, dx=g2.h, axis=1), dx=g1.h) ** (1.0 / p)
        assert lp_norm(GridFn(self.grid, a), p) == want
        for g, edge in [(g1, a[:, 3]), (g2, a[5, :])]:
            assert lp_norm(GridFn(g, edge), p) == np.trapezoid(edge**p, dx=g.h) ** (1.0 / p)

    @pytest.mark.parametrize("inner, outer", itertools.product([1, 2, 3.5], repeat=2))
    def test_mixed_norm(self, inner, outer):
        a = self.values()
        x1_norms = np.trapezoid(a**inner, dx=self.grid.g1.h, axis=0) ** (1.0 / inner)
        want = np.trapezoid(x1_norms**outer, dx=self.grid.g2.h) ** (1.0 / outer)
        assert mixed_norm(GridFn(self.grid, a), inner, outer) == want


class TestStage:
    def test_non_finite_values_in_a_stage_are_a_numerical_error(self):
        # the overflow itself gives no warning (pyproject makes one an error)
        with pytest.raises(NumericalError, match="^sweep produced non-finite values$"):
            with stage("sweep"):
                GridFn(make_grid(1.0, 2), np.full(3, 1e308) * 10)

    @pytest.mark.parametrize("kind, args", [
        (NumericalError, ("closure system rank 0 < 5 unknowns",)),
        (MarchingError, ("vanishing pivot 0.000e+00 at node (2, 3) of the march", (2, 3))),
        (np.linalg.LinAlgError, ("SVD did not converge",)),
    ])
    def test_a_numerical_failure_in_a_stage_is_prefixed_with_its_name(self, kind, args):
        with pytest.raises(kind) as caught:
            with stage("sweep"):
                raise kind(*args)
        assert type(caught.value) is kind
        assert str(caught.value) == f"sweep: {args[0]}"
        if kind is MarchingError:
            assert caught.value.node == (2, 3)

    def test_outside_a_stage_they_are_a_value_error(self):
        with pytest.raises(NonFiniteError, match="^grid function values must be finite$"):
            GridFn(make_grid(1.0, 2), [0.0, np.inf, 0.0])
        assert issubclass(NonFiniteError, ValueError)

    def test_other_errors_pass_through(self):
        with pytest.raises(ValueError, match="shape"):
            with stage("sweep"):
                GridFn(make_grid(1.0, 2), [0.0])

    def test_one_base_class_for_numerical_failures(self):
        assert issubclass(NumericalError, np.linalg.LinAlgError)
        assert issubclass(MarchingError, NumericalError)
