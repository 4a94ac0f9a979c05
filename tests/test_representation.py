import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppde.expr import parse
from ppde.grid import Grid2D, GridFn1D, GridFn2D, make_grid
from ppde.representation import TraceSet, extract_traces, reconstruct_field, trace_part


def unit_square(n):
    return Grid2D(make_grid(1.0, n), make_grid(1.0, n))


def bilinear_traces(grid):
    return TraceSet(1.0, 1.0, 1.0, 1.0,
                    GridFn1D.zeros(grid.g1), GridFn1D.zeros(grid.g1),
                    GridFn1D.zeros(grid.g2), GridFn1D.zeros(grid.g2))


def random_traces_and_w(grid, rng):
    t = TraceSet(*rng.normal(size=4),
                 GridFn1D(grid.g1, rng.normal(size=grid.g1.n + 1)),
                 GridFn1D(grid.g1, rng.normal(size=grid.g1.n + 1)),
                 GridFn1D(grid.g2, rng.normal(size=grid.g2.n + 1)),
                 GridFn1D(grid.g2, rng.normal(size=grid.g2.n + 1)))
    w = GridFn2D(grid, rng.normal(size=grid.shape))
    return t, w


def field_error(a, b):
    return max(
        np.max(np.abs(a.d[i][j].values - b.d[i][j].values))
        for i in range(3) for j in range(3)
    )


class TestReconstructU:
    def test_bilinear_exact(self):
        g = unit_square(5)
        u = reconstruct_field(bilinear_traces(g), GridFn2D.zeros(g)).u
        X1 = g.g1.nodes[:, None]
        X2 = g.g2.nodes[None, :]
        np.testing.assert_allclose(u.values, 1 + X1 + X2 + X1 * X2, atol=1e-15)

    def test_constant_w_gives_quartic(self):
        g = unit_square(6)
        u = reconstruct_field(TraceSet.zeros(g), GridFn2D(g, 4 * np.ones(g.shape))).u
        X1 = g.g1.nodes[:, None]
        X2 = g.g2.nodes[None, :]
        np.testing.assert_allclose(u.values, X1**2 * X2**2, atol=1e-14)
        assert u.values[-1, -1] == pytest.approx(1.0, abs=1e-14)

    def test_all_zero(self):
        g = unit_square(4)
        u = reconstruct_field(TraceSet.zeros(g), GridFn2D.zeros(g)).u
        np.testing.assert_array_equal(u.values, np.zeros(g.shape))


class TestReconstructField:
    def test_bilinear_derivatives(self):
        g = unit_square(5)
        f = reconstruct_field(bilinear_traces(g), GridFn2D.zeros(g))
        np.testing.assert_allclose(f.d[1][1].values, np.ones(g.shape), atol=1e-15)
        for i, j in [(2, 0), (2, 1), (2, 2), (0, 2), (1, 2)]:
            np.testing.assert_allclose(f.d[i][j].values, 0.0, atol=1e-15)

    def test_constant_w_derivatives(self):
        g = unit_square(6)
        f = reconstruct_field(TraceSet.zeros(g), GridFn2D(g, 4 * np.ones(g.shape)))
        X2 = g.g2.nodes[None, :]
        np.testing.assert_array_equal(f.d[2][2].values, 4 * np.ones(g.shape))
        np.testing.assert_allclose(f.d[2][1].values, 4 * X2 * np.ones(g.shape), atol=1e-15)
        np.testing.assert_allclose(f.d[2][0].values, 2 * X2**2 * np.ones(g.shape), atol=1e-15)

    def test_all_zero(self):
        g = unit_square(4)
        f = reconstruct_field(TraceSet.zeros(g), GridFn2D.zeros(g))
        assert field_error(f, f) == 0.0
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(f.d[i][j].values, np.zeros(g.shape))

    def test_edge_consistency_exact(self):
        g = Grid2D(make_grid(1.5, 9), make_grid(0.8, 7))
        t, w = random_traces_and_w(g, np.random.default_rng(42))
        f = reconstruct_field(t, w)
        np.testing.assert_array_equal(f.d[2][0].values[:, 0], t.p.values)
        np.testing.assert_array_equal(f.d[2][1].values[:, 0], t.g1.values)
        np.testing.assert_array_equal(f.d[0][2].values[0, :], t.q.values)
        np.testing.assert_array_equal(f.d[1][2].values[0, :], t.g2.values)
        assert f.d[0][0].values[0, 0] == t.u00
        assert f.d[1][0].values[0, 0] == t.u10
        assert f.d[0][1].values[0, 0] == t.u01
        assert f.d[1][1].values[0, 0] == t.c

    def test_linearity(self):
        g = unit_square(8)
        rng = np.random.default_rng(1)
        ta, wa = random_traces_and_w(g, rng)
        tb, wb = random_traces_and_w(g, rng)
        a, b = 1.75, -0.5
        combo_t = TraceSet(
            a * ta.u00 + b * tb.u00, a * ta.u10 + b * tb.u10,
            a * ta.u01 + b * tb.u01, a * ta.c + b * tb.c,
            GridFn1D(g.g1, a * ta.p.values + b * tb.p.values),
            GridFn1D(g.g1, a * ta.g1.values + b * tb.g1.values),
            GridFn1D(g.g2, a * ta.q.values + b * tb.q.values),
            GridFn1D(g.g2, a * ta.g2.values + b * tb.g2.values),
        )
        combo_w = GridFn2D(g, a * wa.values + b * wb.values)
        fc = reconstruct_field(combo_t, combo_w)
        fa = reconstruct_field(ta, wa)
        fb = reconstruct_field(tb, wb)
        for i in range(3):
            for j in range(3):
                np.testing.assert_allclose(
                    fc.d[i][j].values,
                    a * fa.d[i][j].values + b * fb.d[i][j].values,
                    atol=1e-12,
                )

    def test_grid_mismatch(self):
        g = unit_square(4)
        other = unit_square(5)
        with pytest.raises(ValueError):
            reconstruct_field(TraceSet.zeros(g), GridFn2D.zeros(other))


class TestTracePart:
    @settings(max_examples=30, deadline=None)
    @given(n1=st.integers(1, 8), n2=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_is_the_w_free_field(self, n1, n2, seed):
        g = Grid2D(make_grid(1.5, n1), make_grid(0.7, n2))
        t, w = random_traces_and_w(g, np.random.default_rng(seed))
        trace = trace_part(t, g)
        without_w = reconstruct_field(t, GridFn2D.zeros(g))
        without_traces = reconstruct_field(TraceSet.zeros(g), w)
        full = reconstruct_field(t, w)
        for i in range(3):
            for j in range(3):
                part = np.broadcast_to(trace[i][j], g.shape)
                np.testing.assert_array_equal(part, without_w.d[i][j].values)
                np.testing.assert_array_equal(full.d[i][j].values,
                                              part + without_traces.d[i][j].values)

    def test_grid_mismatch(self):
        g = unit_square(4)
        with pytest.raises(ValueError):
            trace_part(TraceSet.zeros(unit_square(5)), g)


class TestExtractTraces:
    def test_quartic(self):
        g = unit_square(4)
        t, w, field = extract_traces(parse("x1^2*x2^2"), g)
        assert (t.u00, t.u10, t.u01, t.c) == (0.0, 0.0, 0.0, 0.0)
        np.testing.assert_array_equal(t.p.values, np.zeros(5))
        np.testing.assert_array_equal(t.g1.values, np.zeros(5))
        np.testing.assert_array_equal(t.q.values, np.zeros(5))
        np.testing.assert_array_equal(t.g2.values, np.zeros(5))
        np.testing.assert_array_equal(w.values, 4 * np.ones(g.shape))

    def test_bilinear(self):
        g = unit_square(4)
        t, w, field = extract_traces(parse("1 + x1 + x2 + x1*x2"), g)
        assert (t.u00, t.u10, t.u01, t.c) == (1.0, 1.0, 1.0, 1.0)
        for fn in (t.p, t.g1, t.q, t.g2):
            np.testing.assert_array_equal(fn.values, np.zeros(5))
        np.testing.assert_array_equal(w.values, np.zeros(g.shape))

    def test_zero(self):
        g = unit_square(3)
        t, w, field = extract_traces(parse("0"), g)
        assert t.u00 == t.u10 == t.u01 == t.c == 0.0
        np.testing.assert_array_equal(w.values, np.zeros(g.shape))


class TestReconstructionIdentity:
    @pytest.mark.parametrize("text", ["1 + x1 + x2 + x1*x2", "x1^2*x2^2",
                                      "x1^2*x2 + 2*x2^2 - x1"])
    def test_exact_for_low_degree(self, text):
        g = unit_square(16)
        t, w, reference = extract_traces(parse(text), g)
        assert field_error(reconstruct_field(t, w), reference) <= 1e-12

    def test_second_order_for_smooth(self):
        errors = []
        for n in (16, 32, 64):
            g = unit_square(n)
            t, w, reference = extract_traces(parse("sin(x1)*exp(x2)"), g)
            errors.append(field_error(reconstruct_field(t, w), reference))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 1.8)

    def test_cross_consistency_mixed_difference(self):
        # d11 vs the mixed second difference of d00 on interior nodes
        g = unit_square(32)
        t, w, _ = extract_traces(parse("sin(x1)*sin(x2)"), g)
        f = reconstruct_field(t, w)
        u = f.d[0][0].values
        h1, h2 = g.g1.h, g.g2.h
        mixed = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4 * h1 * h2)
        err = np.max(np.abs(mixed - f.d[1][1].values[1:-1, 1:-1]))
        assert err <= 10 * (h1**2 + h2**2)
