import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _families import coefficient_subsets
from ppde.dirichlet import _coefficient_norms, solve_dirichlet
from ppde.expr import parse
from ppde.grid import Grid2D, GridFn1D, GridFn2D, lp_norm, make_grid, mixed_norm
from ppde.problem import (
    _TERMS,
    ALL_NODES,
    CLASSICAL,
    COEFFICIENT_NAMES,
    CONDITIONS,
    BoundaryFn,
    ClassicalData,
    Coefficients,
    NonClassicalData,
    apply_operator,
    boundary_values,
    check_agreement,
    check_compatibility,
    classical_to_nonclassical,
    lower_order,
    nonclassical_to_classical,
)
from ppde.representation import extract_traces
from ppde.verify import manufactured_problem


def unit_square(n):
    return Grid2D(make_grid(1.0, n), make_grid(1.0, n))


def const_fn(grid, v):
    return GridFn1D(grid, v * np.ones(grid.n + 1))


def random_nonclassical(grid, rng):
    return NonClassicalData(
        *rng.normal(size=7),
        z20=GridFn1D(grid.g1, rng.normal(size=grid.g1.n + 1)),
        z02=GridFn1D(grid.g2, rng.normal(size=grid.g2.n + 1)),
        z20_h2=GridFn1D(grid.g1, rng.normal(size=grid.g1.n + 1)),
        z02_h1=GridFn1D(grid.g2, rng.normal(size=grid.g2.n + 1)),
    )


def data_of(text, grid):
    """Non-classical trace data of a symbolic u."""
    coeffs = Coefficients.zeros(grid)
    return manufactured_problem(text, coeffs, grid).problem.data


class TestEvalBoundary:
    def test_taylor_shape(self):
        g = make_grid(1.0, 4)
        f = BoundaryFn(1.0, 2.0, GridFn1D(g, 6 * g.nodes))
        # hand value: 1 + 2 + (x*C0 - C1)(1) = 3 + 0.9375
        assert boundary_values(f).values[4] == pytest.approx(3.9375, abs=1e-15)
        assert boundary_values(f).values[4] == pytest.approx(4.0, abs=0.07)

    def test_zero(self):
        g = make_grid(1.0, 4)
        f = BoundaryFn(0.0, 0.0, GridFn1D.zeros(g))
        for i in range(5):
            assert boundary_values(f).values[i] == 0.0

    def test_affine_exact(self):
        g = make_grid(1.0, 4)
        f = BoundaryFn(1.0, 1.0, GridFn1D.zeros(g))
        assert boundary_values(f).values[2] == 1.5

    def test_full_curve(self):
        g = make_grid(1.0, 8)
        f = BoundaryFn(1.0, 0.0, const_fn(g, 2.0))
        np.testing.assert_allclose(boundary_values(f).values, 1 + g.nodes**2, atol=1e-14)


class TestBoundaryFnConstructors:
    def test_from_expr(self):
        g = make_grid(1.0, 4)
        f = BoundaryFn.from_expr("1 + 2*x2 + x2^3", g, "x2")
        assert f.v0 == 1.0
        assert f.v1 == 2.0
        np.testing.assert_allclose(f.v2.values, 6 * g.nodes, atol=1e-14)

    def test_from_expr_x1(self):
        g = make_grid(2.0, 4)
        f = BoundaryFn.from_expr("x1^2", g, "x1")
        assert (f.v0, f.v1) == (0.0, 0.0)
        np.testing.assert_allclose(f.v2.values, 2.0, atol=1e-14)

    def test_from_samples_quadratic_exact(self):
        g = make_grid(1.0, 8)
        f = BoundaryFn.from_samples(g, 3 + 0.5 * g.nodes + g.nodes**2)
        assert f.v0 == 3.0
        assert f.v1 == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(f.v2.values, 2.0, atol=1e-10)

    def test_from_samples_second_order(self):
        errs = []
        for n in (32, 64):
            g = make_grid(1.0, n)
            f = BoundaryFn.from_samples(g, np.sin(g.nodes))
            errs.append(np.max(np.abs(f.v2.values + np.sin(g.nodes))))
        assert np.log2(errs[0] / errs[1]) >= 1.5

    def test_from_samples_needs_nodes(self):
        with pytest.raises(ValueError):
            BoundaryFn.from_samples(make_grid(1.0, 2), [0.0, 1.0, 2.0])


class TestCheckAgreement:
    def setup_method(self):
        self.g = unit_square(4)

    def linear_data(self):
        # boundary functions of u = x1 + x2
        phi1 = BoundaryFn(0.0, 1.0, GridFn1D.zeros(self.g.g2))
        phi2 = BoundaryFn(1.0, 1.0, GridFn1D.zeros(self.g.g2))
        psi1 = BoundaryFn(0.0, 1.0, GridFn1D.zeros(self.g.g1))
        psi2 = BoundaryFn(1.0, 1.0, GridFn1D.zeros(self.g.g1))
        return ClassicalData(phi1, phi2, psi1, psi2)

    def test_consistent(self):
        rep = check_agreement(self.linear_data())
        assert rep.max_abs() <= 1e-12

    def test_detects_mismatch(self):
        d = self.linear_data()
        d2 = ClassicalData(d.phi1, d.phi2,
                           BoundaryFn(0.0, 2.0, GridFn1D.zeros(self.g.g1)), d.psi2)
        rep = check_agreement(d2)
        assert rep.r4 == pytest.approx(-1.0, abs=1e-14)

    def test_zero_data(self):
        z = BoundaryFn(0.0, 0.0, GridFn1D.zeros(self.g.g2))
        zp = BoundaryFn(0.0, 0.0, GridFn1D.zeros(self.g.g1))
        rep = check_agreement(ClassicalData(z, z, zp, zp))
        assert (rep.r1, rep.r2, rep.r3, rep.r4) == (0.0, 0.0, 0.0, 0.0)


class TestConverters:
    def test_c2n_quadratic(self):
        g = unit_square(4)
        d = ClassicalData(
            phi1=BoundaryFn(0.0, 0.0, const_fn(g.g2, 2.0)),
            phi2=BoundaryFn(1.0, 0.0, const_fn(g.g2, 2.0)),
            psi1=BoundaryFn(0.0, 0.0, const_fn(g.g1, 2.0)),
            psi2=BoundaryFn(1.0, 0.0, const_fn(g.g1, 2.0)),
        )
        z = classical_to_nonclassical(d)
        assert (z.z00, z.z10, z.z01) == (0.0, 0.0, 0.0)
        assert (z.z00_h1, z.z01_h1, z.z00_h2, z.z10_h2) == (1.0, 0.0, 1.0, 0.0)
        for fn in (z.z20, z.z02, z.z20_h2, z.z02_h1):
            np.testing.assert_array_equal(fn.values, 2.0 * np.ones(5))

    def test_c2n_linear(self):
        g = unit_square(4)
        d = ClassicalData(
            phi1=BoundaryFn(0.0, 1.0, GridFn1D.zeros(g.g2)),
            phi2=BoundaryFn(1.0, 1.0, GridFn1D.zeros(g.g2)),
            psi1=BoundaryFn(0.0, 1.0, GridFn1D.zeros(g.g1)),
            psi2=BoundaryFn(1.0, 1.0, GridFn1D.zeros(g.g1)),
        )
        z = classical_to_nonclassical(d)
        assert (z.z00, z.z10, z.z01) == (0.0, 1.0, 1.0)
        assert (z.z00_h1, z.z01_h1, z.z00_h2, z.z10_h2) == (1.0, 1.0, 1.0, 1.0)
        for fn in (z.z20, z.z02, z.z20_h2, z.z02_h1):
            np.testing.assert_array_equal(fn.values, np.zeros(5))

    def test_n2c_taylor_curve(self):
        g = unit_square(4)
        z = NonClassicalData(
            1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0,
            z20=GridFn1D.zeros(g.g1),
            z02=GridFn1D(g.g2, 6 * g.g2.nodes),
            z20_h2=GridFn1D.zeros(g.g1),
            z02_h1=GridFn1D.zeros(g.g2),
        )
        d = nonclassical_to_classical(z)
        # phi1 = 1 + 2 x2 + x2^3 up to quadrature on the cubic term
        assert boundary_values(d.phi1).values[4] == pytest.approx(4.0, abs=0.07)

    def test_n2c_zero(self):
        g = unit_square(3)
        d = nonclassical_to_classical(NonClassicalData.zeros(g))
        for fn in (d.phi1, d.phi2, d.psi1, d.psi2):
            assert fn.v0 == fn.v1 == 0.0
            np.testing.assert_array_equal(fn.v2.values, np.zeros(4))

    def test_n2c_endpoint_checks(self):
        # traces of u = x1^2 + x2^2 reassemble the boundary parabolas
        g = unit_square(8)
        z = data_of("x1^2 + x2^2", g)
        d = nonclassical_to_classical(z)
        np.testing.assert_allclose(
            boundary_values(d.phi1).values, g.g2.nodes**2, atol=1e-13
        )
        np.testing.assert_allclose(
            boundary_values(d.psi2).values, 1 + g.g1.nodes**2, atol=1e-13
        )

    def test_round_trip_a_bit_exact(self):
        g = Grid2D(make_grid(1.2, 6), make_grid(0.9, 5))
        rng = np.random.default_rng(99)
        for _ in range(20):
            z = random_nonclassical(g, rng)
            back = classical_to_nonclassical(nonclassical_to_classical(z))
            for name in NonClassicalData.SCALARS:
                assert getattr(back, name) == getattr(z, name)
            for name in NonClassicalData.X1_FUNCTIONS + NonClassicalData.X2_FUNCTIONS:
                np.testing.assert_array_equal(
                    getattr(back, name).values, getattr(z, name).values
                )

    def test_round_trip_b(self):
        g = unit_square(5)
        rng = np.random.default_rng(7)

        def triple(grid):
            return BoundaryFn(rng.normal(), rng.normal(),
                              GridFn1D(grid, rng.normal(size=grid.n + 1)))

        d = ClassicalData(triple(g.g2), triple(g.g2), triple(g.g1), triple(g.g1))
        back = nonclassical_to_classical(classical_to_nonclassical(d))
        # psi1.v0 is replaced by the shared corner value phi1.v0
        assert back.psi1.v0 == d.phi1.v0
        assert back.psi1.v0 != d.psi1.v0
        assert back.psi1.v1 == d.psi1.v1
        np.testing.assert_array_equal(back.psi1.v2.values, d.psi1.v2.values)
        for name in ("phi1", "phi2", "psi2"):
            a, b = getattr(back, name), getattr(d, name)
            assert (a.v0, a.v1) == (b.v0, b.v1)
            np.testing.assert_array_equal(a.v2.values, b.v2.values)

    @settings(max_examples=30, deadline=None)
    @given(n1=st.integers(1, 8), n2=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_classical_round_trip_is_exact(self, n1, n2, seed):
        g = Grid2D(make_grid(1.25, n1), make_grid(0.75, n2))
        rng = np.random.default_rng(seed)

        def triple(v0, grid):
            return BoundaryFn(v0, rng.normal(), GridFn1D(grid, rng.normal(size=grid.n + 1)))

        corner = rng.normal()  # phi1(0) = psi1(0): agreeing data keep one corner value
        d = ClassicalData(triple(corner, g.g2), triple(rng.normal(), g.g2),
                          triple(corner, g.g1), triple(rng.normal(), g.g1))
        z = classical_to_nonclassical(d)
        back = nonclassical_to_classical(z)
        for name, (v0, v1, v2) in CLASSICAL.items():
            a, b = getattr(back, name), getattr(d, name)
            assert (a.v0, a.v1) == (b.v0, b.v1) == (getattr(z, v0), getattr(z, v1))
            np.testing.assert_array_equal(a.v2.values, b.v2.values)
            np.testing.assert_array_equal(getattr(z, v2).values, b.v2.values)


class TestConditionTable:
    def test_names_are_the_data_entries(self):
        assert tuple(CONDITIONS) == (NonClassicalData.SCALARS + NonClassicalData.X1_FUNCTIONS
                                     + NonClassicalData.X2_FUNCTIONS)

    def test_classical_triples_are_taylor_triples(self):
        # Each classical function is (value, slope, second derivative) at the
        # start of its edge: three conditions at one node, of orders 0, 1 and
        # 2 along the function's axis (x2 for a phi, x1 for a psi).
        g = unit_square(4)
        for name, triple in CLASSICAL.items():
            axis = 1 if name.startswith("phi") else 0
            edge = CONDITIONS[triple[0]][1][1 - axis]
            for order, key in enumerate(triple):
                (i, j), node = CONDITIONS[key]
                assert ((i, j)[axis], (i, j)[1 - axis]) == (order, 0), key
                assert node[axis] == (ALL_NODES if order == 2 else 0), key
                assert node[1 - axis] == edge, key
            assert NonClassicalData.edge_grids(g)[triple[2]] == (g.g1, g.g2)[axis]
        assert {key for triple in CLASSICAL.values() for key in triple} == set(CONDITIONS)

    def test_from_field_reads_each_condition(self):
        # u = exp(x1 + 2 x2) on (0, 1.5) x (0, 0.5): D1^i D2^j u = 2^j u
        g = Grid2D(make_grid(1.5, 6), make_grid(0.5, 4))
        _, _, field = extract_traces(parse("exp(x1 + 2*x2)"), g)
        z = NonClassicalData.from_field(field)
        x1, x2 = g.g1.nodes, g.g2.nodes
        e = np.exp
        corners = {"z00": 1.0, "z10": 1.0, "z01": 2.0, "z00_h1": e(1.5), "z01_h1": 2 * e(1.5),
                   "z00_h2": e(1.0), "z10_h2": e(1.0)}
        for name, value in corners.items():
            assert getattr(z, name) == pytest.approx(value, rel=1e-14), name
        np.testing.assert_allclose(z.z20.values, np.exp(x1), rtol=1e-14)
        np.testing.assert_allclose(z.z20_h2.values, np.exp(x1 + 1.0), rtol=1e-14)
        np.testing.assert_allclose(z.z02.values, 4 * np.exp(2 * x2), rtol=1e-14)
        np.testing.assert_allclose(z.z02_h1.values, 4 * np.exp(1.5 + 2 * x2), rtol=1e-14)


class TestCheckCompatibility:
    def test_traces_of_one_function(self):
        g = unit_square(16)
        rep = check_compatibility(data_of("x1^2*x2^2 + x1*x2", g))
        assert rep.max_abs() <= 10 * g.g1.h**2 * 5

    def test_zero(self):
        rep = check_compatibility(NonClassicalData.zeros(unit_square(4)))
        assert (rep.rho1, rep.rho2, rep.rho3) == (0.0, 0.0, 0.0)

    def test_perturbation_is_affine(self):
        g = unit_square(16)
        z = data_of("x1^2 + x2^2", g)
        base = check_compatibility(z)
        z2 = NonClassicalData(
            z.z00, z.z10, z.z01, z.z00_h1 + 0.001, z.z01_h1, z.z00_h2, z.z10_h2,
            z.z20, z.z02, z.z20_h2, z.z02_h1,
        )
        rep = check_compatibility(z2)
        # z00_h1 enters rho1 and rho3 (with coefficient one), never rho2
        assert rep.rho1 - base.rho1 == pytest.approx(0.001, abs=1e-10)
        assert rep.rho2 == base.rho2
        assert rep.rho3 - base.rho3 == pytest.approx(0.001, abs=1e-10)

    def test_agreement_of_converted_data_identities(self):
        # for trace data the corner residuals coincide with the rho's
        g = unit_square(8)
        for text in ("x1^2*x2^2 + x1*x2", "sin(x1)*exp(x2)", "x1^3 - x2^3 + x1*x2^2"):
            z = data_of(text, g)
            compat = check_compatibility(z)
            agree = check_agreement(nonclassical_to_classical(z))
            assert agree.r1 == 0.0
            assert agree.r2 == compat.rho3
            assert agree.r3 == -compat.rho2
            assert agree.r4 == compat.rho1

    def test_automatic_agreement_bound(self):
        g = unit_square(32)
        h = g.g1.h
        for text in ("x1^2*x2^2 + x1*x2", "sin(x1)*sin(x2)", "exp(x1)*x2^2"):
            z = data_of(text, g)
            scale = 1.0 + max(
                np.max(np.abs(fn.values))
                for fn in (z.z20, z.z02, z.z20_h2, z.z02_h1)
            )
            agree = check_agreement(nonclassical_to_classical(z))
            assert agree.max_abs() <= 10 * h**2 * scale


class TestApplyOperator:
    @pytest.mark.parametrize("name", COEFFICIENT_NAMES)
    def test_quartic_with_one_coefficient(self, name):
        # a_ij = 1 adds D1^i D2^j (x1^2 x2^2) = c_i x1^(2-i) * c_j x2^(2-j)
        # to the principal part 4, with c_0 = 1, c_1 = 2, c_2 = 2
        i, j = int(name[1]), int(name[2])
        g = unit_square(4)
        _, _, field = extract_traces(parse("x1^2*x2^2"), g)
        coeffs = Coefficients.from_exprs(g, {name: "1"})
        out = apply_operator(field, coeffs)
        X1 = g.g1.nodes[:, None]
        X2 = g.g2.nodes[None, :]
        c = (1.0, 2.0, 2.0)
        expected = 4 + c[i] * X1 ** (2 - i) * c[j] * X2 ** (2 - j)
        np.testing.assert_allclose(out.values, expected, atol=1e-13)
        assert out.values[-1, -1] == pytest.approx(4 + c[i] * c[j], abs=1e-13)
        np.testing.assert_array_equal(out.values, field.w.values + field.d[i][j].values)
        np.testing.assert_array_equal(lower_order(field.values, coeffs), field.d[i][j].values)

    def test_zero_field(self):
        g = unit_square(4)
        _, _, field = extract_traces(parse("0"), g)
        coeffs = Coefficients.from_exprs(g, {name: "1" for name in
                                             ("a21", "a12", "a20", "a02",
                                              "a11", "a10", "a01", "a00")})
        np.testing.assert_array_equal(apply_operator(field, coeffs).values, 0.0)

    def test_principal_part_annihilates_bilinear(self):
        g = unit_square(4)
        _, _, field = extract_traces(parse("x1*x2"), g)
        out = apply_operator(field, Coefficients.zeros(g))
        np.testing.assert_array_equal(out.values, np.zeros(g.shape))

    def test_grid_mismatch(self):
        g = unit_square(4)
        _, _, field = extract_traces(parse("x1"), g)
        with pytest.raises(ValueError):
            apply_operator(field, Coefficients.zeros(unit_square(5)))

    def test_no_live_term(self):
        # With every coefficient zero no product is formed: lower_order is a
        # zero that broadcasts, and subtracting it leaves every bit, signed
        # zeros included.
        g = unit_square(4)
        _, _, field = extract_traces(parse("sin(x1)*exp(x2) - x1^2*x2"), g)
        zero = lower_order(field.values, Coefficients.zeros(g))
        np.testing.assert_array_equal(np.broadcast_to(zero, g.shape), np.zeros(g.shape))
        rhs = np.random.default_rng(0).normal(size=g.shape)
        rhs[0, :2] = -0.0, 0.0
        assert (rhs - zero).tobytes() == rhs.tobytes()
        out = apply_operator(field, Coefficients.zeros(g)).values
        assert out.tobytes() == field.w.values.tobytes()

    def test_coefficient_norms_of_zero_coefficients(self):
        g = unit_square(4)
        coeffs = Coefficients.from_exprs(g, {"a12": "1+x2", "a00": "x1"})
        norms = _coefficient_norms(coeffs)
        assert list(norms) == list(_TERMS)  # the --diag keys, in their order
        assert norms["a12"] == mixed_norm(coeffs.a12, 2, np.inf) > 0.0
        assert norms["a00"] == lp_norm(coeffs.a00, 2) > 0.0
        for name in set(_TERMS) - {"a12", "a00"}:
            assert norms[name] == 0.0 and not np.signbit(norms[name])
            assert type(norms[name]) is float


class TestCoefficients:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            Coefficients.from_exprs(unit_square(4), {"a99": "1"})

    def test_shared_grid_enforced(self):
        g4, g5 = unit_square(4), unit_square(5)
        fns4 = [GridFn2D.zeros(g4) for _ in range(7)]
        with pytest.raises(ValueError):
            Coefficients(*fns4, GridFn2D.zeros(g5))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["0", "0*x1", "x1", "1 - x2", "-0.5", "x1*x2"]),
                    min_size=8, max_size=8),
           st.integers(0, 2**16))
    def test_live_lists_the_nonzero_coefficients_in_term_order(self, texts, seed):
        # "0" and "0*x1" are given but zero, so they are not live; "x1" is
        # zero on one edge only, and is.
        g = Grid2D(make_grid(1.0, 3), make_grid(0.5, 4))
        for subset in coefficient_subsets(dict(zip(COEFFICIENT_NAMES, texts)), seed):
            coeffs = Coefficients.from_exprs(g, subset)
            names = [name for name in _TERMS if subset.get(name, "0") not in ("0", "0*x1")]
            assert [ij for _, ij in coeffs.live] == [_TERMS[name] for name in names]
            for (values, _), name in zip(coeffs.live, names):
                assert values is getattr(coeffs, name).values

    def test_absent_coefficients_share_one_zero_grid(self):
        g = unit_square(6)
        zeros = Coefficients.zeros(g)
        assert all(getattr(zeros, name) is zeros.a00 for name in COEFFICIENT_NAMES)
        shared = Coefficients.from_exprs(g, {"a11": "sin(x1*x2)"})
        absent = [getattr(shared, name) for name in COEFFICIENT_NAMES if name != "a11"]
        assert all(fn is absent[0] for fn in absent) and shared.a11 is not absent[0]
        # A solve with the shared zero gives the bits of one with eight own grids,
        # and leaves the zero as it was.
        own = Coefficients(*(GridFn2D(g, getattr(shared, name).values) for name in COEFFICIENT_NAMES))
        u = "sin(x1)*exp(x2) + x1^2*x2"
        a, b = (solve_dirichlet(manufactured_problem(u, c, g).problem) for c in (shared, own))
        assert a.theta.tobytes() == b.theta.tobytes()
        assert a.field.u.values.tobytes() == b.field.u.values.tobytes()
        assert repr(a.diagnostics) == repr(b.diagnostics)
        np.testing.assert_array_equal(absent[0].values, 0.0)
