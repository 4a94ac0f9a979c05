import json
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppde.cli
from ppde.cli import load_config, run
from ppde.grid import make_grid
from ppde.problem import COEFFICIENT_NAMES, NonClassicalData

BASE = """
[domain]
h1 = 1.0
h2 = 1.0
n1 = {n}
n2 = {n}
"""


def write(path, *parts):
    path.write_text("\n".join(textwrap.dedent(p) for p in parts))
    return str(path)


def quartic_solve_config(tmp_path, n=16):
    # manufactured data of u = x1^2 * x2^2: only the far-edge second
    # derivative traces are nonzero
    return write(tmp_path / "solve.ini", BASE.format(n=n), """
    [coefficients]
    a00 = "1"

    [rhs]
    expr = "4 + x1^2*x2^2"

    [data.nonclassical]
    z00 = 0.0
    z20_h2 = "2"
    z02_h1 = "2"
    """)


# u = 1.5 + 0.25*x1 + 0.5*x2 on (0, 1) x (0, 2): every node value is exact.
AFFINE_2X2 = """
[domain]
h1 = 1.0
h2 = 2.0
n1 = 2
n2 = 2

[data.nonclassical]
z00 = 1.5
z10 = 0.25
z01 = 0.5
z00_h1 = 1.75
z01_h1 = 0.5
z00_h2 = 2.5
z10_h2 = 0.25
"""


def read_grid_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,value"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    return rows


class TestSolve:
    def test_quartic_solution_value(self, tmp_path):
        cfg = quartic_solve_config(tmp_path)
        out = tmp_path / "u.csv"
        diag = tmp_path / "d.json"
        assert run(["solve", "--config", cfg, "--out", str(out), "--diag", str(diag)]) == 0
        rows = read_grid_csv(out)
        x1, x2, value = rows[-1]
        assert (x1, x2) == (1.0, 1.0)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_diag_json_schema(self, tmp_path):
        cfg = quartic_solve_config(tmp_path, n=8)
        out = tmp_path / "u.csv"
        diag = tmp_path / "d.json"
        run(["solve", "--config", cfg, "--out", str(out), "--diag", str(diag)])
        payload = json.loads(diag.read_text())
        for key in ("h1", "h2", "n1", "n2", "tol", "goursat_iterations",
                    "closure_residual", "equation_residual",
                    "compat_rho1", "compat_rho2", "compat_rho3",
                    "condition_residual_z00_h1", "coefficient_norm_a00", "theta_c"):
            assert key in payload
        assert payload["n1"] == 8
        assert "agreement_r1" not in payload  # nonclassical path

    def test_field_companions(self, tmp_path):
        cfg = quartic_solve_config(tmp_path, n=4)
        out = tmp_path / "u.csv"
        assert run(["solve", "--config", cfg, "--out", str(out), "--field"]) == 0
        for i in range(3):
            for j in range(3):
                assert (tmp_path / f"u_d{i}{j}.csv").exists()
        d22 = read_grid_csv(tmp_path / "u_d22.csv")
        assert d22[-1][2] == pytest.approx(4.0, abs=1e-9)

    def test_classical_block_and_agreement_in_diag(self, tmp_path):
        cfg = write(tmp_path / "c.ini", BASE.format(n=8), """
        [rhs]
        expr = "0"

        [data.classical]
        phi1.v1 = 1.0
        phi2.v0 = 1.0
        phi2.v1 = 1.0
        psi1.v1 = 1.0
        psi2.v0 = 1.0
        psi2.v1 = 1.0
        """)
        out = tmp_path / "u.csv"
        diag = tmp_path / "d.json"
        assert run(["solve", "--config", cfg, "--out", str(out), "--diag", str(diag)]) == 0
        payload = json.loads(diag.read_text())
        assert abs(payload["agreement_r1"]) <= 1e-12
        # u = x1 + x2 at the far corner
        assert read_grid_csv(out)[-1][2] == pytest.approx(2.0, abs=1e-9)

    def test_determinism(self, tmp_path):
        cfg = quartic_solve_config(tmp_path, n=8)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        d1, d2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["solve", "--config", cfg, "--out", str(out1), "--diag", str(d1)])
        run(["solve", "--config", cfg, "--out", str(out2), "--diag", str(d2)])
        assert out1.read_bytes() == out2.read_bytes()
        assert d1.read_bytes() == d2.read_bytes()

    def test_u_csv_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ppde.cli, "_WRITE_ROWS", 4)  # the 9 rows take three writes
        out = tmp_path / "u.csv"
        assert run(["solve", "--config", write(tmp_path / "c.ini", AFFINE_2X2), "--out", str(out)]) == 0
        assert out.read_text() == (
            "x1,x2,value\n"
            "0.0000000000000000e+00,0.0000000000000000e+00,1.5000000000000000e+00\n"
            "0.0000000000000000e+00,1.0000000000000000e+00,2.0000000000000000e+00\n"
            "0.0000000000000000e+00,2.0000000000000000e+00,2.5000000000000000e+00\n"
            "5.0000000000000000e-01,0.0000000000000000e+00,1.6250000000000000e+00\n"
            "5.0000000000000000e-01,1.0000000000000000e+00,2.1250000000000000e+00\n"
            "5.0000000000000000e-01,2.0000000000000000e+00,2.6250000000000000e+00\n"
            "1.0000000000000000e+00,0.0000000000000000e+00,1.7500000000000000e+00\n"
            "1.0000000000000000e+00,1.0000000000000000e+00,2.2500000000000000e+00\n"
            "1.0000000000000000e+00,2.0000000000000000e+00,2.7500000000000000e+00\n"
        )

    def test_u_d00_is_a_copy_of_u(self, tmp_path):
        cfg = quartic_solve_config(tmp_path, n=4)
        out = tmp_path / "u.csv"
        assert run(["solve", "--config", cfg, "--out", str(out), "--field"]) == 0
        assert (tmp_path / "u_d00.csv").read_bytes() == out.read_bytes()

    def test_missing_data_block(self, tmp_path):
        cfg = write(tmp_path / "no_data.ini", BASE.format(n=4))
        assert run(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv")]) == 2

    def test_io_error_exit_4(self, tmp_path):
        cfg = quartic_solve_config(tmp_path, n=4)
        missing = tmp_path / "nope" / "u.csv"
        assert run(["solve", "--config", cfg, "--out", str(missing)]) == 4

    def test_numerical_failure_exit_3(self, tmp_path):
        # a21 = -2/h2 makes a pivot of the march vanish
        cfg = write(tmp_path / "bad.ini", BASE.format(n=8), """
        [coefficients]
        a21 = "-16"

        [rhs]
        expr = "1"

        [data.nonclassical]
        z00 = 0.0
        """)
        assert run(["solve", "--config", cfg, "--out", str(tmp_path / "u.csv")]) == 3


# Values whose text or bits are easy to get wrong: signed zero, subnormals
# and the ends of the double range.
AWKWARD = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 4, 1e308, -1e308,
           1.7976931348623157e308]


class TestCsvWriter:
    def test_2d_bytes_with_a_chunk_ending_inside_an_x1_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ppde.cli, "_WRITE_ROWS", 4)  # 6 rows: the first write ends at (1, 0)
        out = tmp_path / "w.csv"
        values = np.array([[-0.0, 5e-324, 1e308], [-1e308, 0.1, -2.5]])
        ppde.cli._write_csv(out, [make_grid(0.5, 1), make_grid(3.0, 2)], values)
        assert out.read_text() == (
            "x1,x2,value\n"
            "0.0000000000000000e+00,0.0000000000000000e+00,-0.0000000000000000e+00\n"
            "0.0000000000000000e+00,1.5000000000000000e+00,4.9406564584124654e-324\n"
            "0.0000000000000000e+00,3.0000000000000000e+00,1.0000000000000000e+308\n"
            "5.0000000000000000e-01,0.0000000000000000e+00,-1.0000000000000000e+308\n"
            "5.0000000000000000e-01,1.5000000000000000e+00,1.0000000000000001e-01\n"
            "5.0000000000000000e-01,3.0000000000000000e+00,-2.5000000000000000e+00\n"
        )

    def test_1d_bytes_with_a_short_last_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ppde.cli, "_WRITE_ROWS", 2)  # 5 rows: writes of 2, 2 and 1
        out = tmp_path / "w.csv"
        values = np.array([1.0, -0.0, 2.2250738585072014e-308 / 4, 1e-300, 1.0 / 3.0])
        ppde.cli._write_csv(out, [make_grid(2.0, 4)], values)
        assert out.read_text() == (
            "x,value\n"
            "0.0000000000000000e+00,1.0000000000000000e+00\n"
            "5.0000000000000000e-01,-0.0000000000000000e+00\n"
            "1.0000000000000000e+00,5.5626846462680035e-309\n"
            "1.5000000000000000e+00,1.0000000000000000e-300\n"
            "2.0000000000000000e+00,3.3333333333333331e-01\n"
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), two_d=st.booleans(), chunk=st.integers(1, 7),
           n1=st.integers(1, 6), n2=st.integers(1, 6),
           h1=st.floats(0.01, 100.0), h2=st.floats(0.01, 100.0))
    def test_round_trip_is_bit_exact(self, data, two_d, chunk, n1, n2, h1, h2):
        if two_d and n1 == n2:
            n2 += 1
        grids = [make_grid(h1, n1), make_grid(h2, n2)] if two_d else [make_grid(h1, n1)]
        size = int(np.prod([g.n + 1 for g in grids]))
        value = st.one_of(st.sampled_from(AWKWARD), st.floats(allow_nan=False, allow_infinity=False))
        values = np.array(data.draw(st.lists(value, min_size=size, max_size=size)))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(ppde.cli, "_WRITE_ROWS", chunk)
            ppde.cli._write_csv(Path(tmp) / "w.csv", grids, values)
            back = ppde.cli._read_csv("w.csv", grids, Path(tmp), "test")
        assert back.tobytes() == values.tobytes()


class TestDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(3, 8), names=st.sets(st.sampled_from(COEFFICIENT_NAMES)),
           classical=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_repeated_solves_write_identical_files(self, n, names, classical, seed):
        rng = np.random.default_rng(seed)

        def num():
            return repr(float(rng.normal()))

        coefficients = [f'{name} = "{rng.uniform(-0.5, 0.5):.4f}*(1 + x1*x2)"'
                        for name in sorted(names)]
        if classical:
            data = ["[data.classical]"] + [
                f'{name}.v0 = {num()}\n{name}.v1 = {num()}\n{name}.v2 = "{num()}*x1"'
                for name in ("phi1", "phi2", "psi1", "psi2")]
        else:
            data = (["[data.nonclassical]"]
                    + [f"{key} = {num()}" for key in NonClassicalData.SCALARS]
                    + [f'{key} = "{num()}*x2 + {num()}"' for key in
                       NonClassicalData.X1_FUNCTIONS + NonClassicalData.X2_FUNCTIONS])
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = write(tmp / "c.ini", BASE.format(n=n), "[coefficients]", *coefficients,
                        "[rhs]", f'expr = "{num()}*sin(x1) + x2"', *data)
            outputs = []
            for k in range(2):
                out, diag = tmp / f"u{k}.csv", tmp / f"d{k}.json"
                assert run(["solve", "--config", cfg, "--out", str(out), "--diag", str(diag)]) == 0
                outputs.append((out.read_bytes(), diag.read_bytes()))
        assert outputs[0] == outputs[1]


class TestCheck:
    def test_consistent_traces(self, tmp_path, capsys):
        cfg = write(tmp_path / "chk.ini", BASE.format(n=16), """
        [data.nonclassical]
        z20_h2 = "2"
        z02_h1 = "2"
        """)
        assert run(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "rho1" in out and "rho3" in out

    def test_threshold_exceeded(self, tmp_path):
        cfg = write(tmp_path / "bad.ini", BASE.format(n=8), """
        [data.nonclassical]
        z00_h1 = 1.0
        """)
        assert run(["check", "--config", cfg]) == 1
        assert run(["check", "--config", cfg, "--tol", "2.0"]) == 0

    def test_classical_agreement(self, tmp_path, capsys):
        cfg = write(tmp_path / "agree.ini", BASE.format(n=8), """
        [data.classical]
        phi1.v1 = 1.0
        phi2.v0 = 1.0
        phi2.v1 = 1.0
        psi1.v1 = 1.0
        psi2.v0 = 1.0
        psi2.v1 = 1.0
        """)
        assert run(["check", "--config", cfg]) == 0
        assert "r4" in capsys.readouterr().out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad_expr.ini", BASE.format(n=4), """
        [rhs]
        expr = "x1+*"

        [data.nonclassical]
        z00 = 0.0
        """)
        assert run(["check", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "rhs" in err and "offset 3" in err


class TestConvert:
    def test_n2c_then_c2n_round_trip(self, tmp_path):
        cfg = write(tmp_path / "orig.ini", BASE.format(n=8), """
        [data.nonclassical]
        z00 = 0.125
        z10 = -1.5
        z01 = 0.25
        z00_h1 = 3.0
        z01_h1 = -0.0625
        z00_h2 = 2.0
        z10_h2 = 0.75
        z20 = "sin(x1)"
        z02 = "x2^2 - 0.5"
        z20_h2 = "exp(0.5*x1)"
        z02_h1 = "cos(x2)"
        """)
        mid = tmp_path / "classical.ini"
        back = tmp_path / "roundtrip.ini"
        assert run(["convert", "--config", cfg, "--direction", "n2c", "--out", str(mid)]) == 0
        assert run(["convert", "--config", str(mid), "--direction", "c2n", "--out", str(back)]) == 0
        orig = load_config(cfg).nonclassical
        rt = load_config(str(back)).nonclassical
        for name in orig.SCALARS:
            assert getattr(rt, name) == getattr(orig, name)
        for name in orig.X1_FUNCTIONS + orig.X2_FUNCTIONS:
            np.testing.assert_array_equal(getattr(rt, name).values, getattr(orig, name).values)

    def test_edge_csv_bytes(self, tmp_path):
        cfg = write(tmp_path / "c.ini", AFFINE_2X2, 'z20 = "-x1"\n')
        out = tmp_path / "conv.ini"
        assert run(["convert", "--config", cfg, "--direction", "n2c", "--out", str(out)]) == 0
        assert 'psi1.v2 = "conv_psi1_v2.csv"' in out.read_text()
        assert (tmp_path / "conv_psi1_v2.csv").read_text() == (
            "x,value\n"
            "0.0000000000000000e+00,-0.0000000000000000e+00\n"
            "5.0000000000000000e-01,-5.0000000000000000e-01\n"
            "1.0000000000000000e+00,-1.0000000000000000e+00\n"
        )

    def test_direction_requires_matching_block(self, tmp_path):
        cfg = write(tmp_path / "nc.ini", BASE.format(n=4), """
        [data.nonclassical]
        z00 = 0.0
        """)
        assert run(["convert", "--config", cfg, "--direction", "c2n",
                    "--out", str(tmp_path / "x.ini")]) == 2

    def test_converted_block_checks_clean(self, tmp_path):
        cfg = write(tmp_path / "traces.ini", BASE.format(n=16), """
        [data.nonclassical]
        z20_h2 = "2"
        z02_h1 = "2"
        """)
        mid = tmp_path / "c.ini"
        run(["convert", "--config", cfg, "--direction", "n2c", "--out", str(mid)])
        assert run(["check", "--config", str(mid)]) == 0


class TestVerifyCommand:
    def test_error_table(self, tmp_path):
        cfg = write(tmp_path / "v.ini", BASE.format(n=8), """
        [coefficients]
        a00 = "1"
        """)
        out = tmp_path / "table.csv"
        assert run(["verify", "--u", "x1^2*x2^2 + x1*x2", "--config", cfg,
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "quantity,max_error,l2_error"
        assert len(lines) == 10
        d00_max = float(lines[1].split(",")[1])
        assert d00_max <= 1e-9

    @pytest.mark.parametrize("u", ["exp(1000*x1)", "1/x1"])
    def test_u_not_finite_on_the_grid_is_a_config_error(self, tmp_path, capsys, u):
        cfg = write(tmp_path / "v.ini", BASE.format(n=4))
        out = tmp_path / "table.csv"
        assert run(["verify", "--u", u, "--config", cfg, "--out", str(out)]) == 2
        assert "--u" in capsys.readouterr().err
        assert not out.exists()


class TestConvergenceCommand:
    def test_table(self, tmp_path):
        cfg = write(tmp_path / "conv.ini", BASE.format(n=8))
        out = tmp_path / "table.csv"
        assert run(["convergence", "--u", "sin(x1)*sin(x2)", "--config", cfg,
                    "--grids", "8,16", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,max_error,l2_error,observed_order"
        order = float(lines[2].split(",")[3])
        assert order >= 1.8

    def test_bad_grids(self, tmp_path):
        cfg = write(tmp_path / "conv.ini", BASE.format(n=8))
        assert run(["convergence", "--u", "x1", "--config", cfg,
                    "--grids", "8,x", "--out", str(tmp_path / "t.csv")]) == 2

    @pytest.mark.parametrize("grids", ["8", "8,12", "0,0"])
    def test_grids_must_double(self, tmp_path, capsys, grids):
        cfg = write(tmp_path / "conv.ini", BASE.format(n=8))
        assert run(["convergence", "--u", "x1", "--config", cfg,
                    "--grids", grids, "--out", str(tmp_path / "t.csv")]) == 2
        assert "--grids" in capsys.readouterr().err

    def test_u_not_finite_on_a_grid_is_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "conv.ini", BASE.format(n=4))
        out = tmp_path / "table.csv"
        assert run(["convergence", "--u", "exp(1000*x1)", "--config", cfg,
                    "--grids", "4,8", "--out", str(out)]) == 2
        assert "--u" in capsys.readouterr().err
        assert not out.exists()


class TestConfigLoading:
    def test_csv_edge_function(self, tmp_path):
        g_nodes = np.linspace(0, 1, 9)
        lines = ["x,value"] + [f"{x:.16e},{np.sin(x):.16e}" for x in g_nodes]
        (tmp_path / "edge.csv").write_text("\n".join(lines) + "\n")
        cfg = write(tmp_path / "c.ini", BASE.format(n=8), """
        [data.nonclassical]
        z20 = "edge.csv"
        """)
        z = load_config(cfg).nonclassical
        np.testing.assert_allclose(z.z20.values, np.sin(g_nodes), rtol=1e-15)

    def test_csv_rhs_2d(self, tmp_path):
        n = 4
        nodes = np.linspace(0, 1, n + 1)
        lines = ["x1,x2,value"]
        for x1 in nodes:
            for x2 in nodes:  # row-major, x2 varying fastest
                lines.append(f"{x1:.16e},{x2:.16e},{x1 * x2:.16e}")
        (tmp_path / "rhs.csv").write_text("\n".join(lines) + "\n")
        cfg = write(tmp_path / "c.ini", BASE.format(n=n), """
        [rhs]
        csv = "rhs.csv"
        """)
        conf = load_config(cfg)
        np.testing.assert_allclose(
            conf.rhs.values, nodes[:, None] * nodes[None, :], rtol=1e-15
        )

    def test_csv_length_mismatch(self, tmp_path):
        (tmp_path / "edge.csv").write_text("x,value\n0.0,1.0\n")
        cfg = write(tmp_path / "c.ini", BASE.format(n=8), """
        [data.nonclassical]
        z20 = "edge.csv"
        """)
        assert run(["check", "--config", cfg]) == 2

    def test_csv_rhs_x1_fastest_rejected(self, tmp_path, capsys):
        n = 4
        nodes = np.linspace(0, 1, n + 1)
        lines = ["x1,x2,value"]
        for x2 in nodes:
            for x1 in nodes:  # column-major: x1 varying fastest
                lines.append(f"{x1:.16e},{x2:.16e},{x1 * x2 ** 2:.16e}")
        (tmp_path / "rhs.csv").write_text("\n".join(lines) + "\n")
        cfg = write(tmp_path / "c.ini", BASE.format(n=n), """
        [rhs]
        csv = "rhs.csv"

        [data.nonclassical]
        z00 = 0.0
        """)
        assert run(["check", "--config", cfg]) == 2
        assert "rhs.csv line 3" in capsys.readouterr().err

    def test_csv_edge_on_other_interval_rejected(self, tmp_path, capsys):
        nodes = np.linspace(0, 2, 9)  # [0, 2], but the grid is on [0, 1]
        lines = ["x,value", ""] + [f"{x:.16e},{np.sin(x):.16e}" for x in nodes]
        (tmp_path / "edge.csv").write_text("\n".join(lines) + "\n")
        cfg = write(tmp_path / "c.ini", BASE.format(n=8), """
        [data.nonclassical]
        z20 = "edge.csv"
        """)
        assert run(["check", "--config", cfg]) == 2
        # x = 0.25 sits on file line 4: the blank line 2 is counted
        assert "edge.csv line 4" in capsys.readouterr().err

    def test_both_data_blocks_rejected(self, tmp_path):
        cfg = write(tmp_path / "c.ini", BASE.format(n=4), """
        [data.nonclassical]
        z00 = 0.0

        [data.classical]
        phi1.v0 = 0.0
        """)
        assert run(["check", "--config", cfg]) == 2

    def test_missing_domain_key(self, tmp_path):
        cfg = write(tmp_path / "c.ini", """
        [domain]
        h1 = 1.0
        h2 = 1.0
        n1 = 4
        """)
        assert run(["check", "--config", cfg]) == 2

    def test_rhs_expr_and_csv_conflict(self, tmp_path):
        cfg = write(tmp_path / "c.ini", BASE.format(n=4), """
        [rhs]
        expr = "1"
        csv = "r.csv"

        [data.nonclassical]
        z00 = 0.0
        """)
        assert run(["check", "--config", cfg]) == 2

    @pytest.mark.parametrize("body, expected", [
        ("[data.nonclassical]\nz00 = nan\n", "[data.nonclassical] z00"),
        ('[data.nonclassical]\nz20 = "edge.csv"\n', "[data.nonclassical] z20"),
        ('[coefficients]\na00 = "1e200*1e200"\n[data.nonclassical]\nz00 = 0.0\n',
         "[coefficients]: coefficient a00"),
        ('[rhs]\nexpr = "exp(1000)"\n[data.nonclassical]\nz00 = 0.0\n', "[rhs] expr"),
        ("[solver]\ntol = nan\n[data.nonclassical]\nz00 = 0.0\n", "[solver] tol"),
        ("[solver]\nridge = nan\n[data.nonclassical]\nz00 = 0.0\n", "[solver] ridge"),
        # overflow in numpy, which must not warn before the config error
        ('[coefficients]\na00 = "exp(1000*x1)"\n[data.nonclassical]\nz00 = 0.0\n',
         "[coefficients]: coefficient a00"),
        ('[data.nonclassical]\nz20 = "exp(1000*x1) - exp(1000*x1)"\n', "[data.nonclassical] z20"),
    ], ids=["scalar", "edge_csv", "coefficient", "rhs", "tol", "ridge",
            "coefficient_overflow", "edge_expr_overflow"])
    def test_non_finite_input_is_a_config_error(self, tmp_path, capsys, body, expected):
        (tmp_path / "edge.csv").write_text("x,value\n0,0\n0.25,0\n0.5,nan\n0.75,0\n1,0\n")
        cfg = write(tmp_path / "c.ini", BASE.format(n=4), body)
        out = tmp_path / "u.csv"
        assert run(["solve", "--config", cfg, "--out", str(out), "--diag", str(tmp_path / "d.json")]) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_solver_section(self, tmp_path):
        cfg = write(tmp_path / "c.ini", BASE.format(n=4), """
        [solver]
        tol = 1e-10
        max_iter = 99
        ridge = 0.5
        """)
        conf = load_config(cfg)
        assert (conf.tol, conf.max_iter, conf.ridge) == (1e-10, 99, 0.5)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = quartic_solve_config(tmp_path, n=4)
        out = tmp_path / "u.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ppde", "solve", "--config", cfg, "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()
