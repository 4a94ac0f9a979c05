import gc
import itertools
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppde.cli
import ppde.expr
import ppde.verify
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
        for key in ("h1", "h2", "n1", "n2", "goursat_iterations",
                    "closure_residual", "equation_residual",
                    "compat_rho1", "compat_rho2", "compat_rho3",
                    "condition_residual_z00_h1", "coefficient_norm_a00", "theta_c"):
            assert key in payload
        assert payload["n1"] == 8
        assert "agreement_r1" not in payload  # nonclassical path
        assert "tol" not in payload and "max_iter" not in payload  # they have no effect

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

# Values at the edges of the writer's numpy formatting: every power of ten
# and its two neighbours on each side, ties of the 17th digit such as
# 1000000000000000.25 and 0.75 * 2**-k, 1e23 (whose double lies just below
# it), subnormals, the smallest normal and the largest double, signed zeros.
_POWERS = np.array([float(f"1e{k}") for k in range(-307, 309)])
_BELOW, _ABOVE = np.nextafter(_POWERS, 0.0), np.nextafter(_POWERS, np.inf)
EDGE_VALUES = np.concatenate([
    np.nextafter(_BELOW, 0.0), _BELOW, _POWERS, _ABOVE, np.nextafter(_ABOVE, np.inf),
    [1000000000000000.25, 1e23, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
    0.75 * 2.0 ** -np.arange(1075.0),
])
EDGE_VALUES = np.concatenate([EDGE_VALUES, -EDGE_VALUES, [0.0, -0.0]])


def reference_csv(grids, values) -> str:
    """The CSV text of ``values`` on ``grids``, every field formatted alone by
    Python's ``"%.16e"``."""
    header = "x,value" if len(grids) == 1 else "x1,x2,value"
    nodes = itertools.product(*(g.nodes.tolist() for g in grids))  # x2 fastest
    return header + "\n" + "".join(
        ",".join("%.16e" % v for v in [*node, value]) + "\n"
        for node, value in zip(nodes, np.reshape(values, -1).tolist()))


class TestCsvWriter:
    def test_2d_bytes_with_a_chunk_ending_inside_an_x1_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ppde.cli, "_WRITE_ROWS", 4)  # 6 rows: the first write ends at (1, 0)
        out = tmp_path / "w.csv"
        values = np.array([[-0.0, 5e-324, 1e308], [-1e308, 0.1, -2.5]])
        ppde.cli._write_csv([make_grid(0.5, 1), make_grid(3.0, 2)], {out: values})
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
        ppde.cli._write_csv([make_grid(2.0, 4)], {out: values})
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
            ppde.cli._write_csv(grids, {Path(tmp) / "w.csv": values})
            back = ppde.cli._read_csv("w.csv", grids, Path(tmp), "test")
        assert back.tobytes() == values.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), chunk=st.sampled_from([1, 7, ppde.cli._WRITE_ROWS]))
    def test_every_value_field_is_pythons_text(self, data, chunk):
        bits = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
        value = st.one_of(bits, st.floats()).filter(np.isfinite)
        values = np.array(data.draw(st.lists(value, min_size=2, max_size=40)))
        self.assert_fields_are_pythons(values, chunk)

    @pytest.mark.parametrize("chunk", [1, ppde.cli._WRITE_ROWS])
    def test_edge_value_fields_are_pythons_text(self, chunk):
        self.assert_fields_are_pythons(EDGE_VALUES, chunk)

    @staticmethod
    def assert_fields_are_pythons(values, chunk):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(ppde.cli, "_WRITE_ROWS", chunk)
            path = Path(tmp) / "w.csv"
            ppde.cli._write_csv([make_grid(1.0, values.size - 1)], {path: values})
            fields = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
        assert fields == ["%.16e" % v for v in values.tolist()]

    @pytest.mark.parametrize("lengths", [(1e200, 1e-200), (1e200,)], ids=["2d", "1d"])
    def test_coordinate_fields_of_varying_width(self, tmp_path, monkeypatch, lengths):
        # nodes 0, 5e199, 1e200 ... and 0, 5e-201, 1e-200: e+00 next to e+199 and e-201
        monkeypatch.setattr(ppde.cli, "_WRITE_ROWS", 5)
        grids = [make_grid(h, n) for h, n in zip(lengths, (3, 2))]
        values = np.random.default_rng(0).normal(size=[g.n + 1 for g in grids])
        ppde.cli._write_csv(grids, {tmp_path / "w.csv": values})
        assert (tmp_path / "w.csv").read_text() == reference_csv(grids, values)
        back = ppde.cli._read_csv("w.csv", grids, tmp_path, "test")
        assert back.tobytes() == values.tobytes()

    def test_peak_memory_of_nine_65x65_files(self, tmp_path):
        # The solve of a 64x64 field job holds about 0.64 MB when it starts
        # writing and peaks at about 1.22 MB, so a writer below 0.5 MB leaves
        # the job's peak where it is.  Measured: 0.28 MB for the writer that
        # formatted each value with Python's %, 0.42 MB for this one.
        grids = [make_grid(1.0, 64), make_grid(1.0, 64)]
        rng = np.random.default_rng(0)
        files = {tmp_path / f"d{k}.csv": rng.normal(size=(65, 65)) for k in range(9)}
        tracemalloc.start()
        try:
            ppde.cli._write_csv(grids, files)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5e6

    def test_files_written_together_equal_files_written_alone(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ppde.cli, "_WRITE_ROWS", 5)  # 12 rows: writes of 5, 5 and 2
        grids = [make_grid(1.0, 2), make_grid(2.0, 3)]
        values = [np.arange(12.0).reshape(3, 4) * scale for scale in (1.0, -0.5, 1e-300)]
        ppde.cli._write_csv(grids, {tmp_path / f"t{k}.csv": v for k, v in enumerate(values)})
        for k, v in enumerate(values):
            ppde.cli._write_csv(grids, {tmp_path / "alone.csv": v})
            assert (tmp_path / f"t{k}.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


class TestCsvReader:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), two_d=st.booleans(), chunk=st.integers(1, 7),
           n1=st.integers(1, 5), n2=st.integers(1, 5))
    def test_blank_lines_crlf_and_padded_fields_read_back_bit_equal(self, data, two_d, chunk,
                                                                    n1, n2):
        grids = [make_grid(1.0, n1), make_grid(2.0, n2)] if two_d else [make_grid(1.0, n1)]
        size = int(np.prod([g.n + 1 for g in grids]))
        value = st.one_of(st.sampled_from(AWKWARD), st.floats(allow_nan=False, allow_infinity=False))
        values = np.array(data.draw(st.lists(value, min_size=size, max_size=size)))
        blanks = st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=2)
        pad = st.sampled_from(["", " ", "\t", "  "])
        end = st.sampled_from(["\n", "\r\n", "\r"])
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(ppde.cli, "_WRITE_ROWS", chunk)
            path = Path(tmp) / "w.csv"
            ppde.cli._write_csv(grids, {path: values})
            lines = []
            for k, line in enumerate(path.read_text().splitlines()):
                lines += data.draw(blanks)
                lines.append(",".join(data.draw(pad) + f + data.draw(pad) for f in line.split(","))
                             if k else data.draw(pad) + line + data.draw(pad))  # k = 0: the header
            lines += data.draw(blanks)
            path.write_bytes("".join(line + data.draw(end) for line in lines).encode())
            back = ppde.cli._read_csv("w.csv", grids, Path(tmp), "test")
        assert back.tobytes() == values.tobytes()

    @pytest.mark.parametrize("row, message", [
        (lambda x: f"{x!r},oops", "bad numeric row"),
        (lambda x: f"{x!r},0,0", r"expected 2 fields \(x,value\), got 3"),
        (lambda x: f"{x + 0.5!r},0", r"coordinates \[.*\] are not the grid node"),
        (lambda x: f"{x!r},nan", "value nan is not finite"),
    ], ids=["bad_number", "fields", "coordinate", "not_finite"])
    def test_deep_fault_after_blank_lines_names_its_true_line(self, tmp_path, row, message):
        grid = make_grid(1.0, 1500)
        lines = ["", "x,value", " "]
        for k, x in enumerate(grid.nodes.tolist()):
            if k % 100 == 7:
                lines.append("\t")
            if k == 1234:
                number = len(lines) + 1
            lines.append(row(x) if k == 1234 else f"{x!r},0")
        (tmp_path / "edge.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ppde.cli.ConfigError, match=f"edge.csv line {number}: {message}"):
            ppde.cli._read_csv("edge.csv", [grid], tmp_path, "z20")

    @pytest.mark.parametrize("text, expected", [
        ("x,value\n0,0\n0.25,0,0.5\n0\n0.75,0\n1,0\n", "3: expected 2 fields (x,value), got 3"),
        ("x,value\n0,0\n\n0.25\n0,0.5,0\n0.75,0\n1,0\n", "4: expected 2 fields (x,value), got 1"),
    ], ids=["long_then_short", "short_then_long"])
    def test_misaligned_rows_with_the_right_field_count_are_rejected(self, tmp_path, text,
                                                                     expected):
        (tmp_path / "edge.csv").write_text(text)
        with pytest.raises(ppde.cli.ConfigError) as info:
            ppde.cli._read_csv("edge.csv", [make_grid(1.0, 4)], tmp_path, "z20")
        assert f"edge.csv line {expected}" in str(info.value)

    @pytest.mark.parametrize("text, expected", [
        ("x,value\n0,0\n0.25,nan\n0.5,oops\n0.75,0\n1,0\n", "3: value nan is not finite"),
        ("x,value\n0,0\n0.25,0\n0.5,nan\n0.8,0\n1,0\n", "4: value nan is not finite"),
        ("x,value\n0,0\n0.25,0\n0.5,1e500\n0.8,0\n1,0\n", "4: value inf is not finite"),
        ("x,value\n0,0\n0.3,0\n0.5,0\n0.75,0\n1,0\n1.25,0\n", "3: coordinates [0.3]"),
        ("x,value\n0,0\n0.25,0,0\n", "3: expected 2 fields (x,value), got 3"),
        # numpy's number syntax: no digit separators, ASCII digits only
        ("x,value\n0,0\n\n0.25,1_0\n0.5,0\n", "4: bad numeric row '0.25,1_0'"),
        ("x,value\n0,0\n0.25,\u0661\n0.5,0\n", "3: bad numeric row '0.25,\u0661'"),
        # lines end only at LF, CRLF or CR: a form feed neither splits a row
        # nor shifts the line count
        ("x,value\n0,0\n0.25,0\f\n0.5\f,0\n0.7\f5,0\n", "5: bad numeric row '0.7\\x0c5,0'"),
        ("x,value\r0,0\r\n0.25,0\r0.5,0\n0.7,0\n", "5: coordinates [0.7]"),
    ], ids=["not_finite_then_bad_number", "not_finite_then_off_node", "overflow",
            "off_node_then_long", "bad_row_then_short", "digit_separator", "non_ascii_digit",
            "form_feed_in_a_row", "cr_crlf_and_lf_line_ends"])
    def test_first_fault_in_file_order_is_named(self, tmp_path, text, expected):
        (tmp_path / "edge.csv").write_bytes(text.encode())
        with pytest.raises(ppde.cli.ConfigError) as info:
            ppde.cli._read_csv("edge.csv", [make_grid(1.0, 4)], tmp_path, "z20")
        assert f"edge.csv line {expected}" in str(info.value)

    def test_header_only_file_is_a_row_count_fault_without_a_warning(self, tmp_path):
        (tmp_path / "edge.csv").write_text("\nx,value\n \n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ppde.cli.ConfigError, match="edge.csv must have 5 x,value rows$"):
                ppde.cli._read_csv("edge.csv", [make_grid(1.0, 4)], tmp_path, "z20")
        assert caught == []

    def test_read_holds_less_memory_than_the_file_size(self, tmp_path):
        grids = [make_grid(1.0, 128), make_grid(1.0, 128)]
        path = tmp_path / "rhs.csv"
        ppde.cli._write_csv(grids, {path: np.random.default_rng(0).normal(size=(129, 129))})
        tracemalloc.start()
        try:
            ppde.cli._read_csv("rhs.csv", grids, tmp_path, "rhs")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size


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


    def test_outputs_are_byte_identical_at_each_blas_thread_count(self, tmp_path):
        # The reproducibility contract: the same build and the same BLAS
        # thread count write the same bytes.  Outputs at different thread
        # counts may differ in the last bits, so they are not compared.
        cfg = write(tmp_path / "mixed.ini", BASE.format(n=64), """
        [coefficients]
        a00 = "1"
        a21 = "x1"
        a12 = "1+x2"
        a11 = "sin(x1*x2)"

        [rhs]
        expr = "sin(x1)*exp(x2) + x1*x2"

        [data.nonclassical]
        z00 = 0.5
        z10 = 1.0
        z01 = -0.25
        z00_h1 = 1.5
        z01_h1 = 0.75
        z00_h2 = 1.25
        z10_h2 = 0.5
        z20 = "x1"
        z02 = "1 - x2"
        z20_h2 = "x1^2"
        z02_h1 = "cos(x2)"
        """)
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            outputs = []
            for k in range(2):
                out = tmp_path / f"t{threads}-{k}" / "u.csv"
                out.parent.mkdir()
                proc = subprocess.run(
                    [sys.executable, "-m", "ppde", "solve", "--config", cfg, "--out", str(out),
                     "--field", "--diag", str(out.parent / "diag.json")],
                    capture_output=True, env=env)
                assert proc.returncode == 0, proc.stderr
                outputs.append({f.name: f.read_bytes() for f in sorted(out.parent.iterdir())})
            assert len(outputs[0]) == 11  # u.csv, the nine derivative grids and diag.json
            assert outputs[0] == outputs[1], threads


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

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_is_a_config_error(self, tmp_path, capsys, tol):
        cfg = write(tmp_path / "ok.ini", BASE.format(n=4), """
        [data.nonclassical]
        z00 = 0.0
        """)
        assert run(["check", "--config", cfg, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "--tol" in captured.err and captured.out == ""

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

    def test_nonclassical_stdout_bytes(self, tmp_path, capsys):
        cfg = write(tmp_path / "nc.ini", BASE.format(n=8), """
        [data.nonclassical]
        z00 = 0.5
        z10 = -1.0
        z00_h1 = 1.0
        z00_h2 = 0.25
        z20 = "sin(x1)"
        z02_h1 = "x2"
        """)
        assert run(["check", "--config", cfg]) == 1
        assert capsys.readouterr().out == (
            "rho1 = 1.3438699292160177e+00\n"
            "rho2 = -2.5000000000000000e-01\n"
            "rho3 = 9.1406250000000000e-01\n"
            "max |residual| = 1.3438699292160177e+00 (> tol 1e-08)\n"
        )

    def test_classical_stdout_bytes(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", BASE.format(n=8), """
        [data.classical]
        phi1.v0 = 0.5
        phi1.v1 = 1.0
        phi2.v0 = 1.0
        phi2.v1 = 1.0
        psi1.v1 = 1.0
        psi2.v0 = 1.0
        psi2.v1 = 1.0
        psi2.v2 = "x1"
        """)
        assert run(["check", "--config", cfg, "--tol", "2"]) == 0
        assert capsys.readouterr().out == (
            "r1 = 5.0000000000000000e-01\n"
            "r2 = -1.6406250000000000e-01\n"
            "r3 = 5.0000000000000000e-01\n"
            "r4 = 0.0000000000000000e+00\n"
            "max |residual| = 5.0000000000000000e-01 (<= tol 2)\n"
        )

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

    @pytest.mark.parametrize("direction, block", [
        ("n2c", """
        [data.nonclassical]
        z10 = 0.5
        z20 = "sin(x1)"
        z20_h2 = "2"
        z02_h1 = "2 + x2"
        """),
        ("c2n", """
        [data.classical]
        phi1.v1 = 0.25
        phi2.v2 = "cos(x2)"
        psi2.v0 = 1.0
        psi2.v2 = "2*x1"
        """),
    ], ids=["n2c", "c2n"])
    def test_converted_config_solves_to_the_same_bytes(self, tmp_path, direction, block):
        # Every section besides the data block carries over: a live
        # coefficient, a CSV right-hand side and the ridge each change u.
        grids = [make_grid(1.0, 8)] * 2
        rhs = np.random.default_rng(3).normal(size=(9, 9))
        (tmp_path / "rhs.csv").write_text(reference_csv(grids, rhs))
        cfg = write(tmp_path / "orig.ini", BASE.format(n=8), """
        [coefficients]
        a00 = "1"
        a11 = "sin(x1*x2) - 0.5"

        [rhs]
        csv = "rhs.csv"

        [solver]
        ridge = 1e-3
        """, block)
        conv = tmp_path / "conv.ini"
        assert run(["convert", "--config", cfg, "--direction", direction, "--out", str(conv)]) == 0
        for config, out in ((cfg, "orig.csv"), (str(conv), "conv.csv")):
            assert run(["solve", "--config", config, "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "conv.csv").read_bytes() == (tmp_path / "orig.csv").read_bytes()

    def test_direction_requires_matching_block(self, tmp_path):
        cfg = write(tmp_path / "nc.ini", BASE.format(n=4), """
        [data.nonclassical]
        z00 = 0.0
        """)
        assert run(["convert", "--config", cfg, "--direction", "c2n",
                    "--out", str(tmp_path / "x.ini")]) == 2
        assert [path.name for path in tmp_path.iterdir()] == ["nc.ini"]  # nothing written

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

    def test_coefficient_not_finite_on_a_grid_is_a_config_error(self, tmp_path, capsys,
                                                                monkeypatch):
        # 1/(x1 - 0.0625) is finite on the config's 4x4 grid and on the 8x8
        # one, but x1 = 0.0625 is a node of the 16x16 grid.
        def no_solve(problem):
            raise AssertionError("solved before the coefficients were checked")

        monkeypatch.setattr(ppde.verify, "solve_dirichlet", no_solve)
        cfg = write(tmp_path / "conv.ini", BASE.format(n=4), """
        [coefficients]
        a00 = "1/(x1 - 0.0625)"
        """)
        out = tmp_path / "table.csv"
        assert run(["convergence", "--u", "x1*x2", "--config", cfg,
                    "--grids", "4,8,16", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[coefficients] a00" in err and "16x16 grid" in err
        assert not out.exists()

    def test_each_coefficient_is_sampled_once_per_grid(self, tmp_path, monkeypatch):
        texts = {name: f"{k + 1}*0.01*(1 + x1*x2)" for k, name in enumerate(COEFFICIENT_NAMES)}
        strings = {ppde.expr.to_string(ppde.expr.parse(t)) for t in texts.values()}
        calls = []
        sample = ppde.expr.sample

        def counted(e, x1, x2, shape=None):
            if ppde.expr.to_string(e) in strings:
                calls.append((ppde.expr.to_string(e), np.broadcast(x1, x2).shape))
            return sample(e, x1, x2, shape)

        monkeypatch.setattr(ppde.expr, "sample", counted)
        cfg = write(tmp_path / "conv.ini", BASE.format(n=3), "[coefficients]",
                    *(f'{name} = "{text}"' for name, text in texts.items()))
        assert run(["convergence", "--u", "sin(x1)*sin(x2)", "--config", cfg,
                    "--grids", "4,8", "--out", str(tmp_path / "t.csv")]) == 0
        on_grids = sorted(c for c in calls if c[1] != (4, 4))  # (4, 4): the config's own grid
        assert on_grids == sorted((t, (n + 1, n + 1)) for t in strings for n in (4, 8))


class TestManufacturedCase:
    @pytest.mark.parametrize("command, expected", [
        (["verify"], [8]),
        (["convergence", "--grids", "8,16,32"], [8, 16, 32]),
    ], ids=["verify", "convergence"])
    def test_u_is_sampled_once_per_grid(self, tmp_path, monkeypatch, command, expected):
        u = "x1^3*x2^3 + x1*x2"
        text = ppde.expr.to_string(ppde.expr.parse(u))
        intervals = []
        sample = ppde.expr.sample

        def counted(e, x1, x2, shape=None):
            if ppde.expr.to_string(e) == text:  # u itself, the first of its nine derivatives
                intervals.append(np.broadcast(x1, x2).shape[0] - 1)
            return sample(e, x1, x2, shape)

        monkeypatch.setattr(ppde.expr, "sample", counted)
        cfg = write(tmp_path / "m.ini", BASE.format(n=8))
        assert run([command[0], "--u", u, "--config", cfg, "--out", str(tmp_path / "t.csv"),
                    *command[1:]]) == 0
        assert intervals == expected

    @pytest.mark.parametrize("command", [["verify"], ["convergence", "--grids", "8,16"]],
                             ids=["verify", "convergence"])
    def test_rhs_not_finite_is_a_config_error(self, tmp_path, capsys, command):
        # u and the coefficient are finite; their product in the rhs is not
        cfg = write(tmp_path / "m.ini", BASE.format(n=8), '[coefficients]\na00 = "1e300"\n')
        out = tmp_path / "t.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run([command[0], "--u", "1e10*exp(x1)", "--config", cfg, "--out", str(out),
                        *command[1:]])
        assert code == 2 and caught == []
        err = capsys.readouterr().err
        assert err.startswith("config error: --u: ") and "8x8 grid" in err
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
         "[coefficients] a00: "),
        ('[coefficients]\na00 = "1/(x1-0.25)"\n[data.nonclassical]\nz00 = 0.0\n',
         "[coefficients] a00: division by zero"),
        ('[rhs]\nexpr = "exp(1000)"\n[data.nonclassical]\nz00 = 0.0\n', "[rhs] expr"),
        ("[solver]\ntol = nan\n[data.nonclassical]\nz00 = 0.0\n", "[solver] tol"),
        ("[solver]\nridge = nan\n[data.nonclassical]\nz00 = 0.0\n", "[solver] ridge"),
        # overflow in numpy, which must not warn before the config error
        ('[coefficients]\na00 = "exp(1000*x1)"\n[data.nonclassical]\nz00 = 0.0\n',
         "[coefficients] a00: "),
        ('[data.nonclassical]\nz20 = "exp(1000*x1) - exp(1000*x1)"\n', "[data.nonclassical] z20"),
        # the other rejected inputs: each names its file or key
        ('[data.nonclassical]\nz20 = "header.csv"\n', "header.csv must start with header 'x,value'"),
        ('[data.nonclassical]\nz20 = "rows.csv"\n', "rows.csv must have 5 x,value rows"),
        ('[data.nonclassical]\nz20 = "columns.csv"\n',
         "columns.csv line 4: expected 2 fields (x,value), got 3"),
        ('[data.nonclassical]\nz20 = "missing.csv"\n', "[data.nonclassical] z20: cannot read"),
        ("[solver]\ntol = 0\n[data.nonclassical]\nz00 = 0.0\n", "[solver] tol must be positive"),
        ("[solver]\nmax_iter = 0\n[data.nonclassical]\nz00 = 0.0\n", "[solver] max_iter must be >= 1"),
        ("[solver]\nmax_iter = 1.5\n[data.nonclassical]\nz00 = 0.0\n",
         "[solver] max_iter: not an integer"),
        ("[solver]\nridge = -1\n[data.nonclassical]\nz00 = 0.0\n", "[solver] ridge must be nonnegative"),
        ("[data.nonclassical]\nz00 = x\n", "[data.nonclassical] z00: not a number"),
        ('[data.nonclassical]\nz20 = "latin1.csv"\n', "latin1.csv: 'utf-8' codec can't decode byte 0xe9"),
    ], ids=["scalar", "edge_csv", "coefficient", "coefficient_pole", "rhs", "tol", "ridge",
            "coefficient_overflow", "edge_expr_overflow", "csv_header", "csv_rows",
            "csv_columns", "csv_unreadable", "tol_zero", "max_iter_zero", "max_iter_not_int",
            "ridge_negative", "scalar_not_number", "csv_not_utf8"])
    def test_non_finite_input_is_a_config_error(self, tmp_path, capsys, body, expected):
        (tmp_path / "edge.csv").write_text("x,value\n0,0\n0.25,0\n0.5,nan\n0.75,0\n1,0\n")
        (tmp_path / "header.csv").write_text("x,y\n0,0\n0.25,0\n0.5,0\n0.75,0\n1,0\n")
        (tmp_path / "rows.csv").write_text("x,value\n0,0\n0.25,0\n0.5,0\n0.75,0\n")
        (tmp_path / "columns.csv").write_text("x,value\n0,0\n0.25,0\n0.5,0,0\n0.75,0\n1,0\n")
        (tmp_path / "latin1.csv").write_bytes(b"x,value\n0,0\xe9\n0.25,0\n0.5,0\n0.75,0\n1,0\n")
        cfg = write(tmp_path / "c.ini", BASE.format(n=4), body)
        out = tmp_path / "u.csv"
        assert run(["solve", "--config", cfg, "--out", str(out), "--diag", str(tmp_path / "d.json")]) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    def test_config_not_utf8_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(BASE.format(n=4).replace("h1 = 1.0", "h1 = 1.0 \xe9").encode("latin-1"))
        assert run(["check", "--config", str(cfg)]) == 2
        assert f"config error: cannot read config {cfg}: 'utf-8' codec" in capsys.readouterr().err

    # Some editors start a UTF-8 file with the byte-order mark U+FEFF.
    def test_config_with_byte_order_mark_is_read(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(("\ufeff" + AFFINE_2X2.lstrip()).encode())
        assert run(["check", "--config", str(cfg)]) == 0

    def test_csv_with_byte_order_mark_is_read(self, tmp_path):
        cfg = write(tmp_path / "c.ini", AFFINE_2X2, 'z20 = "edge.csv"\n')
        (tmp_path / "edge.csv").write_bytes("\ufeffx,value\n0,0.25\n0.5,0.5\n1,2\n".encode())
        assert load_config(cfg).nonclassical.z20.values.tolist() == [0.25, 0.5, 2.0]
        # a faulty file is read again by the same rules, and its line is named
        (tmp_path / "edge.csv").write_bytes("\ufeffx,value\n0,0\n1,0\n0.5,0\n".encode())
        with pytest.raises(ppde.cli.ConfigError, match=r"edge\.csv line 3: coordinates"):
            load_config(cfg)

    @pytest.mark.parametrize("old, new, expected", [
        ("h1 = 1.0", "h1 = 0", "[domain] h1: grid length must be positive and finite, got 0.0"),
        ("h2 = 1.0", "h2 = -1", "[domain] h2: grid length must be positive and finite, got -1.0"),
        ("n1 = 4", "n1 = -2", "[domain] n1: number of intervals must be >= 1, got -2"),
        ("n2 = 4", "n2 = 0", "[domain] n2: number of intervals must be >= 1, got 0"),
    ], ids=["h1", "h2", "n1", "n2"])
    def test_bad_domain_value_is_a_config_error_naming_its_key(self, tmp_path, capsys,
                                                                old, new, expected):
        cfg = write(tmp_path / "c.ini", BASE.format(n=4).replace(old, new),
                    "[data.nonclassical]\nz00 = 0.0\n")
        out = tmp_path / "u.csv"
        assert run(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert f"config error: {expected}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, body, expected", [
        (["solve"], '[coefficients]\na11 = "x1+*"\n[data.nonclassical]\n', "[coefficients] a11: "),
        (["solve"], '[rhs]\nexpr = "x1+*"\n[data.nonclassical]\n', "[rhs] expr: "),
        (["solve"], '[data.nonclassical]\nz02_h1 = "x1+*"\n', "[data.nonclassical] z02_h1: "),
        (["verify", "--u", "x1+*"], "", "--u: "),
        (["convergence", "--u", "x1+*", "--grids", "4,8"], "", "--u: "),
    ], ids=["coefficient", "rhs", "edge", "verify_u", "convergence_u"])
    def test_malformed_expression_is_a_config_error(self, tmp_path, capsys, args, body, expected):
        cfg = write(tmp_path / "c.ini", BASE.format(n=4), body)
        out = tmp_path / "out.csv"
        assert run([*args, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {expected}") and "Traceback" not in err
        assert "offset 3" in err and not out.exists()

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
    def test_run_leaves_no_argparse_garbage(self, tmp_path):
        cfg = write(tmp_path / "affine.ini", AFFINE_2X2)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)  # unreachable cycles are kept in gc.garbage
        try:
            assert run(["check", "--config", cfg]) == 0
            gc.collect()
            garbage = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == []

    def test_utf8_inputs_read_under_the_c_locale(self, tmp_path):
        # a comment and a blank CSV line that only UTF-8 decodes
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(f'# résumé\n{AFFINE_2X2}z20 = "edge.csv"\n'.encode())
        (tmp_path / "edge.csv").write_bytes("x,value\n\u00a0\n0,0\n0.5,0\n1,0\n".encode())
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run([sys.executable, "-m", "ppde", "check", "--config", str(cfg)],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_module_invocation(self, tmp_path):
        cfg = quartic_solve_config(tmp_path, n=4)
        out = tmp_path / "u.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ppde", "solve", "--config", cfg, "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()
