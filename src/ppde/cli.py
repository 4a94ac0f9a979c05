"""Batch front-end: INI problem configs in, CSV grids and JSON diagnostics out.

Subcommands
-----------
solve        solve the configured problem, write the solution grid
convert      convert the data block between the two boundary formulations
check        evaluate agreement / compatibility residuals against a threshold
verify       manufactured-solution error report on a single grid
convergence  manufactured-solution study over doubling grids

Exit codes: 0 success, 1 check threshold exceeded, 2 config or expression
parse error, 3 numerical failure (vanishing pivot or overflow in the march),
4 I/O error.

The config grammar (INI sections, expression values quoted, file values
named by a path ending in .csv) and the CSV/JSON layouts written here are
the stable public surface; see the README for the full as-documented
grammar.  All numeric CSV fields use 17-significant-digit scientific
notation, which round-trips 64-bit floats exactly: the text of Python's
"%.16e", made by numpy for whole chunks of values (see _scientific).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import json
import math
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

from . import expr as ex
from .dirichlet import DirichletProblem, solve_classical, solve_dirichlet
from .grid import Grid2D, GridFn1D, GridFn2D, make_grid
from .problem import (
    CLASSICAL,
    COEFFICIENT_NAMES,
    BoundaryFn,
    ClassicalData,
    Coefficients,
    NonClassicalData,
    check_agreement,
    check_compatibility,
    classical_to_nonclassical,
    nonclassical_to_classical,
)
from .verify import check_doubling, convergence_table, manufactured_problem, node_errors

__all__ = ["ConfigError", "Config", "load_config", "run", "main"]

_FMT = "{:.16e}"
# CSV rows written at a time by _write_csv, to each file: the text of a whole
# grid is never held at once.  A row costs about 230 bytes at a chunk's peak, so
# 1536 rows keep the writer's tracemalloc peak for nine 65x65 grids at 0.42 MB.
_WRITE_ROWS = 1536


class ConfigError(Exception):
    """Invalid or missing configuration; the message names the key."""


@dataclasses.dataclass
class Config:
    """Parsed problem definition (see load_config).

    At most one of ``classical`` and ``nonclassical`` is set: the data block
    the config gives.
    """

    grid: Grid2D
    coeffs: Coefficients
    coeff_exprs: dict
    rhs: GridFn2D
    classical: ClassicalData | None
    nonclassical: NonClassicalData | None
    tol: float
    max_iter: int
    ridge: float


# ---------------------------------------------------------------------------
# config reading

def _unquote(raw: str) -> str:
    s = raw.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        return s[1:-1]
    return s


def _get(cp: configparser.ConfigParser, section: str, key: str, default=None, kind=str):
    """The value of ``key``, converted by ``kind`` (str, float or int).

    A float must be finite.  ``default`` is the text taken when the key is
    absent; without one the key is required.
    """
    if cp.has_section(section) and cp.has_option(section, key):
        raw = _unquote(cp.get(section, key))
    elif default is None:
        raise ConfigError(f"missing required key [{section}] {key}")
    else:
        raw = default
    if kind is str:
        return raw
    try:
        value = kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{section}] {key}: not {what}: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: not a finite number: {raw!r}")
    return value


def _parse_expr(text: str, where: str) -> ex.Expr:
    try:
        return ex.parse(text)
    except ex.ParseError as err:
        raise ConfigError(f"{where}: {err}") from err


def _header(grids) -> str:
    return "x,value" if len(grids) == 1 else "x1,x2,value"


def _first_fault(path: Path, grids, header: str) -> str:
    """Why the CSV file at ``path``, which ``_read_csv`` rejected, does not
    fit ``grids``: ``line <number>: <fault>`` for its first faulty row in
    file order, or else its row count.

    The file is read again line by line, and each row is parsed by the same
    ``np.loadtxt`` as the whole file was, so the two readings agree.
    """
    width = len(grids) + 1
    shape = tuple(g.nodes.size for g in grids)
    with open(path, encoding="utf-8-sig") as fh:
        rows = ((number, line.removesuffix("\n"))
                for number, line in enumerate(fh, 1) if line.strip())
        next(rows)  # the header, checked already
        for index, (number, line) in zip(np.ndindex(shape), rows):
            fields = line.count(",") + 1
            if fields != width:
                return f"line {number}: expected {width} fields ({header}), got {fields}"
            try:
                *coords, value = np.loadtxt([line], delimiter=",", comments=None).tolist()
            except ValueError:
                return f"line {number}: bad numeric row {line!r}"
            node = [g.nodes[i].item() for g, i in zip(grids, index)]
            if not all(abs(x - y) <= 1e-12 * g.length for x, y, g in zip(coords, node, grids)):
                return f"line {number}: coordinates {coords} are not the grid node {node}"
            if not math.isfinite(value):
                return f"line {number}: value {value!r} is not finite"
    return f"must have {math.prod(shape)} {header} rows"


def _read_csv(raw: str, grids, base_dir: Path, where: str) -> np.ndarray:
    """Value column of a CSV file on the nodes of ``grids``, one row per node.

    The layout, which ``_write_csv`` writes too: one grid, header
    ``x,value``; two grids (x1, x2), header ``x1,x2,value`` and rows in
    row-major order, x2 varying fastest.  The file is UTF-8 text, with or
    without a byte-order mark, whose lines end in LF, CRLF or CR; blank and
    whitespace-only lines are skipped.  Every field is read by numpy's
    parser, so spaces around a field are allowed.  Each coordinate must be
    its grid node to within 1e-12 of the axis length, and each value must
    be finite.

    The rows after the header are read by one ``np.loadtxt`` call and
    checked as whole columns.  Only a file that fails is read again, by
    ``_first_fault``, to name its first fault in file order and that
    fault's file line; a wrong row count is found at the end.
    """
    path = base_dir / raw
    header = _header(grids)
    shape = tuple(g.nodes.size for g in grids)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            rows = filter(str.strip, fh)
            if next(rows, "").strip() != header:
                raise ConfigError(f"{where}: {path} must start with header {header!r}")
            try:
                with warnings.catch_warnings():  # a header-only file has no rows
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                data = np.empty((0, 0))  # fails the shape check below
        nodes = np.ix_(*(g.nodes for g in grids))  # each axis's nodes, on its own axis
        if (data.shape == (math.prod(shape), len(grids) + 1)
                and all(np.all(np.abs(data[:, axis].reshape(shape) - x) <= 1e-12 * g.length)
                        for axis, (g, x) in enumerate(zip(grids, nodes)))
                and np.all(np.isfinite(data[:, -1]))):
            return data[:, -1]
        raise ConfigError(f"{where}: {path} {_first_fault(path, grids, header)}")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{where}: cannot read {path}: {err}") from err


# Expression values become grid functions, which reject non-finite values
# with an error naming the input; numpy's overflow warnings would only
# repeat that error, so the evaluations here run under np.errstate.

def _sample(e: ex.Expr, grid, where: str):
    """The GridFn1D or GridFn2D of an expression at the nodes of ``grid``.

    On a Grid1D the expression is evaluated with x1 = x2 = x, so it may be
    written in either variable.
    """
    if isinstance(grid, Grid2D):
        fn, x1, x2 = GridFn2D, grid.g1.nodes[:, None], grid.g2.nodes[None, :]
    else:
        fn, x1, x2 = GridFn1D, grid.nodes, grid.nodes
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(grid, ex.sample(e, x1, x2, np.broadcast(x1, x2).shape))
    except (ex.EvalDomainError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _coefficients(exprs: dict, grid: Grid2D, where: str = "") -> Coefficients:
    """The coefficients of ``exprs`` (one expression per name) at the nodes of ``grid``.

    ``where`` follows the name in an error: ``[coefficients] <name><where>: ...``.
    """
    return Coefficients(*(_sample(exprs[name], grid, f"[coefficients] {name}{where}")
                          for name in COEFFICIENT_NAMES))


def _grid_fn(raw: str, grid, base_dir: Path, where: str):
    """Grid-function entry on a Grid1D or a Grid2D: an expression or a CSV path."""
    if not raw.endswith(".csv"):
        return _sample(_parse_expr(raw, where), grid, where)
    if isinstance(grid, Grid2D):
        return GridFn2D(grid, _read_csv(raw, [grid.g1, grid.g2], base_dir, where).reshape(grid.shape))
    return GridFn1D(grid, _read_csv(raw, [grid], base_dir, where))


def load_config(path) -> Config:
    """Read a problem definition; raises ConfigError naming the bad key."""
    path = Path(path)
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config {path}: {err}") from err
    base_dir = path.parent

    domain = {key: _get(cp, "domain", key, kind=float if key[0] == "h" else int)
              for key in ("h1", "h2", "n1", "n2")}
    try:
        grid = Grid2D(*(make_grid(domain[f"h{k}"], domain[f"n{k}"]) for k in "12"))
    except ValueError as err:  # the first bad key in the order make_grid checks them
        key = next(key for key in ("h1", "n1", "h2", "n2") if not domain[key] > 0)
        raise ConfigError(f"[domain] {key}: {err}") from err

    coeff_exprs = {name: _parse_expr(_get(cp, "coefficients", name, "0"),
                                     f"[coefficients] {name}")
                   for name in COEFFICIENT_NAMES}
    coeffs = _coefficients(coeff_exprs, grid)

    if cp.has_section("rhs") and cp.has_option("rhs", "csv"):
        if cp.has_option("rhs", "expr"):
            raise ConfigError("[rhs]: give either expr or csv, not both")
        rhs = _grid_fn(_get(cp, "rhs", "csv"), grid, base_dir, "[rhs] csv")
    else:
        rhs = _grid_fn(_get(cp, "rhs", "expr", "0"), grid, base_dir, "[rhs] expr")

    has_nc = cp.has_section("data.nonclassical")
    has_c = cp.has_section("data.classical")
    if has_nc and has_c:
        raise ConfigError("exactly one of [data.nonclassical] / [data.classical] may be present")
    nonclassical = classical = None
    # The axis of each edge function; a classical triple's v2 is one of them.
    edge_grids = NonClassicalData.edge_grids(grid)

    def edge_fn(sec, key, g):
        return _grid_fn(_get(cp, sec, key, "0"), g, base_dir, f"[{sec}] {key}")

    if has_nc:
        sec = "data.nonclassical"
        nonclassical = NonClassicalData(
            **{key: _get(cp, sec, key, "0", float) for key in NonClassicalData.SCALARS},
            **{key: edge_fn(sec, key, g) for key, g in edge_grids.items()},
        )
    elif has_c:
        sec = "data.classical"
        classical = ClassicalData(**{
            name: BoundaryFn(_get(cp, sec, f"{name}.v0", "0", float),
                             _get(cp, sec, f"{name}.v1", "0", float),
                             edge_fn(sec, f"{name}.v2", edge_grids[v2]))
            for name, (_, _, v2) in CLASSICAL.items()
        })

    # tol and max_iter are read and checked for old configs; the solver no
    # longer uses them.
    tol = _get(cp, "solver", "tol", "1e-12", float)
    max_iter = _get(cp, "solver", "max_iter", "200", int)
    ridge = _get(cp, "solver", "ridge", "0", float)
    if tol <= 0:
        raise ConfigError("[solver] tol must be positive")
    if max_iter < 1:
        raise ConfigError("[solver] max_iter must be >= 1")
    if ridge < 0:
        raise ConfigError("[solver] ridge must be nonnegative")

    return Config(grid, coeffs, coeff_exprs, rhs, classical, nonclassical, tol, max_iter, ridge)


# ---------------------------------------------------------------------------
# output writers

def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# _scientific: for |x| in the table's range, e = floor(log10 |x|) and hi + lo =
# |x| * 10**(16 - e), Dekker's error-free product (Dekker, 1971) with the table's
# double-double 10**(16 - e), within about 1e-14 of the exact value.  So D = hi +
# rint(lo) is |x|'s 17 digits rounded half to even, unless the scaled value is
# within 1e-9 of a tie, not above 1e16 by more than 1e-9, or rounds to 1e17 (log10
# may put e one off): Python's "%" formats those.  IEEE double arithmetic only (no
# long double or fused multiply-add), so the bytes do not depend on the platform.
_EXPONENTS = range(-284, 297)  # the decimal exponents e the table covers


def _ten(s: int) -> tuple[float, float]:
    """10**s as (hi, lo): hi correctly rounded, lo the rounded remainder."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    n, d = (num / den).as_integer_ratio()  # int / int is correctly rounded
    return n / d, (num * d - n * den) / (den * d)


def _split(v):
    """Dekker's split: v as an exact sum of two halves of 26 significant bits."""
    c = v * 134217729.0  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


# per exponent e: the scale 10**(16 - e), its split, its remainder, and the text
# of e as 4 bytes (sign, hundreds or NUL, tens, units).  fromiter frees each pair
# at once: 581 pairs left on CPython's tuple free list moved a later tracemalloc peak.
_SCALE, _SCALE_LO = np.fromiter((_ten(16 - e) for e in _EXPONENTS), (float, 2)).T
_SCALE_HI, _SCALE_HI_LO = _split(_SCALE)
_EXP_TEXT = np.array([(b"-" if e < 0 else b"+") + (b"%02d" % abs(e)).rjust(3, b"\0")
                      for e in _EXPONENTS], "S4").view(np.uint32)
_DIGITS = np.array([b"%04d" % k for k in range(10**4)], "S4").view(np.uint32)


def _scientific(x, out):
    """Write the text of ``"%.16e" % v`` for each value v of ``x`` into the
    rows of ``out`` (uint8, 24 columns: the sign, D's 17 digits with the point
    after the first, "e", the exponent's sign and three digits), with NUL
    bytes in the columns a value's text leaves out."""
    a = np.abs(x)
    settled = (a >= 1e-282) & (a <= 1e294)  # false for nan; e, even one off, is in range
    a[~settled] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    k = e - _EXPONENTS.start
    hi = a * _SCALE.take(k)
    ah, al = _split(a)
    bh, bl = _SCALE_HI.take(k), _SCALE_HI_LO.take(k)
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl  # a * _SCALE - hi, exactly
    lo += a * _SCALE_LO.take(k)
    r = np.rint(lo)  # hi, near 1e16 or more, is an even integer
    settled &= ((hi - 1e16) + lo > 1e-9) & (np.abs(np.abs(lo - r) - 0.5) > 1e-9)
    digits = hi.astype(np.int64) + r.astype(np.int64)
    settled &= digits < 10**17
    digits[x == 0] = 0  # e is 0 there too
    settled |= x == 0
    del a, ah, al, bh, bl, hi, lo, r  # free before the text's arrays are made
    lead, rest = np.divmod(digits, 10**16)
    high, low = np.divmod(rest, 10**8)
    groups = np.empty((x.size, 4), np.int64)  # four digits each
    groups[:, 0], groups[:, 1] = np.divmod(high, 10**4)
    groups[:, 2], groups[:, 3] = np.divmod(low, 10**4)
    out[:, 0] = 45 * np.signbit(x)  # "-"
    out[:, 1] = 48 + lead
    out[:, 2] = ord(".")
    out[:, 3:19] = _DIGITS.take(groups).view(np.uint8)
    out[:, 19] = ord("e")
    out[:, 20:] = _EXP_TEXT.take(k)[:, None].view(np.uint8)
    for i in np.flatnonzero(~settled).tolist():
        out[i] = np.frombuffer((b"%.16e" % x[i]).ljust(24, b"\0"), np.uint8)


def _write_csv(grids, files: dict):
    """Write each ``values`` of ``files`` (path -> values on the nodes of
    ``grids``) as CSV, in the layout of ``_read_csv``.

    Every field is the text of ``"%.16e" % v``, written by ``_scientific``.
    A chunk of rows is a uint8 matrix with one row per CSV row: each axis's
    field and ",", formatted once per call and gathered per row, then the
    value field and a newline.  Only the value columns change from file to
    file.  Dropping the NUL bytes (``bytes.translate``, about twice as fast
    as a boolean mask) leaves the chunk's text, one write per file.
    """
    shape = tuple(g.nodes.size for g in grids)
    axes = [np.empty((size, 25), np.uint8) for size in shape]
    for g, text in zip(grids, axes):
        _scientific(g.nodes, text[:, :24])
        text[:, 24] = ord(",")
    value = slice(25 * len(grids), -1)
    with contextlib.ExitStack() as stack:
        out = [(stack.enter_context(open(path, "wb")), np.reshape(values, -1))
               for path, values in files.items()]
        for fh, _ in out:
            fh.write(f"{_header(grids)}\n".encode())
        size = math.prod(shape)
        for start in range(0, size, _WRITE_ROWS):
            rows = np.unravel_index(np.arange(start, min(start + _WRITE_ROWS, size)), shape)
            chunk = np.concatenate([text[i] for text, i in zip(axes, rows)]
                                   + [np.empty((rows[0].size, 25), np.uint8)], axis=1)
            chunk[:, -1] = ord("\n")
            for fh, values in out:
                _scientific(values[start:start + len(chunk)], chunk[:, value])
                fh.write(chunk.tobytes().translate(None, b"\0"))


def _diagnostics_dict(cfg: Config, sol) -> dict:
    d = sol.diagnostics
    out = {
        "h1": cfg.grid.g1.length,
        "h2": cfg.grid.g2.length,
        "n1": cfg.grid.g1.n,
        "n2": cfg.grid.g2.n,
        "ridge": cfg.ridge,
        "goursat_iterations": d.goursat_iterations,
        "closure_residual": d.closure_residual,
        "equation_residual": d.equation_residual,
        "theta_c": float(sol.theta[0]),
    }
    for name, value in dataclasses.asdict(d.compat).items():
        out[f"compat_{name}"] = value
    for name, value in d.condition_residuals.items():
        out[f"condition_residual_{name}"] = value
    for name, value in d.coefficient_norms.items():
        out[f"coefficient_norm_{name}"] = value
    if d.agreement is not None:
        for name, value in dataclasses.asdict(d.agreement).items():
            out[f"agreement_{name}"] = value
    return out


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if cfg.classical is None and cfg.nonclassical is None:
        raise ConfigError("solve needs a [data.nonclassical] or [data.classical] block")
    if cfg.classical is not None:
        sol = solve_classical(cfg.coeffs, cfg.rhs, cfg.classical, cfg.grid, ridge=cfg.ridge)
    else:
        sol = solve_dirichlet(DirichletProblem(cfg.grid, cfg.coeffs, cfg.rhs, cfg.nonclassical,
                                               ridge=cfg.ridge))

    out = Path(args.out)
    files = {out: sol.field.u.values}
    if args.field:  # field.u is d[0][0]: its file is a copy of out
        files.update({out.with_name(f"{out.stem}_d{i}{j}{out.suffix}"): sol.field.d[i][j].values
                      for i in range(3) for j in range(3) if (i, j) != (0, 0)})
    _write_csv([cfg.grid.g1, cfg.grid.g2], files)
    if args.field:
        shutil.copyfile(out, out.with_name(f"{out.stem}_d00{out.suffix}"))
    if args.diag:
        _write_text(args.diag, json.dumps(_diagnostics_dict(cfg, sol), indent=2, sort_keys=True) + "\n")
    return 0


def _domain_block(grid: Grid2D) -> list[str]:
    return [
        "[domain]",
        f"h1 = {grid.g1.length!r}",
        f"h2 = {grid.g2.length!r}",
        f"n1 = {grid.g1.n}",
        f"n2 = {grid.g2.n}",
        "",
    ]


def _cmd_convert(args) -> int:
    """Write the config with its data block in the other formulation.

    The other sections carry over: the coefficients as expression text that
    re-parses to the same trees, the right-hand side as a sibling CSV and
    the ridge, so the converted config poses the same problem.
    """
    cfg = load_config(args.config)
    if args.direction == "c2n" and cfg.classical is None:
        raise ConfigError("direction c2n needs a [data.classical] block")
    if args.direction == "n2c" and cfg.nonclassical is None:
        raise ConfigError("direction n2c needs a [data.nonclassical] block")
    out = Path(args.out)

    def side_csv(name: str, fn: GridFn1D | GridFn2D) -> str:
        side = out.with_name(f"{out.stem}_{name}.csv")
        _write_csv([fn.grid.g1, fn.grid.g2] if isinstance(fn, GridFn2D) else [fn.grid],
                   {side: fn.values})
        return side.name

    lines = [*_domain_block(cfg.grid), "[coefficients]",
             *(f'{name} = "{ex.to_string(e)}"' for name, e in cfg.coeff_exprs.items()), "",
             "[rhs]", f'csv = "{side_csv("rhs", cfg.rhs)}"', "",
             "[solver]", f"ridge = {cfg.ridge!r}", ""]
    if args.direction == "c2n":
        z = classical_to_nonclassical(cfg.classical)
        lines.append("[data.nonclassical]")
        for key in NonClassicalData.SCALARS:
            lines.append(f"{key} = {getattr(z, key)!r}")
        for key in NonClassicalData.X1_FUNCTIONS + NonClassicalData.X2_FUNCTIONS:
            lines.append(f'{key} = "{side_csv(key, getattr(z, key))}"')
    else:
        d = nonclassical_to_classical(cfg.nonclassical)
        lines.append("[data.classical]")
        for name in CLASSICAL:
            fn = getattr(d, name)
            lines.append(f"{name}.v0 = {fn.v0!r}")
            lines.append(f"{name}.v1 = {fn.v1!r}")
            lines.append(f'{name}.v2 = "{side_csv(f"{name}_v2", fn.v2)}"')
    _write_text(out, "\n".join(lines) + "\n")
    return 0


def _cmd_check(args) -> int:
    if not 0.0 <= args.tol < math.inf:  # also false for nan
        raise ConfigError(f"--tol must be a nonnegative finite number, got {args.tol!r}")
    cfg = load_config(args.config)
    if cfg.classical is None and cfg.nonclassical is None:
        raise ConfigError("check needs a [data.nonclassical] or [data.classical] block")
    if cfg.classical is not None:
        rep = check_agreement(cfg.classical)
    else:
        rep = check_compatibility(cfg.nonclassical)
    worst = 0.0
    for name, value in dataclasses.asdict(rep).items():
        print(f"{name} = {_FMT.format(value)}")
        worst = max(worst, abs(value))
    ok = worst <= args.tol
    print(f"max |residual| = {_FMT.format(worst)} ({'<=' if ok else '>'} tol {args.tol:g})")
    return 0 if ok else 1


def _manufactured_case(u: ex.Expr, coeffs: Coefficients, grid: Grid2D):
    """The ManufacturedCase of --u on ``grid``, whose data, reference and
    right-hand side must be finite at its nodes."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # see the note above _sample
            return manufactured_problem(u, coeffs, grid)
    except (ex.EvalDomainError, ValueError) as err:
        raise ConfigError(f"--u: {err} on the {grid.g1.n}x{grid.g2.n} grid") from err


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    case = _manufactured_case(_parse_expr(args.u, "--u"), cfg.coeffs, cfg.grid)
    sol = solve_dirichlet(case.problem)
    errors = {f"d{i}{j}": node_errors(sol.field.d[i][j], case.reference.d[i][j])
              for i in range(3) for j in range(3)}
    lines = ["quantity,max_error,l2_error"]
    lines += [f"{name},{_FMT.format(e_max)},{_FMT.format(e_l2)}"
              for name, (e_max, e_l2) in errors.items()]
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"max |u - reference| = {errors['d00'][0]:.3e} "
          f"on {cfg.grid.g1.n}x{cfg.grid.g2.n} grid")
    return 0


def _cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    try:
        ns = [int(s) for s in args.grids.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--grids must be a comma list of integers, got {args.grids!r}") from None
    try:
        check_doubling(ns)
    except ValueError:
        raise ConfigError(
            f"--grids must be two or more doubling interval counts, got {args.grids!r}") from None
    u = _parse_expr(args.u, "--u")
    cases = []
    for n in ns:  # every case is built, and so checked, before the first solve
        grid = Grid2D(make_grid(cfg.grid.g1.length, n), make_grid(cfg.grid.g2.length, n))
        coeffs = _coefficients(cfg.coeff_exprs, grid, f" on the {n}x{n} grid")
        cases.append(_manufactured_case(u, coeffs, grid))
    table = convergence_table(cases)
    _write_text(args.out, table.as_csv())
    for row in table.rows:
        order = "-" if np.isnan(row.observed_order) else f"{row.observed_order:.2f}"
        print(f"n={row.n:<5d} max={row.max_error:.3e}  l2={row.l2_error:.3e}  order={order}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppde",
        description="Solvers and data tools for the fourth-order operator "
                    "D1^2 D2^2 u + lower-order terms on a rectangle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the configured Dirichlet problem")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV path for the solution grid")
    p.add_argument("--diag", help="JSON path for diagnostics")
    p.add_argument("--field", action="store_true", help="also write all nine derivative grids")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("convert", help="convert the data block between formulations")
    p.add_argument("--config", required=True)
    p.add_argument("--direction", required=True, choices=["c2n", "n2c"])
    p.add_argument("--out", required=True, help="output config path (sibling CSVs are created)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("check", help="agreement / compatibility residuals")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="manufactured-solution single-grid errors")
    p.add_argument("--u", required=True, help="manufactured solution expression")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV path for the error table")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convergence", help="manufactured-solution refinement study")
    p.add_argument("--u", required=True, help="manufactured solution expression")
    p.add_argument("--config", required=True)
    p.add_argument("--grids", required=True, help="comma list of doubling interval counts")
    p.add_argument("--out", required=True, help="CSV path for the convergence table")
    p.set_defaults(func=_cmd_convergence)
    return parser


# Built once: a parser is a web of reference cycles, which a parser per call
# would leave to the cyclic garbage collector.
_PARSER = _build_parser()


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
