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
notation, which round-trips 64-bit floats exactly.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from . import expr as ex
from .dirichlet import DirichletProblem, solve_classical, solve_dirichlet
from .grid import Grid2D, GridFn1D, GridFn2D, lp_norm, make_grid
from .problem import (
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
from .representation import extract_traces
from .verify import check_doubling, convergence_study, manufactured_problem

__all__ = ["ConfigError", "Config", "load_config", "run", "main"]

_FMT = "{:.16e}"
# CSV rows formatted and written at a time by _write_csv: neither the text of
# a whole grid nor a per-node list is ever held at once.
_WRITE_ROWS = 1024


class ConfigError(Exception):
    """Invalid or missing configuration; the message names the key."""


class Config:
    """Parsed problem definition (see load_config)."""

    def __init__(self, grid, coeffs, coeff_exprs, rhs, data_kind,
                 classical, nonclassical, tol, max_iter, ridge):
        self.grid = grid
        self.coeffs = coeffs
        self.coeff_exprs = coeff_exprs
        self.rhs = rhs
        self.data_kind = data_kind
        self.classical = classical
        self.nonclassical = nonclassical
        self.tol = tol
        self.max_iter = max_iter
        self.ridge = ridge


# ---------------------------------------------------------------------------
# config reading

def _unquote(raw: str) -> str:
    s = raw.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        return s[1:-1]
    return s


def _get(cp: configparser.ConfigParser, section: str, key: str, default=None) -> str:
    if cp.has_section(section) and cp.has_option(section, key):
        return _unquote(cp.get(section, key))
    if default is None:
        raise ConfigError(f"missing required key [{section}] {key}")
    return default


def _get_float(cp, section, key, default=None) -> float:
    raw = _get(cp, section, key, default)
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: not a finite number: {raw!r}")
    return value


def _get_int(cp, section, key, default=None) -> int:
    raw = _get(cp, section, key, default)
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from None


def _parse_expr(text: str, where: str) -> ex.Expr:
    try:
        return ex.parse(text)
    except ex.ParseError as err:
        raise ConfigError(f"{where}: {err}") from err


def _header(grids) -> str:
    return "x,value" if len(grids) == 1 else "x1,x2,value"


def _layout(grids) -> tuple[str, np.ndarray]:
    """Header and node coordinates, one row per node, of a CSV file on ``grids``.

    One grid: header ``x,value``.  Two grids (x1, x2): header
    ``x1,x2,value``, row-major with x2 varying fastest.
    """
    nodes = np.stack(np.meshgrid(*(g.nodes for g in grids), indexing="ij"), -1)
    return _header(grids), nodes.reshape(-1, len(grids))


def _read_csv(raw: str, grids, base_dir: Path, where: str) -> np.ndarray:
    """Value column of a CSV file in the ``_layout`` of ``grids``.

    Each coordinate must be its grid node to within 1e-12 of the axis
    length, and each value must be finite.
    """
    path = base_dir / raw
    header, nodes = _layout(grids)
    try:
        text = path.read_text().splitlines()
    except OSError as err:
        raise ConfigError(f"{where}: cannot read {path}: {err}") from err
    # The nonblank lines and their numbers in the file, for the messages.
    numbers = [n for n, ln in enumerate(text, start=1) if ln.strip()]
    lines = [text[n - 1] for n in numbers]
    if not lines or lines[0].strip() != header:
        raise ConfigError(f"{where}: {path} must start with header {header!r}")
    if len(lines) - 1 != len(nodes):
        raise ConfigError(f"{where}: {path} must have {len(nodes)} {header} rows")

    def values():  # streamed, so no per-row Python lists stay alive
        for k, ln in enumerate(lines[1:], start=1):
            parts = ln.split(",")
            if len(parts) != len(grids) + 1:
                raise ConfigError(f"{where}: {path} must have {len(nodes)} {header} rows")
            try:
                yield from map(float, parts)
            except ValueError:
                raise ConfigError(
                    f"{where}: {path} line {numbers[k]}: bad numeric row {ln!r}") from None

    rows = np.fromiter(values(), float).reshape(len(nodes), len(grids) + 1)
    off = ~(np.abs(rows[:, :-1] - nodes) <= 1e-12 * np.array([g.length for g in grids]))
    bad = np.flatnonzero(np.any(off, axis=1))
    if bad.size:
        k = int(bad[0])
        raise ConfigError(f"{where}: {path} line {numbers[k + 1]}: coordinates "
                          f"{rows[k, :-1].tolist()} are not the grid node {nodes[k].tolist()}")
    bad = np.flatnonzero(~np.isfinite(rows[:, -1]))
    if bad.size:
        k = int(bad[0])
        raise ConfigError(f"{where}: {path} line {numbers[k + 1]}: value {rows[k, -1]!r} is not finite")
    return rows[:, -1]


# Expression values become grid functions, which reject non-finite values
# with an error naming the input; numpy's overflow warnings would only
# repeat that error, so the evaluations here run under np.errstate.

def _edge_fn(raw: str, grid, base_dir: Path, where: str) -> GridFn1D:
    """Edge-function entry: an expression (univariate) or a 1D CSV path."""
    if raw.endswith(".csv"):
        return GridFn1D(grid, _read_csv(raw, [grid], base_dir, where))
    e = _parse_expr(raw, where)
    x = grid.nodes
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.broadcast_to(np.asarray(ex.evaluate(e, x, x), dtype=float), x.shape)
        return GridFn1D(grid, values)
    except (ex.EvalDomainError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _fn2d(raw: str, grid: Grid2D, base_dir: Path, where: str) -> GridFn2D:
    if raw.endswith(".csv"):
        return GridFn2D(grid, _read_csv(raw, [grid.g1, grid.g2], base_dir, where).reshape(grid.shape))
    e = _parse_expr(raw, where)
    X1 = grid.g1.nodes[:, None]
    X2 = grid.g2.nodes[None, :]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = ex.sample(e, X1, X2, grid.shape)
        return GridFn2D(grid, values)
    except (ex.EvalDomainError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def load_config(path) -> Config:
    """Read a problem definition; raises ConfigError naming the bad key."""
    path = Path(path)
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config {path}: {err}") from err
    base_dir = path.parent

    h1 = _get_float(cp, "domain", "h1")
    h2 = _get_float(cp, "domain", "h2")
    n1 = _get_int(cp, "domain", "n1")
    n2 = _get_int(cp, "domain", "n2")
    try:
        grid = Grid2D(make_grid(h1, n1), make_grid(h2, n2))
    except ValueError as err:
        raise ConfigError(f"[domain]: {err}") from err

    coeff_exprs = {}
    for name in COEFFICIENT_NAMES:
        coeff_exprs[name] = _parse_expr(
            _get(cp, "coefficients", name, "0"), f"[coefficients] {name}"
        )
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # see the note above _edge_fn
            coeffs = Coefficients.from_exprs(grid, coeff_exprs)
    except (ex.EvalDomainError, ValueError) as err:
        raise ConfigError(f"[coefficients]: {err}") from err

    if cp.has_section("rhs") and cp.has_option("rhs", "csv"):
        if cp.has_option("rhs", "expr"):
            raise ConfigError("[rhs]: give either expr or csv, not both")
        rhs = _fn2d(_get(cp, "rhs", "csv"), grid, base_dir, "[rhs] csv")
    else:
        rhs = _fn2d(_get(cp, "rhs", "expr", "0"), grid, base_dir, "[rhs] expr")

    has_nc = cp.has_section("data.nonclassical")
    has_c = cp.has_section("data.classical")
    if has_nc and has_c:
        raise ConfigError("exactly one of [data.nonclassical] / [data.classical] may be present")
    nonclassical = classical = None
    data_kind = None
    if has_nc:
        data_kind = "nonclassical"
        sec = "data.nonclassical"
        scalars = {k: _get_float(cp, sec, k, "0") for k in NonClassicalData.SCALARS}
        nonclassical = NonClassicalData(
            **scalars,
            z20=_edge_fn(_get(cp, sec, "z20", "0"), grid.g1, base_dir, f"[{sec}] z20"),
            z02=_edge_fn(_get(cp, sec, "z02", "0"), grid.g2, base_dir, f"[{sec}] z02"),
            z20_h2=_edge_fn(_get(cp, sec, "z20_h2", "0"), grid.g1, base_dir, f"[{sec}] z20_h2"),
            z02_h1=_edge_fn(_get(cp, sec, "z02_h1", "0"), grid.g2, base_dir, f"[{sec}] z02_h1"),
        )
    elif has_c:
        data_kind = "classical"
        sec = "data.classical"
        fns = {}
        for name, g in (("phi1", grid.g2), ("phi2", grid.g2), ("psi1", grid.g1), ("psi2", grid.g1)):
            fns[name] = BoundaryFn(
                _get_float(cp, sec, f"{name}.v0", "0"),
                _get_float(cp, sec, f"{name}.v1", "0"),
                _edge_fn(_get(cp, sec, f"{name}.v2", "0"), g, base_dir, f"[{sec}] {name}.v2"),
            )
        classical = ClassicalData(**fns)

    # tol and max_iter are read, checked and echoed in --diag for old
    # configs; the solver no longer uses them.
    tol = _get_float(cp, "solver", "tol", "1e-12")
    max_iter = _get_int(cp, "solver", "max_iter", "200")
    ridge = _get_float(cp, "solver", "ridge", "0")
    if tol <= 0:
        raise ConfigError("[solver] tol must be positive")
    if max_iter < 1:
        raise ConfigError("[solver] max_iter must be >= 1")
    if ridge < 0:
        raise ConfigError("[solver] ridge must be nonnegative")

    return Config(grid, coeffs, coeff_exprs, rhs, data_kind, classical, nonclassical,
                  tol, max_iter, ridge)


# ---------------------------------------------------------------------------
# output writers

def _write_text(path, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_csv(path, grids, values):
    """Write ``values`` on the nodes of ``grids`` as CSV, in their ``_layout``.

    Each axis's coordinates are formatted once; the last axis's text ends in
    a ``%.16e`` slot for the value, so a row's text is the product of the
    axes' texts and a chunk of rows is filled with one ``%`` (which gives
    the same text as ``_FMT`` for every double).
    """
    axes = [[f"{x:.16e}," for x in g.nodes.tolist()] for g in grids]
    axes[-1] = [text + "%.16e\n" for text in axes[-1]]
    rows = map("".join, itertools.product(*axes))
    values = np.reshape(values, -1)
    with open(path, "w", newline="\n") as fh:
        fh.write(_header(grids) + "\n")
        for start in range(0, values.size, _WRITE_ROWS):
            chunk = values[start:start + _WRITE_ROWS].tolist()
            fh.write("".join(itertools.islice(rows, len(chunk))) % tuple(chunk))


def _diagnostics_dict(cfg: Config, sol) -> dict:
    d = sol.diagnostics
    out = {
        "h1": cfg.grid.g1.length,
        "h2": cfg.grid.g2.length,
        "n1": cfg.grid.g1.n,
        "n2": cfg.grid.g2.n,
        "tol": cfg.tol,
        "max_iter": cfg.max_iter,
        "ridge": cfg.ridge,
        "goursat_iterations": d.goursat_iterations,
        "closure_residual": d.closure_residual,
        "equation_residual": d.equation_residual,
        "compat_rho1": d.compat.rho1,
        "compat_rho2": d.compat.rho2,
        "compat_rho3": d.compat.rho3,
        "theta_c": float(sol.theta[0]),
    }
    for name, value in d.condition_residuals.items():
        out[f"condition_residual_{name}"] = value
    for name, value in d.coefficient_norms.items():
        out[f"coefficient_norm_{name}"] = value
    if d.agreement is not None:
        out["agreement_r1"] = d.agreement.r1
        out["agreement_r2"] = d.agreement.r2
        out["agreement_r3"] = d.agreement.r3
        out["agreement_r4"] = d.agreement.r4
    return out


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if cfg.data_kind is None:
        raise ConfigError("solve needs a [data.nonclassical] or [data.classical] block")
    if cfg.data_kind == "classical":
        sol = solve_classical(cfg.coeffs, cfg.rhs, cfg.classical, cfg.grid, ridge=cfg.ridge)
    else:
        sol = solve_dirichlet(DirichletProblem(cfg.grid, cfg.coeffs, cfg.rhs, cfg.nonclassical,
                                               ridge=cfg.ridge))

    out = Path(args.out)
    grids = [cfg.grid.g1, cfg.grid.g2]
    _write_csv(out, grids, sol.field.u.values)
    if args.field:
        for i in range(3):
            for j in range(3):
                side = out.with_name(f"{out.stem}_d{i}{j}{out.suffix}")
                if (i, j) == (0, 0):  # field.u is d[0][0]: its file is already written
                    shutil.copyfile(out, side)
                else:
                    _write_csv(side, grids, sol.field.d[i][j].values)
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
    cfg = load_config(args.config)
    out = Path(args.out)
    lines = _domain_block(cfg.grid)

    def side_csv(name: str, fn: GridFn1D) -> str:
        side = out.with_name(f"{out.stem}_{name}.csv")
        _write_csv(side, [fn.grid], fn.values)
        return side.name

    if args.direction == "c2n":
        if cfg.data_kind != "classical":
            raise ConfigError("direction c2n needs a [data.classical] block")
        z = classical_to_nonclassical(cfg.classical)
        lines.append("[data.nonclassical]")
        for key in NonClassicalData.SCALARS:
            lines.append(f"{key} = {getattr(z, key)!r}")
        for key in NonClassicalData.X1_FUNCTIONS + NonClassicalData.X2_FUNCTIONS:
            lines.append(f'{key} = "{side_csv(key, getattr(z, key))}"')
    else:
        if cfg.data_kind != "nonclassical":
            raise ConfigError("direction n2c needs a [data.nonclassical] block")
        d = nonclassical_to_classical(cfg.nonclassical)
        lines.append("[data.classical]")
        for name in ("phi1", "phi2", "psi1", "psi2"):
            fn = getattr(d, name)
            lines.append(f"{name}.v0 = {fn.v0!r}")
            lines.append(f"{name}.v1 = {fn.v1!r}")
            lines.append(f'{name}.v2 = "{side_csv(f"{name}_v2", fn.v2)}"')
    _write_text(out, "\n".join(lines) + "\n")
    return 0


def _cmd_check(args) -> int:
    cfg = load_config(args.config)
    if cfg.data_kind is None:
        raise ConfigError("check needs a [data.nonclassical] or [data.classical] block")
    if cfg.data_kind == "classical":
        rep = check_agreement(cfg.classical)
        residuals = {"r1": rep.r1, "r2": rep.r2, "r3": rep.r3, "r4": rep.r4}
    else:
        rep = check_compatibility(cfg.nonclassical)
        residuals = {"rho1": rep.rho1, "rho2": rep.rho2, "rho3": rep.rho3}
    worst = 0.0
    for name, value in residuals.items():
        print(f"{name} = {_FMT.format(value)}")
        worst = max(worst, abs(value))
    ok = worst <= args.tol
    print(f"max |residual| = {_FMT.format(worst)} ({'<=' if ok else '>'} tol {args.tol:g})")
    return 0 if ok else 1


def _manufactured_u(text: str, grids) -> ex.Expr:
    """The --u expression, whose nine derivatives must be finite at the nodes of every grid."""
    u = _parse_expr(text, "--u")
    for grid in grids:
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # see the note above _edge_fn
                extract_traces(u, grid)
        except (ex.EvalDomainError, ValueError) as err:
            raise ConfigError(f"--u: {err} on the {grid.g1.n}x{grid.g2.n} grid") from err
    return u


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    case = manufactured_problem(_manufactured_u(args.u, [cfg.grid]), cfg.coeffs, cfg.grid)
    sol = solve_dirichlet(case.problem)
    lines = ["quantity,max_error,l2_error"]
    for i in range(3):
        for j in range(3):
            diff = sol.field.d[i][j].values - case.reference.d[i][j].values
            e_max = float(np.max(np.abs(diff)))
            e_l2 = lp_norm(GridFn2D(cfg.grid, diff), 2)
            lines.append(f"d{i}{j},{_FMT.format(e_max)},{_FMT.format(e_l2)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    diff = sol.field.u.values - case.reference.u.values
    print(f"max |u - reference| = {np.max(np.abs(diff)):.3e} "
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
    lengths = (cfg.grid.g1.length, cfg.grid.g2.length)
    grids = [Grid2D(make_grid(lengths[0], n), make_grid(lengths[1], n)) for n in ns]
    table = convergence_study(_manufactured_u(args.u, grids), cfg.coeff_exprs, lengths, ns)
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


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ex.ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
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
