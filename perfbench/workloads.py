"""The benchmark's workloads: inputs made from a seed, one timed call, checks.

Every workload solves a manufactured Dirichlet problem on the unit square.
The seed picks the manufactured u from FAMILY; the grid and the coefficients
are fixed per workload.  Each workload exposes

    setup()        -> state      the user's set-up step, timed as setup_s
    call(state)    -> result     one user-facing call, timed as solve_s
    check(state, result) -> (u_err, [failure messages])

and ``n`` (intervals per axis) for the exact-count checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import ppde.cli
import ppde.dirichlet
import ppde.verify
from ppde.grid import Grid1D, Grid2D
from ppde.problem import Coefficients, classical_to_nonclassical, nonclassical_to_classical

# Smooth separable sums: one fixed transcendental product plus a polynomial
# of degree <= 2 in each variable.  The polynomial part is integrated exactly
# by the trapezoid rule, so u_err is set by sin(x1)*exp(x2) alone and stays
# the same across seeds.  Every entry needs 3590 Picard sweeps at mixed64
# (some other polynomials need 3458 or 3722), so the work per call is the
# same for every seed.  Entry 0 is the reference u of the exact-count checks.
FAMILY = (
    "sin(x1)*exp(x2) + x1^2*x2",
    "sin(x1)*exp(x2) + x1*x2^2",
    "sin(x1)*exp(x2) - x1^2*x2 + 2*x1*x2",
    "sin(x1)*exp(x2) + x1^2*x2 + x1^2",
    "sin(x1)*exp(x2) + x1^2*x2 - x2^2",
    "sin(x1)*exp(x2) + 3*x1^2*x2 + 1",
    "sin(x1)*exp(x2) - 2*x1*x2^2 + x1",
    "sin(x1)*exp(x2) + x1^2*x2 + x2",
)

MIXED_COEFFS = {"a00": "1", "a21": "x1", "a12": "1+x2", "a11": "sin(x1*x2)"}

EQUATION_RESIDUAL_MAX = 1e-10


def u_tolerance(n: int) -> float:
    """Allowed max node error of u: twice the observed 0.2 h^2 of FAMILY."""
    return 0.4 / n**2


def pick_u(seed: int) -> str:
    return FAMILY[seed % len(FAMILY)]


def unit_grid(n: int) -> Grid2D:
    return Grid2D(Grid1D(1.0, n), Grid1D(1.0, n))


def _finite_failures(label: str, arrays) -> list[str]:
    return [f"{label}: non-finite output"] if not all(np.all(np.isfinite(a)) for a in arrays) else []


class LibraryWorkload:
    """solve_dirichlet on a manufactured non-classical problem."""

    def __init__(self, name: str, n: int, coeff_exprs: dict, seed: int):
        self.name = name
        self.n = n
        self.coeff_exprs = coeff_exprs
        self.u = pick_u(seed)
        self.grid = unit_grid(n)

    def setup(self):
        coeffs = Coefficients.from_exprs(self.grid, self.coeff_exprs)
        return ppde.verify.manufactured_problem(self.u, coeffs, self.grid)

    def call(self, case):
        return ppde.dirichlet.solve_dirichlet(case.problem)

    def check(self, case, sol):
        field = [sol.field.d[i][j].values for i in range(3) for j in range(3)]
        failures = _finite_failures(self.name, field + [sol.theta])
        u_err = float(np.max(np.abs(sol.field.u.values - case.reference.u.values)))
        if not u_err <= u_tolerance(self.n):
            failures.append(f"{self.name}: u_err {u_err:.3e} > {u_tolerance(self.n):.3e}")
        res = sol.diagnostics.equation_residual
        if not res <= EQUATION_RESIDUAL_MAX:
            failures.append(f"{self.name}: equation_residual {res:.3e}")
        return u_err, failures


# ---------------------------------------------------------------------------
# cli64: `ppde solve --field --diag` jobs on classical configs with CSV inputs

def _fmt(v: float) -> str:
    return f"{v:.16e}"


def _csv_1d(nodes, values) -> str:
    return "x,value\n" + "".join(f"{_fmt(x)},{_fmt(v)}\n" for x, v in zip(nodes, values))


def _csv_2d(grid: Grid2D, values) -> str:
    x1, x2 = grid.g1.nodes, grid.g2.nodes
    return "x1,x2,value\n" + "".join(
        f"{_fmt(x1[i])},{_fmt(x2[j])},{_fmt(values[i, j])}\n"
        for i in range(x1.size) for j in range(x2.size)
    )


def read_csv_values(path: Path) -> np.ndarray:
    """Last column of a ppde CSV file, in file order."""
    lines = path.read_text().splitlines()[1:]
    return np.array([float(ln.rsplit(",", 1)[1]) for ln in lines])


class CliJob:
    """One classical-formulation config, its inputs and expected output."""

    def __init__(self, directory: Path, u: str, grid: Grid2D):
        directory.mkdir(parents=True, exist_ok=True)
        self.config = directory / "problem.ini"
        self.out = directory / "u.csv"
        self.diag = directory / "diag.json"
        case = ppde.verify.manufactured_problem(u, Coefficients.zeros(grid), grid)
        classical = nonclassical_to_classical(case.problem.data)
        inputs = {"rhs.csv": _csv_2d(grid, case.problem.rhs.values)}
        lines = ["[domain]", "h1 = 1.0", "h2 = 1.0", f"n1 = {grid.g1.n}", f"n2 = {grid.g2.n}",
                 "", "[rhs]", 'csv = "rhs.csv"', "", "[data.classical]"]
        for name in ("phi1", "phi2", "psi1", "psi2"):
            fn = getattr(classical, name)
            inputs[f"{name}_v2.csv"] = _csv_1d(fn.v2.grid.nodes, fn.v2.values)
            lines += [f"{name}.v0 = {fn.v0!r}", f"{name}.v1 = {fn.v1!r}",
                      f'{name}.v2 = "{name}_v2.csv"']
        for fname, text in inputs.items():
            (directory / fname).write_text(text)
        self.config.write_text("\n".join(lines) + "\n")
        self.bytes_read = sum(len(t) for t in inputs.values()) + self.config.stat().st_size
        self.reference_u = case.reference.u.values
        # The formulation guarantee: the CLI's classical solve equals the
        # library's non-classical solve of the converted data, bit for bit.
        cfg = ppde.cli.load_config(self.config)
        problem = ppde.dirichlet.DirichletProblem(
            cfg.grid, cfg.coeffs, cfg.rhs, classical_to_nonclassical(cfg.classical),
            tol=cfg.tol, max_iter=cfg.max_iter, ridge=cfg.ridge)
        self.expected_u = ppde.dirichlet.solve_dirichlet(problem).field.u.values.ravel()

    def argv(self) -> list[str]:
        return ["solve", "--config", str(self.config), "--out", str(self.out),
                "--field", "--diag", str(self.diag)]

    def field_files(self) -> list[Path]:
        return [self.out.with_name(f"u_d{i}{j}.csv") for i in range(3) for j in range(3)]


class CliWorkload:
    """A batch of `ppde solve` jobs run through ppde.cli.run in this process."""

    JOBS = 2

    def __init__(self, name: str, n: int, seed: int, work_dir: Path):
        self.name = name
        self.n = n
        grid = unit_grid(n)
        self.jobs = [CliJob(work_dir / f"job{k}", pick_u(seed + k), grid)
                     for k in range(self.JOBS)]
        self._next_setup = 0
        self._next_call = 0

    def setup(self):
        job = self.jobs[self._next_setup % self.JOBS]
        self._next_setup += 1
        return ppde.cli.load_config(job.config)

    def call(self, _state):
        job = self.jobs[self._next_call % self.JOBS]
        self._next_call += 1
        return job, ppde.cli.run(job.argv())

    def check(self, _state, result):
        job, code = result
        if code != 0:
            return 0.0, [f"{self.name}: exit code {code}"]
        u = read_csv_values(job.out)
        failures = _finite_failures(self.name, [u] + [read_csv_values(p) for p in job.field_files()])
        if not np.array_equal(u, job.expected_u):
            failures.append(f"{self.name}: u.csv differs from the library's non-classical solve")
        u_err = float(np.max(np.abs(u - job.reference_u.ravel())))
        if not u_err <= u_tolerance(self.n):
            failures.append(f"{self.name}: u_err {u_err:.3e} > {u_tolerance(self.n):.3e}")
        res = json.loads(job.diag.read_text())["equation_residual"]
        if not res <= EQUATION_RESIDUAL_MAX:
            failures.append(f"{self.name}: equation_residual {res:.3e}")
        return u_err, failures

    @staticmethod
    def io_bytes(result) -> tuple[int, int]:
        """Bytes the job read (config and CSV inputs) and wrote."""
        job, _code = result
        written = [job.out, job.diag] + job.field_files()
        return job.bytes_read, sum(p.stat().st_size for p in written)


WORKLOADS = {
    "free128": (128, "library", {}),
    "mixed64": (64, "library", MIXED_COEFFS),
    "cli64": (64, "cli", {}),
}


def make(name: str, seed: int, work_dir: Path, n: int | None = None):
    """Build workload ``name``; ``n`` overrides its grid size (smoke mode)."""
    default_n, kind, coeff_exprs = WORKLOADS[name]
    n = default_n if n is None else n
    if kind == "cli":
        return CliWorkload(name, n, seed, work_dir / name)
    return LibraryWorkload(name, n, coeff_exprs, seed)
