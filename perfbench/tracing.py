"""Span tracer that wraps ppde's public functions from outside the package.

The tracer replaces a fixed list of module bindings (the names through which
ppde's own modules call each other) with thin wrappers.  Each wrapper records
one span (name, parent, start, end) in memory; a few wrappers also record a
count taken from the call's result.  ``uninstall`` puts every original object
back, and ``installed_bindings`` lets callers check that it did.

A span's self time is its duration minus the durations of its direct child
spans.  The program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import time

import numpy as np

import ppde.cli
import ppde.dirichlet
import ppde.expr
import ppde.goursat
import ppde.grid
import ppde.representation
import ppde.verify

# (owner, attribute, span name).  The owner is the module whose global name
# is looked up at call time, so wrapping it catches the calls made there.
BINDINGS = (
    (ppde.cli, "run", "cli.run"),
    (ppde.cli, "load_config", "cli.load_config"),
    (ppde.cli, "solve_classical", "dirichlet.solve_classical"),
    (ppde.dirichlet, "solve_dirichlet", "dirichlet.solve_dirichlet"),
    (ppde.dirichlet, "assemble_closure_system", "dirichlet.assemble_closure_system"),
    (ppde.dirichlet, "solve_goursat", "goursat.solve_goursat"),
    (ppde.dirichlet, "check_compatibility", "problem.check_compatibility"),
    (ppde.dirichlet, "classical_to_nonclassical", "problem.classical_to_nonclassical"),
    (ppde.goursat, "reconstruct_field", "representation.reconstruct_field"),
    (ppde.goursat, "apply_operator", "problem.apply_operator"),
    (ppde.verify, "manufactured_problem", "verify.manufactured_problem"),
    (ppde.verify, "apply_operator", "problem.apply_operator"),
    (ppde.representation, "cumtrapz", "grid.cumtrapz"),
    (ppde.grid, "cumtrapz", "grid.cumtrapz"),
    (ppde.grid.GridFn2D, "__init__", "grid.GridFn2D"),
    (ppde.expr, "sample", "expr.sample"),
)


def installed_bindings() -> dict:
    """The objects currently bound at every traced binding."""
    return {(owner.__name__, attr): vars(owner)[attr] for owner, attr, _ in BINDINGS}


class Tracer:
    """Records spans around ppde's layer boundaries while installed."""

    def __init__(self):
        self.spans = []          # [name, parent index or -1, start_ns, end_ns]
        self.sweeps = []         # Picard sweeps of each solve_goursat call
        self.bytes_alloc = 0     # bytes copied by GridFn2D constructions
        self.systems = []        # ClosureSystem objects returned by assembly
        self._stack = []
        self._saved = []

    # -- installing -------------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in BINDINGS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        on_result = {
            "goursat.solve_goursat": lambda args, r: self.sweeps.append(r.iterations),
            "dirichlet.assemble_closure_system": lambda args, r: self.systems.append(r),
            "grid.GridFn2D": self._count_bytes,
        }.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_bytes(self, args, result):
        self.bytes_alloc += args[0].values.nbytes

    # -- reading ----------------------------------------------------------
    def mark(self) -> tuple:
        """Position to pass to ``summary`` to cover only later spans."""
        return len(self.spans), len(self.sweeps), self.bytes_alloc

    def summary(self, start=(0, 0, 0), end=None) -> dict:
        """Per-name call counts, total and self seconds between two marks.

        Also splits solve_goursat spans by caller: ``probe`` spans sit under
        closure assembly, ``final`` spans directly under solve_dirichlet.
        apply_operator spans under a Goursat solve are ``goursat_residual``.
        """
        first, first_sweep, first_bytes = start
        last, last_sweep, last_bytes = self.mark() if end is None else end
        spans = self.spans
        child_ns = [0] * len(spans)
        for k in range(first, last):
            name, parent, t0, t1 = spans[k]
            if parent >= first:
                child_ns[parent] += t1 - t0
        stats = {}
        split = {"probe": 0, "final": 0, "goursat_residual": 0}
        for k in range(first, last):
            name, parent, t0, t1 = spans[k]
            entry = stats.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - child_ns[k]
            pname = spans[parent][0] if parent >= 0 else None
            if name == "goursat.solve_goursat":
                if pname == "dirichlet.assemble_closure_system":
                    split["probe"] += 1
                elif pname == "dirichlet.solve_dirichlet":
                    split["final"] += t1 - t0
            elif name == "problem.apply_operator" and pname == "goursat.solve_goursat":
                split["goursat_residual"] += t1 - t0
        return {
            "calls": {n: e[0] for n, e in stats.items()},
            "total_s": {n: e[1] * 1e-9 for n, e in stats.items()},
            "self_s": {n: e[2] * 1e-9 for n, e in stats.items()},
            "probes": split["probe"],
            "final_solve_s": split["final"] * 1e-9,
            "goursat_residual_s": split["goursat_residual"] * 1e-9,
            "sweeps": self.sweeps[first_sweep:last_sweep],
            "bytes_alloc": last_bytes - first_bytes,
        }

    def write_spans(self, path):
        """Write every span as gzip CSV: id, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for k, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{k},{parent},{name},{t0},{t1}\n")


def closure_svd(system) -> tuple[int, float]:
    """Numerical rank and 2-norm condition number of a closure matrix."""
    s = np.linalg.svd(system.matrix, compute_uv=False)
    tol = s[0] * max(system.matrix.shape) * np.finfo(float).eps
    return int(np.sum(s > tol)), float(s[0] / s[-1])
