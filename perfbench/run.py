"""ppde benchmark: end-to-end metrics untraced, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload free128 --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --smoke

Every workload runs in this one process as a closed loop: each call starts
when the one before it has returned and been checked.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps ppde's layer boundaries (see
tracing.py) and reports the per-layer metrics.  The last line of standard
output is the JSON result; the line before it holds the run's metadata.
Result files and spans go to perfbench/out/.  ``--smoke`` runs every
workload at a tiny grid, untraced and traced, and checks tracer hygiene.
"""

from __future__ import annotations

import os

# One BLAS thread: the machine has two cores and the solver is sequential.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUPS_PER_CALL = 5
TRACED_SETUP_REPEATS = 3
SMOKE_N = {"free128": 8, "mixed64": 6, "cli64": 8}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def import_ppde():
    """Import ppde from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import ppde
    if Path(ppde.__file__).resolve().parent != ROOT / "src" / "ppde":
        raise ImportError(f"ppde imported from {ppde.__file__}, not from {ROOT / 'src'}")
    return ppde


class Runner:
    """Times, checks and counts the set-ups and calls of one workload."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures = []
        self.u_err = 0.0

    def timed_setups(self, repeats):
        """Run the set-up ``repeats`` times; returns (times, last state)."""
        times, state = [], None
        for _ in range(repeats):
            t0 = time.perf_counter()
            state = self.wl.setup()
            times.append(time.perf_counter() - t0)
        return times, state

    def checked_call(self, state):
        """One call, timed; the check runs after the clock stops."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = self.wl.call(state)
            elapsed = time.perf_counter() - t0
        except Exception:
            self.failures.append(traceback.format_exc())
            return None, None
        try:
            u_err, failures = self.wl.check(state, result)
        except Exception:
            u_err, failures = 0.0, [traceback.format_exc()]
        self.u_err = max(self.u_err, u_err)
        self.failures += failures
        return elapsed, result

    def timed_loop(self, seconds, setups_per_call, state=None, on_result=None):
        """Set up and call until the next round would end after ``seconds``.

        Runs at least one round.  Set-ups are spread over the whole loop, so
        set-up and call times see the same machine; with no set-ups per call
        every call reuses ``state``.  Returns the call and set-up times.
        """
        calls, setups = [], []
        start = time.perf_counter()
        while not calls or (time.perf_counter() - start
                            + statistics.median(calls) <= seconds):
            if setups_per_call:
                setup_times, state = self.timed_setups(setups_per_call)
                setups += setup_times
            elapsed, result = self.checked_call(state)
            if elapsed is None:
                if time.perf_counter() - start > seconds:
                    break
                continue
            calls.append(elapsed)
            if on_result is not None:
                on_result(result)
        return calls, setups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_untraced(runner, seconds):
    _, state = runner.timed_setups(SETUPS_PER_CALL)
    # Peak memory in its own untimed pass.  The first call after it runs
    # markedly slower, so one more untimed call warms the process up.
    tracemalloc.start()
    try:
        runner.checked_call(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    runner.checked_call(state)
    times, setup_times = runner.timed_loop(seconds, SETUPS_PER_CALL)
    if not times:
        return {}, {}
    metrics = {
        "solve_s": statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_mb": peak / 1e6,
        "u_err": runner.u_err,
    }
    q1, q3 = quartiles(times)
    extra = {"solve_s_q1": q1, "solve_s_q3": q3, "solve_samples": len(times),
             "setup_samples": len(setup_times), "solve_times": times, "setup_times": setup_times}
    return metrics, extra


def layer_metrics(wl, setup, solve, calls, overhead, io, closure):
    """Per-layer metrics: set-up layers per set-up, the rest per call."""
    sc, st, ss = solve["calls"], solve["total_s"], solve["self_s"]
    sweeps = solve["sweeps"]
    n_setup = TRACED_SETUP_REPEATS
    unknowns = 2 * wl.n + 3

    def per_call(d, name):
        return d.get(name, 0) / calls

    return {
        "grid.cumtrapz_calls": per_call(sc, "grid.cumtrapz"),
        "grid.cumtrapz_s": per_call(st, "grid.cumtrapz"),
        "grid.gridfn2d_allocs": per_call(sc, "grid.GridFn2D"),
        "grid.gridfn2d_s": per_call(st, "grid.GridFn2D"),
        "grid.bytes_alloc_computed": solve["bytes_alloc"] / calls,
        "representation.reconstruct_calls": per_call(sc, "representation.reconstruct_field"),
        "representation.reconstruct_self_s": per_call(ss, "representation.reconstruct_field"),
        "goursat.solves": per_call(sc, "goursat.solve_goursat"),
        "goursat.sweeps_sum": sum(sweeps) / calls,
        "goursat.sweeps_max": max(sweeps),
        "goursat.sweeps_per_solve": sum(sweeps) / len(sweeps),
        "goursat.solve_s": per_call(st, "goursat.solve_goursat"),
        "goursat.self_s": per_call(ss, "goursat.solve_goursat"),
        "goursat.final_solve_s": solve["final_solve_s"] / calls,
        "goursat.apply_operator_s": solve["goursat_residual_s"] / calls,
        "dirichlet.assemble_s": per_call(st, "dirichlet.assemble_closure_system"),
        "dirichlet.probes": solve["probes"] / calls,
        "dirichlet.probes_per_unknown": solve["probes"] / calls / unknowns,
        "dirichlet.self_s": per_call(ss, "dirichlet.solve_dirichlet"),
        "dirichlet.closure_rank": closure[0],
        "dirichlet.closure_cond": closure[1],
        "problem.convert_s": per_call(st, "problem.classical_to_nonclassical"),
        "problem.compat_s": per_call(st, "problem.check_compatibility"),
        "problem.apply_operator_calls": per_call(sc, "problem.apply_operator"),
        "expr.sample_calls": setup["calls"].get("expr.sample", 0) / n_setup,
        "expr.sample_s": setup["total_s"].get("expr.sample", 0) / n_setup,
        "verify.manufactured_s": setup["total_s"].get("verify.manufactured_problem", 0) / n_setup,
        "cli.load_config_s": per_call(st, "cli.load_config"),
        "cli.self_s": per_call(ss, "cli.run"),
        "cli.bytes_read": io[0],
        "cli.bytes_written": io[1],
        "trace.overhead_ratio": overhead,
    }


def run_traced(runner, seconds, tag):
    from tracing import Tracer, closure_svd, installed_bindings

    wl = runner.wl
    originals = installed_bindings()
    _, state = runner.timed_setups(1)
    runner.checked_call(state)  # warm-up
    untraced, _ = runner.timed_loop(seconds / 2, 0, state)

    tracer = Tracer()
    io = []
    with tracer:
        setup_mark = tracer.mark()
        runner.timed_setups(TRACED_SETUP_REPEATS)
        solve_mark = tracer.mark()
        on_result = (lambda r: io.append(wl.io_bytes(r))) if hasattr(wl, "io_bytes") else None
        traced, _ = runner.timed_loop(seconds / 2, 0, state, on_result)
    if any(installed_bindings()[k] is not v for k, v in originals.items()):
        runner.failures.append("tracer left a wrapped binding behind")
    if not (untraced and traced and tracer.systems):
        return {}, {}
    setup = tracer.summary(setup_mark, solve_mark)
    solve = tracer.summary(solve_mark)
    overhead = statistics.median(traced) / statistics.median(untraced)
    io_mean = tuple(sum(col) / len(io) for col in zip(*io)) if io else (0, 0)
    metrics = layer_metrics(wl, setup, solve, len(traced), overhead, io_mean,
                            closure_svd(tracer.systems[-1]))
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"spans-{tag}.csv.gz")
    extra = {"traced_samples": len(traced), "untraced_samples": len(untraced),
             "traced_setups": TRACED_SETUP_REPEATS, "spans": len(tracer.spans)}
    return metrics, extra


def source_commit():
    """The git commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ppde").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args, numpy_version):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "commit": source_commit(), "src_sha256": source_digest(),
        "setups_per_call": SETUPS_PER_CALL, "traced_setup_repeats": TRACED_SETUP_REPEATS,
        "machine": platform.machine(),
    }


def run_once(name, seed, seconds, trace, n=None):
    """Run one workload; returns (result dict, extra dict)."""
    import workloads

    wl = workloads.make(name, seed, OUT / "work", n)
    runner = Runner(wl)
    tag = f"{name}-seed{seed}"
    if trace:
        metrics, extra = run_traced(runner, seconds, tag)
        units = metric_units("per_layer")
    else:
        metrics, extra = run_untraced(runner, seconds)
        units = metric_units("end_to_end")
    extra["n"] = wl.n
    extra["failures"] = runner.failures
    result = {
        "correct": not runner.failures and bool(metrics),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    return result, extra


def smoke() -> int:
    """Every workload at a tiny grid, untraced and traced, plus tracer hygiene."""
    from tracing import installed_bindings

    originals = installed_bindings()
    ok = True
    for name, n in SMOKE_N.items():
        for trace in (0, 1):
            result, extra = run_once(name, 0, 0.2, trace, n)
            missing = set(metric_units("per_layer" if trace else "end_to_end")) - set(result["metrics"])
            good = result["correct"] and not missing
            ok &= good
            print(f"{name:8s} n={n} trace={trace} correct={good} attempted={result['attempted']}"
                  + (f" missing={sorted(missing)}" if missing else ""))
            for failure in extra["failures"]:
                print(failure)
    clean = all(installed_bindings()[k] is v for k, v in originals.items())
    print(f"bindings restored: {clean}")
    return 0 if ok and clean else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        import_ppde()
    except ImportError as err:
        print(f"cannot import ppde from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    import numpy

    result, extra = run_once(args.workload, args.seed, args.seconds, args.trace)
    meta = metadata(args, numpy.__version__)
    meta.update(extra)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    for failure in extra["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
