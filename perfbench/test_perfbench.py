"""Checks of the benchmark itself: smoke runs, tracer hygiene, exact counts.

Run from the root of the repository:

    python -m pytest -q perfbench
"""

import numpy as np
import pytest

import run

run.import_ppde()

import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = (
    "grid.cumtrapz_calls", "grid.gridfn2d_allocs", "grid.bytes_alloc_computed",
    "representation.reconstruct_calls", "goursat.solves", "goursat.sweeps_sum",
    "goursat.sweeps_max", "dirichlet.probes", "dirichlet.closure_rank",
    "problem.apply_operator_calls", "expr.sample_calls", "cli.bytes_read", "cli.bytes_written",
)


def traced_layer_metrics(name, tmp_path, n=None, seed=0):
    """Per-layer metrics of one traced set-up and one traced call."""
    wl = workloads.make(name, seed, tmp_path, n)
    tracer = tracing.Tracer()
    with tracer:
        start = tracer.mark()
        for _ in range(run.TRACED_SETUP_REPEATS):
            state = wl.setup()
        middle = tracer.mark()
        result = wl.call(state)
    _, failures = wl.check(state, result)
    assert failures == []
    io = wl.io_bytes(result) if hasattr(wl, "io_bytes") else (0, 0)
    return run.layer_metrics(wl, tracer.summary(start, middle), tracer.summary(middle), 1, 1.0,
                             io, tracing.closure_svd(tracer.systems[-1]))


@pytest.mark.parametrize("name", sorted(run.SMOKE_N))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(name, trace):
    result, extra = run.run_once(name, 3, 0.1, trace, run.SMOKE_N[name])
    assert extra["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.metric_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_tracer_restores_bindings_and_leaves_untraced_runs_alone(tmp_path):
    originals = tracing.installed_bindings()
    wl = workloads.make("mixed64", 0, tmp_path, 6)
    state = wl.setup()
    tracer = tracing.Tracer()
    with tracer:
        assert all(tracing.installed_bindings()[k] is not v for k, v in originals.items())
        traced = wl.call(state)
    assert all(tracing.installed_bindings()[k] is v for k, v in originals.items())
    spans = len(tracer.spans)
    assert spans > 0
    untraced = wl.call(state)
    assert len(tracer.spans) == spans
    assert np.array_equal(traced.field.u.values, untraced.field.u.values)
    assert traced.diagnostics.goursat_iterations == untraced.diagnostics.goursat_iterations


def test_smoke_mode_passes(capsys):
    assert run.smoke() == 0
    assert "bindings restored: True" in capsys.readouterr().out


@pytest.mark.parametrize("name, sweeps, allocs", [
    ("free128", 261, 8091),
    ("mixed64", 3590, 38693),
    ("cli64", 133, None),
])
def test_exact_counts_of_the_reference_u(name, sweeps, allocs, tmp_path):
    first = traced_layer_metrics(name, tmp_path / "a")
    n = workloads.WORKLOADS[name][0]
    assert first["goursat.solves"] == 2 * n + 5
    assert first["dirichlet.probes_per_unknown"] == (2 * n + 4) / (2 * n + 3)
    assert first["goursat.sweeps_sum"] == sweeps
    assert first["problem.apply_operator_calls"] == 2 * n + 5
    if allocs is not None:
        assert first["grid.gridfn2d_allocs"] == allocs
    second = traced_layer_metrics(name, tmp_path / "b")
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}
