"""The benchmark tracer in perfbench/tracing.py wraps ppde names by binding.

A refactor that drops or renames one of those names would break every
traced benchmark run; this test reads the tracer's binding table (without
installing it) and checks that each name is still there.
"""

from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_exists():
    namespace = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in namespace["BINDINGS"]
               if attr not in vars(owner)]
    assert missing == []
