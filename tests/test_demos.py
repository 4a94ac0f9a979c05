"""Every demo script runs to completion against the package in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def demos_tree() -> dict:
    """Every path under demos/ with its modification time."""
    return {path: path.stat().st_mtime_ns for path in (ROOT / "demos").rglob("*")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    # TMPDIR keeps the scratch directories that demos create under tmp_path;
    # a demo creates or modifies nothing in the checkout.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    before = demos_tree()
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert demos_tree() == before
