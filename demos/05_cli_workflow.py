"""The batch front-end: config in, CSV grids and JSON diagnostics out.

Writes a self-contained problem config, then drives the same entry point
the ``ppde`` console script uses: check the data, solve, inspect the
diagnostics, and convert the data block to the classical formulation and
back, which round-trips bit-exactly thanks to the 17-digit CSV fields.
"""

import json
import tempfile
import textwrap
from pathlib import Path

from ppde.cli import run

work = Path(tempfile.mkdtemp(prefix="ppde_demo_"))
config = work / "problem.ini"
config.write_text(textwrap.dedent("""\
    [domain]
    h1 = 1.0
    h2 = 1.0
    n1 = 32
    n2 = 32

    [coefficients]
    a00 = "1"

    [rhs]
    expr = "4 + x1^2*x2^2"

    # trace data of u = x1^2 * x2^2
    [data.nonclassical]
    z20_h2 = "2"
    z02_h1 = "2"
    """))

print(f"workspace: {work}\n")

print("$ ppde check --config problem.ini")
code = run(["check", "--config", str(config)])
print(f"(exit {code})\n")

print("$ ppde solve --config problem.ini --out u.csv --diag diag.json")
code = run(["solve", "--config", str(config), "--out", str(work / "u.csv"),
            "--diag", str(work / "diag.json")])
last = (work / "u.csv").read_text().strip().splitlines()[-1]
print(f"(exit {code})  far corner row of u.csv: {last}")
diag = json.loads((work / "diag.json").read_text())
print(f"equation residual {diag['equation_residual']:.1e}, "
      f"{diag['goursat_iterations']} march per Goursat solve\n")

print("$ ppde convert --config problem.ini --direction n2c --out classical.ini")
code = run(["convert", "--config", str(config), "--direction", "n2c",
            "--out", str(work / "classical.ini")])
print(f"(exit {code})  wrote: {[p.name for p in sorted(work.glob('classical*'))]}\n")

print("$ ppde convert --config classical.ini --direction c2n --out roundtrip.ini")
code = run(["convert", "--config", str(work / "classical.ini"), "--direction", "c2n",
            "--out", str(work / "roundtrip.ini")])
print(f"(exit {code})")

print("\n$ ppde convergence --u 'sin(x1)*sin(x2)' --config problem.ini --grids 8,16,32 --out conv.csv")
run(["convergence", "--u", "sin(x1)*sin(x2)", "--config", str(config),
     "--grids", "8,16,32", "--out", str(work / "conv.csv")])
