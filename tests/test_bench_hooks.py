"""The benchmark's traced run works on this tree.

`perfbench/run.py --trace 1` runs a workload's jobs through `cli.main` in
its own process, then again with `perfbench/tracing.py` installed.
`tracing.install` looks up every module it wraps in `sys.modules` and every
function it wraps by name, and its hooks read the fields of the results
(`NormalComplex.t_dims` and `.diffs`); a name that moves, or a `main` that
ends the process, ends that run.  Each case here runs a small version of
one workload the same way, in a fresh interpreter, with `tracing.py`
loaded by path and left as it is.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXACT = ["validate", "pseudoheight", "e1", "ss", "height", "report", "fullness"]
QUALITATIVE = [c for c in EXACT if c != "e1"]


def _every_command(path, commands):
    return [[cmd, path, "--json"] for cmd in commands]


STARTUP = ["fixture", "--list", "--json"]
WORKLOADS = {
    "projective": [
        *_every_command("fixtures/beilinson_p2.json", EXACT),
        ["fixture", "beilinson_p2"],
        ["height", "fixtures/beilinson_p3.json", "--json", "--field", "F2147483647"],
        STARTUP,
    ],
    "chains": [
        *_every_command("tests/data/sparse15.json", EXACT),
        *_every_command("fixtures/burniat.json", QUALITATIVE),
        ["fixture", "burniat"],
        STARTUP,
    ],
}

# argv: the path of tracing.py, then the jobs as JSON; prints the results
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
from excol import cli

spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
jobs = json.loads(sys.argv[2])

def run_pass():
    results = []
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        results.append([code, out.getvalue(), err.getvalue()])
    return results

plain = run_pass()
tracer = tracing.Tracer()
uninstall = tracing.install(tracer)
try:
    traced = run_pass()
finally:
    uninstall()
metrics = tracer.layer_metrics()
print(json.dumps({"plain": plain, "traced": traced, "metrics": type(metrics).__name__,
                  "spans": len(tracer.spans)}))
"""


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_completes(workload):
    jobs = WORKLOADS[workload]
    env = {k: v for k, v in os.environ.items() if k != "EXCOL_FIXTURES"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench" / "tracing.py"),
         json.dumps(jobs)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    codes = [code for code, _, _ in result["plain"]]
    assert codes == [0] * len(jobs), [(argv, r[2]) for argv, r in zip(jobs, result["plain"])]
    assert result["traced"] == result["plain"]
    assert result["metrics"] == "dict" and result["spans"] > 0
