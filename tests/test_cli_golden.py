"""Golden command-line outputs: exit code and stdout, byte for byte.

`cli_golden.json` holds one record per command line over every shipped
fixture, plus the `--json` records of `data/sparse15.json`: a sparse exact
document with n = 15 where only 22 of the 32,767 chains are live, so it
pins the outputs where the chain walks prune.  `data/arity3.json` carries
one arity-3 product of each kind (AA, AN and the NA wrap) and nothing of
arity 2, so its records pin the page E_3 and all three arity-3 windows.
To rewrite the file from the current tree after an intended output
change, run `PYTHONPATH=src python tests/test_cli_golden.py` from the
repository root and review the diff.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from excol import FIXTURE_NAMES
from excol.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "cli_golden.json")
SPARSE = "tests/data/sparse15.json"  # relative to ROOT, as recorded in argv
ARITY3 = "tests/data/arity3.json"

COMMANDS = ["validate", "pseudoheight", "e1", "ss", "height", "report", "fullness"]
EXTRA = [
    ["pseudoheight", "--anticanonical"],
    ["ss", "--max-page", "5"],
    ["report", "--hoh", "1,0,0,6,9"],
]


def command_lines():
    out = []
    for name in FIXTURE_NAMES:
        for cmd, *flags in [[c] for c in COMMANDS] + EXTRA:
            for as_json in ([], ["--json"]):
                out.append([cmd, name, *flags, *as_json])
    for cmd in ["pseudoheight", "e1", "ss", "height", "report", "fullness"]:
        out.append([cmd, SPARSE, "--json"])
    for cmd, *flags in [[c] for c in COMMANDS] + [["ss", "--max-page", "5"]]:
        out.append([cmd, ARITY3, *flags, "--json"])
    return out


def run_captured(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_command_line(golden):
    assert [rec["argv"] for rec in golden] == command_lines()


@pytest.mark.parametrize("index, argv", [
    pytest.param(i, argv, id=" ".join(argv)) for i, argv in enumerate(command_lines())
])
def test_cli_output_matches_golden(golden, index, argv, monkeypatch):
    monkeypatch.delenv("EXCOL_FIXTURES", raising=False)
    monkeypatch.chdir(ROOT)
    rec = golden[index]
    assert rec["argv"] == argv
    assert run_captured(argv) == (rec["exit"], rec["stdout"])


if __name__ == "__main__":
    os.chdir(ROOT)
    records = []
    for argv in command_lines():
        code, out = run_captured(argv)
        records.append({"argv": argv, "exit": code, "stdout": out})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        lines = [json.dumps(rec, sort_keys=True) for rec in records]
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
