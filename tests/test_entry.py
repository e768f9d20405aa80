"""The process entry: `python -m excol` runs `excol.cli.entry`.

`entry()` runs `main`, flushes the output and ends the process with
`os._exit`, so the interpreter's teardown never runs.  Every case here runs
a fresh interpreter with `PYTHONPATH=src`: the process gives the same
stdout and stderr bytes and exit code as `main(argv)` in this process, an `atexit`
hook never runs, and an output write error is exit 2 with one line on
stderr and no traceback, with stdout buffered or not.  With stderr closed
(`2>&-`) the exit code is still the one `main` returns.
"""

import ast
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from excol import FIXTURE_NAMES, fixtures
from excol.cli import main

ROOT = Path(__file__).resolve().parents[1]
P3 = str(ROOT / "fixtures" / "beilinson_p3.json")


def _env(unbuffered=True):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "EXCOL_FIXTURES")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def excol(*argv, unbuffered=True, **kwargs):
    """Run `python -m excol argv` to exit; stdout and stderr are piped unless given."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "excol", *argv], stderr=subprocess.PIPE,
                          env=_env(unbuffered), cwd=ROOT, timeout=120, **kwargs)


def _failing_document(tmp_path):
    # beilinson_p2 with its first AA coefficient doubled: associativity fails
    doc = json.loads(fixtures.fixture_document("beilinson_p2"))
    doc["products"][0]["entries"][0][-1] = "2"
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _malformed_document(tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text("{]", encoding="utf-8")
    return str(path)


CASES = [
    ("ss-text", lambda tmp: ["ss", P3], 0),
    ("fixture-p3", lambda tmp: ["fixture", "beilinson_p3"], 0),  # 73 KB, over a pipe's buffer
    ("height-json", lambda tmp: ["height", P3, "--json"], 0),
    ("validate-fails", lambda tmp: ["validate", _failing_document(tmp)], 1),
    ("usage-error", lambda tmp: ["height", "point", "--bogus"], 2),
    ("malformed", lambda tmp: ["height", _malformed_document(tmp)], 2),
]


@pytest.mark.parametrize("make_argv, code", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_process_matches_main(tmp_path, capsys, make_argv, code, unbuffered):
    argv = make_argv(tmp_path)
    assert main(list(argv)) == code
    out, err = capsys.readouterr()
    proc = excol(*argv, unbuffered=unbuffered)
    assert proc.returncode == code
    assert proc.stdout == out.encode("utf-8")
    assert proc.stderr == err.encode("utf-8")


def test_interpreter_teardown_is_skipped():
    hook = ("import atexit, runpy\n"
            "atexit.register(print, 'teardown ran')\n"
            "runpy.run_module('excol', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", hook, "fixture", "--list"],
                          capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.split() == list(FIXTURE_NAMES)
    assert "teardown ran" not in proc.stdout + proc.stderr


def _one_write_error_line(proc, code):
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert "Traceback" not in err
    assert re.fullmatch(r"error: cannot write output: \[Errno \d+\] [^\n]+\n", err), err
    assert os.strerror(code) in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["ss", P3], ["fixture", "point"], ["fixture", "--list"],
                                  ["height", P3, "--json"], ["--help"]],
                         ids=["ss", "fixture", "fixture-list", "height-json", "help"])
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_full_device_is_exit_2(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = excol(*argv, unbuffered=unbuffered, stdout=full)
    _one_write_error_line(proc, errno.ENOSPC)


@pytest.mark.parametrize("argv", [["ss", P3], ["fixture", "beilinson_p3"]], ids=["ss", "fixture"])
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_pipe_is_exit_2(argv, unbuffered):
    # the reading end is closed before the job starts: its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = excol(*argv, unbuffered=unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    _one_write_error_line(proc, errno.EPIPE)


@pytest.mark.parametrize("argv", [["ss", P3], ["fixture", "point"]], ids=["ss", "fixture"])
def test_closed_stdout_is_exit_0(argv):
    # `>&-`: the job starts without a file descriptor 1, so sys.stdout is None
    shell = '"$0" -m excol "$@" >&-'
    proc = subprocess.run(["/bin/sh", "-c", shell, sys.executable, *argv],
                          capture_output=True, env=_env(), cwd=ROOT, timeout=60)
    assert proc.returncode == 0 and not proc.stderr


CLOSED_STDERR = [
    ("no-such-input", lambda tmp: ["height", "nosuch"], 2),
    ("usage-error", lambda tmp: ["height", "point", "--bogus"], 2),
    ("malformed", lambda tmp: ["height", _malformed_document(tmp)], 2),
    ("engine-error", lambda tmp: ["height", _failing_document(tmp)], 1),
    ("validate-fails", lambda tmp: ["validate", _failing_document(tmp)], 1),
    ("ss-text", lambda tmp: ["ss", P3], 0),
]


@pytest.mark.parametrize("make_argv, code", [c[1:] for c in CLOSED_STDERR],
                         ids=[c[0] for c in CLOSED_STDERR])
def test_closed_stderr_keeps_the_exit_code(tmp_path, capsys, make_argv, code):
    # `2>&-`: writing the error message fails, and the exit code must not change
    argv = make_argv(tmp_path)
    assert main(list(argv)) == code
    out, _ = capsys.readouterr()
    shell = '"$0" -m excol "$@" 2>&-'
    proc = subprocess.run(["/bin/sh", "-c", shell, sys.executable, *argv],
                          capture_output=True, env=_env(), cwd=ROOT, timeout=60)
    assert proc.returncode == code
    assert proc.stdout == out.encode("utf-8") and not proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_with_closed_stderr_is_exit_2():
    shell = '"$0" -m excol "$@" >/dev/full 2>&-'
    proc = subprocess.run(["/bin/sh", "-c", shell, sys.executable, "ss", P3],
                          capture_output=True, env=_env(), cwd=ROOT, timeout=60)
    assert proc.returncode == 2 and not proc.stdout and not proc.stderr


def test_script_and_module_run_the_same_entry():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.findall(r'^excol = "excol\.cli:(\w+)"$', pyproject, re.M)
    tree = ast.parse((ROOT / "src" / "excol" / "__main__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "cli"
                for alias in node.names}
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert scripts == ["entry"]
    assert called == {"entry"} and "entry" in imported
