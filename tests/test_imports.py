"""Each command imports only the modules on its own path.

Every case runs one command line in a fresh interpreter and reads back the
`excol.*` entries of `sys.modules`, so a stray top-level import anywhere in
the package shows up as an extra module.  The documents are the shipped
fixture files, read from disk, so that `fixtures` is loaded only by the
`fixture` command.  The probe also reports `dataclasses`, `inspect`,
`fractions`, `argparse`, `gettext` and `locale`; no command loads any of
them but `fractions`, so every expected set below, which never names them,
pins their absence as well.  The README's library
imports and the `excol.pseudoheight` submodule are checked here too.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from excol.cli import main

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "fixtures"

# run one command, then print the loaded excol modules (and which of the
# standard modules below are loaded) as the last line of stdout
PROBE = """
import sys
from excol.cli import main
main(sys.argv[1:])
loaded = sorted(m[len("excol."):] for m in sys.modules if m.startswith("excol."))
watched = ("dataclasses", "inspect", "fractions", "argparse", "gettext", "locale")
loaded += ["+" + m for m in watched if m in sys.modules]
print()
print(" ".join(loaded))
"""


def loaded_modules(*argv):
    """The excol submodules a fresh interpreter loads to run `excol argv`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    ).stdout
    return set(out.splitlines()[-1].split())


PARSE = {"cli", "model", "products", "exactlin"}
ANALYSIS = PARSE | {"heights", "pseudoheight"}
ENGINE = ANALYSIS | {"nhh"}
EXACT, QUALITATIVE = "beilinson_p1", "burniat"
# fractions loads only for a value that is not an integer

CASES = [
    ("validate", EXACT, PARSE),
    ("validate", QUALITATIVE, PARSE),
    ("pseudoheight", EXACT, ANALYSIS),
    ("pseudoheight", QUALITATIVE, ANALYSIS),
    ("e1", EXACT, PARSE | {"nhh", "pseudoheight"}),
    ("e1", QUALITATIVE, PARSE | {"nhh", "pseudoheight"}),
    ("ss", EXACT, ENGINE),
    ("ss", QUALITATIVE, ENGINE),
    ("height", EXACT, ENGINE),
    ("height", QUALITATIVE, ANALYSIS),
    ("report", EXACT, ENGINE),
    ("report", QUALITATIVE, ANALYSIS),
    ("fullness", EXACT, ENGINE | {"fullness"}),
    ("fullness", QUALITATIVE, ENGINE | {"fullness"}),
]


@pytest.mark.parametrize("cmd, name, expected", CASES,
                         ids=[f"{c}-{n}" for c, n, _ in CASES])
def test_command_loads_only_its_modules(cmd, name, expected):
    path = str(DOCS / f"{name}.json")
    assert loaded_modules(cmd, path, "--json") == expected


# one arity-3 product and nothing else; no shipped fixture has higher products
HIGHER = {
    "n": 4,
    "dim_x": 0,
    "ext": [
        {"src": 1, "dst": 2, "deg": 0, "dim": 1},
        {"src": 1, "dst": 4, "deg": -1, "dim": 1},
        {"src": 2, "dst": 3, "deg": 0, "dim": 1},
        {"src": 3, "dst": 4, "deg": 0, "dim": 1},
    ],
    "serre_ext": [
        {"twist_src": 1, "from": 1, "deg": 0, "dim": 1},
        {"twist_src": 1, "from": 4, "deg": 1, "dim": 1},
    ],
    "higher_products": [
        {"kind": "AA", "arity": 3, "chain": [1, 2, 3, 4], "degs": [0, 0, 0],
         "entries": [[0, 0, 0, 0, "1"]]},
    ],
}


def test_validate_loads_no_engine_module(tmp_path):
    # higher products are checked as relations of their tables, no complex
    path = tmp_path / "higher.json"
    path.write_text(json.dumps(HIGHER), encoding="utf-8")
    assert loaded_modules("validate", str(path), "--json") == PARSE


def test_a_non_integral_coefficient_loads_fractions(tmp_path):
    doc = json.loads(json.dumps(HIGHER))
    doc["higher_products"][0]["entries"] = [[0, 0, 0, 0, "1/2"]]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert loaded_modules("validate", str(path), "--json") == PARSE | {"+fractions"}


def test_validate_reports_beyond_the_chain_cap(tmp_path, capsys):
    # n = 26 is past the chain walkers' cap, which validate never meets
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(dict(HIGHER, n=26)), encoding="utf-8")
    assert main(["validate", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert [c["name"] for c in report["checks"]][3] == "a_infinity"
    assert loaded_modules("validate", str(path), "--json") == PARSE


def test_fixture_list_loads_only_the_cli():
    # the names live in the package itself: no builder is compiled
    assert loaded_modules("fixture", "--list") == {"cli"}
    assert loaded_modules("fixture", "--list", "--json") == {"cli"}


@pytest.mark.parametrize("name", ["beilinson_p2", "beilinson_p3", QUALITATIVE])
def test_fixture_document_loads_no_engine(name):
    # the Beilinson builder emits ints, so not even fractions is loaded
    expected = {"cli", "fixtures", "model", "products", "exactlin"}
    assert loaded_modules("fixture", name) == expected


def test_fixture_name_as_input_loads_fixtures():
    assert loaded_modules("validate", "point") == PARSE | {"fixtures"}


def test_import_excol_loads_no_submodule():
    code = "import sys, excol; print(sorted(m for m in sys.modules if 'excol' in m))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ).stdout
    assert out.split() == ["['excol']"]


def test_pseudoheight_attribute_is_the_submodule():
    import excol
    from excol import pseudoheight as mod

    assert mod.qualitative_ph_bounds is excol.qualitative_ph_bounds
    assert excol.pseudoheight is mod


def test_readme_library_imports_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^from (excol[\w.]*) import (.+)$", readme, re.M)
    assert lines
    for module, names in lines:
        for name in names.split(","):
            assert hasattr(importlib.import_module(module), name.strip()), name
