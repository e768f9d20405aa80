"""Each command imports only the modules that its own path and its document reach.

Every case runs one command line in a fresh interpreter and reads back the
`excol.*` entries of `sys.modules`, so a stray top-level import anywhere in
the package shows up as an extra module.  The documents are read from
disk, so that `fixtures` is loaded only by the `fixture` command: the
shipped fixture files, and `data/sparse15.json`, an exact document without
products, so that no product code is compiled for it.  The probe also
reports `dataclasses`, `inspect`, `fractions`, `argparse`, `gettext` and
`locale`; no command loads any of them but `fractions`, so every expected
set below, which never names them, pins their absence as well.  Eleven
jobs have a budget of lines of code (blank and comment-only lines are not
counted, docstrings are), since with bytecode writing off each job
compiles every line it loads: `height` and `fullness` on an exact document
with products load the whole engine, so a faster engine cannot pay for
itself in compile time unseen, `pseudoheight` loads only the chain walk's
bounds and `e1` the first page besides, on `beilinson_p1` and on
`sparse15` (the shapes of the benchmark's chain documents), `validate` and
`pseudoheight` on a qualitative surface load the three-valued reader as
well, and `fixture beilinson_p3` prints its stored document.
Each run is made once and read by every pin that names it.  The README's
load table and library imports, and the `excol.pseudoheight` submodule,
are checked here too.
"""

import functools
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
# standard modules below are loaded) and their lines of code as the last lines:
# blank and comment-only lines are not counted, docstrings are
PROBE = """
import sys
from excol.cli import main
main(sys.argv[1:])
names = sorted(m for m in sys.modules if m.startswith("excol."))
loaded = [m[len("excol."):] for m in names]
watched = ("dataclasses", "inspect", "fractions", "argparse", "gettext", "locale")
loaded += ["+" + m for m in watched if m in sys.modules]
lines = 0
for m in ["excol", *names]:
    with open(sys.modules[m].__file__, encoding="utf-8") as fh:
        lines += sum(1 for ln in fh if ln.strip() and not ln.lstrip().startswith("#"))
print()
print(" ".join(loaded))
print(lines)
"""


@functools.cache  # the pins below read the runs of the cases again
def probe(*argv):
    """(excol submodules, their lines of code) of a fresh `excol argv` run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    ).stdout.splitlines()
    return frozenset(out[-2].split()), int(out[-1])


def loaded_modules(*argv):
    """The excol submodules a fresh interpreter loads to run `excol argv`."""
    return probe(*argv)[0]


PARSE = {"cli", "model", "fields"}
PRODUCTS = {"products"}
# the relations of the products: checked by validate and by the assembly
RELATIONS = PRODUCTS | {"relations"}
# the statuses of a `qualitative` section, and the flags' deductions
QUAL = {"qualitative"}
# the chain walks' se-intervals from those statuses
LINKS = {"intervals"}
# the `fullness` certificate, checked at parse (EXACT has one)
CERT = {"certificate"}
VALIDATE = PARSE | {"validation"}
# the pseudoheight needs the chain walk's bounds and nothing more
CHAINS = PARSE | {"pseudoheight", "views"}
# the first page lists the live chains
E1 = CHAINS | {"firstpage"}
ANALYSIS = CHAINS | {"heights", "analysis_views"}
ENGINE = ANALYSIS | {"nhh", "exactlin", "firstpage"}
EXACT, QUALITATIVE, SPARSE, FLAGGED = "beilinson_p1", "burniat", "sparse15", "godeaux"
PATHS = {
    EXACT: DOCS / f"{EXACT}.json",
    QUALITATIVE: DOCS / f"{QUALITATIVE}.json",
    SPARSE: ROOT / "tests" / "data" / f"{SPARSE}.json",
    FLAGGED: DOCS / f"{FLAGGED}.json",
}
# fractions loads only for a value that is not an integer, primefield only
# for an F<p> field, products only for a document with products (EXACT and
# FLAGGED have them), certificate only for one with a `fullness` section
# (EXACT), qualitative only for a document with a `qualitative` section
# (QUALITATIVE), and for validate on one with flags too (FLAGGED: exact,
# with surface flags)

CASES = [
    ("validate", EXACT, VALIDATE | RELATIONS | CERT),
    ("validate", QUALITATIVE, VALIDATE | QUAL),
    ("validate", SPARSE, VALIDATE),
    ("validate", FLAGGED, VALIDATE | RELATIONS | QUAL),
    ("pseudoheight", EXACT, CHAINS | PRODUCTS | CERT),
    ("pseudoheight", QUALITATIVE, CHAINS | QUAL | LINKS),
    ("pseudoheight", SPARSE, CHAINS),
    ("pseudoheight", FLAGGED, CHAINS | PRODUCTS),
    ("e1", EXACT, E1 | PRODUCTS | CERT),
    # the first page refuses statuses before it reads a link
    ("e1", QUALITATIVE, E1 | QUAL),
    ("e1", SPARSE, E1),
    ("ss", EXACT, ENGINE | RELATIONS | CERT),
    ("ss", QUALITATIVE, ENGINE | QUAL),
    ("ss", SPARSE, ENGINE),
    ("height", EXACT, ENGINE | RELATIONS | CERT),
    ("height", QUALITATIVE, ANALYSIS | QUAL | LINKS),
    ("height", SPARSE, ENGINE),
    ("height", FLAGGED, ENGINE | RELATIONS),
    ("report", EXACT, ENGINE | RELATIONS | CERT),
    ("report", QUALITATIVE, ANALYSIS | QUAL | LINKS),
    ("report", SPARSE, ENGINE),
    ("fullness", EXACT, ENGINE | RELATIONS | CERT | {"fullness"}),
    # a qualitative verdict needs no complex: neither nhh nor exactlin
    ("fullness", QUALITATIVE, ANALYSIS | QUAL | LINKS | {"fullness"}),
    ("fullness", SPARSE, ENGINE | {"fullness"}),
]
ENGINE_CASES = [(cmd, name) for cmd, name, _ in CASES if cmd != "validate"]


@pytest.mark.parametrize("cmd, name, expected", CASES,
                         ids=[f"{c}-{n}" for c, n, _ in CASES])
def test_command_loads_only_its_modules(cmd, name, expected):
    assert loaded_modules(cmd, str(PATHS[name]), "--json") == expected


@pytest.mark.parametrize("argv, budget", [
    (["validate", str(PATHS[SPARSE]), "--json"], 667),
    (["fixture", "--list"], 229),
    (["fixture", "beilinson_p3"], 252),
    (["height", str(PATHS[EXACT]), "--json"], 1921),
    (["fullness", str(PATHS[EXACT]), "--json"], 2018),
    (["e1", str(PATHS[EXACT]), "--json"], 1077),
    (["pseudoheight", str(PATHS[EXACT]), "--json"], 993),
    (["validate", str(PATHS[QUALITATIVE]), "--json"], 786),
    (["pseudoheight", str(PATHS[QUALITATIVE]), "--json"], 898),
    (["pseudoheight", str(PATHS[SPARSE]), "--json"], 751),
    (["e1", str(PATHS[SPARSE]), "--json"], 835),
], ids=["validate-sparse15", "fixture-list", "fixture-p3", "height-p1", "fullness-p1",
        "e1-p1", "pseudoheight-p1", "validate-burniat", "pseudoheight-burniat",
        "pseudoheight-sparse15", "e1-sparse15"])
def test_job_source_line_budget(argv, budget):
    # every line of code a job loads is compiled again when no bytecode is written
    assert probe(*argv)[1] <= budget


@pytest.mark.parametrize("argv", [
    ["e1", str(PATHS[EXACT]), "--json"],
    ["pseudoheight", str(PATHS[EXACT]), "--json"],
    ["fixture", "beilinson_p2"],
    ["fixture", "beilinson_p3"],
], ids=["e1", "pseudoheight", "fixture-p2", "fixture-p3"])
def test_beilinson_chain_jobs_load_no_checks(argv):
    # the chain walk reads exact dims alone and `fixture` parses nothing
    assert not probe(*argv)[0] & {"relations", "validation", "qualitative"}


@pytest.mark.parametrize("cmd, name", ENGINE_CASES,
                         ids=[f"{c}-{n}" for c, n in ENGINE_CASES])
def test_engine_commands_load_no_validation(cmd, name):
    assert "validation" not in loaded_modules(cmd, str(PATHS[name]), "--json")


@pytest.mark.parametrize("cmd, name", [(cmd, name) for cmd, name, _ in CASES],
                         ids=[f"{c}-{n}" for c, n, _ in CASES])
def test_a_document_over_q_loads_no_prime_field(cmd, name):
    assert "primefield" not in loaded_modules(cmd, str(PATHS[name]), "--json")


def test_a_prime_field_loads_the_prime_field():
    argv = ("height", str(PATHS[SPARSE]), "--json", "--field", "F1009")
    assert loaded_modules(*argv) == ENGINE | {"primefield"}


@pytest.mark.parametrize("name", [EXACT, QUALITATIVE, SPARSE, FLAGGED])
def test_each_chain_command_loads_only_its_own_answers(name):
    # the bounds list no chains, and the first page reads no Analysis
    assert "firstpage" not in loaded_modules("pseudoheight", str(PATHS[name]), "--json")
    e1 = loaded_modules("e1", str(PATHS[name]), "--json")
    assert not e1 & {"analysis_views", "heights"}


@pytest.mark.parametrize("cmd, name", [
    (cmd, name) for cmd, name, _ in CASES
    if name in (EXACT, SPARSE) or (name == FLAGGED and cmd != "validate")
], ids=lambda x: x)
def test_a_document_without_statuses_loads_no_qualitative(cmd, name):
    # FLAGGED has flags but no `qualitative` section: only validate checks
    # the flags' deductions against its dims
    assert "qualitative" not in loaded_modules(cmd, str(PATHS[name]), "--json")


# one job for each row of the README's load table: the exact rows on a
# document without products or statuses, the qualitative ones on burniat
README_JOBS = {
    "`fixture --list`": ["fixture", "--list"],
    "`fixture <name>`": ["fixture", "beilinson_p3"],
    "`validate`": ["validate", str(PATHS[SPARSE]), "--json"],
    "`pseudoheight`": ["pseudoheight", str(PATHS[SPARSE]), "--json"],
    "`e1`": ["e1", str(PATHS[SPARSE]), "--json"],
    "`ss`; exact `height`, `report`": ["ss", str(PATHS[SPARSE]), "--json"],
    "exact `height --field F<p>`": ["height", str(PATHS[SPARSE]), "--json", "--field", "F1009"],
    "exact `fullness`": ["fullness", str(PATHS[SPARSE]), "--json"],
    "qualitative `height`, `report`": ["height", str(PATHS[QUALITATIVE]), "--json"],
    "qualitative `fullness`": ["fullness", str(PATHS[QUALITATIVE]), "--json"],
}


def readme_load_table():
    """{job: modules} of the README's load table, each `those of` row resolved."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = readme[readme.index("| job "):].splitlines()[2:]
    rows = {}
    for line in lines[:[ln.startswith("|") for ln in lines].index(False)]:
        job, cell = (c.strip() for c in line.strip("|").split("|"))
        rows[job] = set()
        for part in cell.split(", "):
            if part.startswith("those of "):  # an earlier row, named by its start
                [ref] = [j for j in rows if j.startswith(part[len("those of "):])]
                rows[job] |= rows[ref]
            else:
                rows[job].add(part.strip("`"))
    return rows


def test_readme_load_table_is_what_the_jobs_load():
    table = readme_load_table()
    assert table.keys() == README_JOBS.keys()
    for job, argv in README_JOBS.items():
        assert loaded_modules(*argv) == table[job], job


def test_exact_lin_error_exits_one_without_exactlin():
    # the field errors live in `fields`, which every document job loads
    code = """
import sys
from excol import cli
from excol.fields import ExactLinError

def fail(args):
    raise ExactLinError("x")

cli.COMMANDS["validate"] = fail
print(cli.main(["validate", "point"]), "excol.exactlin" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ).stdout
    assert out.split() == ["1", "False"]


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
    assert loaded_modules("validate", str(path), "--json") == VALIDATE | RELATIONS


def test_a_non_integral_coefficient_loads_fractions(tmp_path):
    doc = json.loads(json.dumps(HIGHER))
    doc["higher_products"][0]["entries"] = [[0, 0, 0, 0, "1/2"]]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    expected = VALIDATE | RELATIONS | {"+fractions"}
    assert loaded_modules("validate", str(path), "--json") == expected


def test_validate_reports_beyond_the_chain_cap(tmp_path, capsys):
    # n = 26 is past the chain walkers' cap, which validate never meets
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(dict(HIGHER, n=26)), encoding="utf-8")
    assert main(["validate", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"]
    assert [c["name"] for c in report["checks"]][3] == "a_infinity"
    assert loaded_modules("validate", str(path), "--json") == VALIDATE | RELATIONS


def test_fixture_list_loads_only_the_cli():
    # the names live in the package itself: no builder is compiled
    assert loaded_modules("fixture", "--list") == {"cli"}
    assert loaded_modules("fixture", "--list", "--json") == {"cli"}


@pytest.mark.parametrize("argv, loaded", [
    (["fixture", "beilinson_p3"], False),
    (["fixture", "--list", "--json"], True),
], ids=["fixture-p3", "fixture-list-json"])
def test_only_a_json_answer_loads_the_json_codec(argv, loaded):
    # `fixture <name>` prints stored text; the codec loads where JSON is written
    code = f"""
import sys
from excol.cli import main
main({argv!r})
print("json" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ).stdout
    assert out.split()[-1] == str(loaded)


@pytest.mark.parametrize("name", ["beilinson_p2", "beilinson_p3", QUALITATIVE, "point"])
def test_fixture_document_loads_no_engine(name):
    # every document is printed as stored: no builder, no parser
    assert loaded_modules("fixture", name) == {"cli", "fixtures"}


def test_fixture_name_as_input_loads_no_builder():
    # the stored document is parsed; the Beilinson builder is not compiled
    assert "documents" not in loaded_modules("height", "beilinson_p3", "--json")


def test_window_rule_loads_no_parser():
    code = """
import sys
from excol import products
key = products.window_key((("A", 1, 2, 0), ("A", 2, 3, 0)))
print(key[0], "excol.model" in sys.modules, "excol.fields" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ).stdout
    assert out.split() == ["AA", "False", "False"]


def test_fixture_name_as_input_loads_fixtures():
    # `point` has a `fullness` section, whose certificate the parse checks
    assert loaded_modules("validate", "point") == VALIDATE | CERT | {"fixtures"}


def test_import_excol_loads_no_submodule():
    code = "import sys, excol; print(sorted(m for m in sys.modules if 'excol' in m))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ).stdout
    assert out.split() == ["['excol']"]


def test_first_page_lives_beside_the_chain_walk():
    # the tracer wraps these on `nhh`; they must be the very same objects
    from excol import firstpage, nhh

    for name in ("ChainTerm", "enumerate_terms", "build_e1"):
        assert getattr(nhh, name) is getattr(firstpage, name), name


def test_library_first_page_loads_no_complex_code():
    code = """
import sys, excol
excol.build_e1
print(*sorted(m for m in sys.modules if m.startswith("excol.")))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    ).stdout
    assert out.split() == ["excol.fields", "excol.firstpage", "excol.model",
                           "excol.pseudoheight"]


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
