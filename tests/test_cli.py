import json
import os

import pytest

from excol import FIXTURE_NAMES, cli, documents, exactlin, fixtures, model, nhh
from excol.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_height_json_payload(capsys):
    code, out, _ = run(capsys, "height", "beilinson_p1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ph"] == 0
    assert payload["he_lo"] == 0 and payload["he_hi"] == 0
    assert payload["nhh"] == {"0": 1, "1": 3}


def test_json_output_is_byte_identical(capsys):
    first = run(capsys, "report", "beauville_I0", "--json", "--hoh", "1,0,0,6,9")
    second = run(capsys, "report", "beauville_I0", "--json", "--hoh", "1,0,0,6,9")
    assert first == second
    assert first[0] == 0


def test_validate_all_fixtures(capsys):
    for name in FIXTURE_NAMES:
        code, out, _ = run(capsys, "validate", name)
        assert code == 0, (name, out)


def test_fixture_list(capsys):
    code, out, _ = run(capsys, "fixture", "--list")
    assert code == 0
    names = out.split()
    assert names == list(FIXTURE_NAMES)
    assert {"burniat", "beauville_I0", "beauville_I1", "point"} <= set(names)


def test_fixture_emission_parses(capsys):
    code, out, _ = run(capsys, "fixture", "beilinson_p1")
    assert code == 0
    spec = model.parse(out)
    assert spec.n == 2


def test_unknown_fixture_is_format_error(capsys):
    code, _, err = run(capsys, "fixture", "no_such_thing")
    assert code == 2 and "unknown fixture" in err


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "height", "/nonexistent/path.json")
    assert code == 2 and "no such input" in err


def test_a_missing_path_named_like_a_fixture_is_no_such_input(capsys, monkeypatch, tmp_path):
    # only a bare name or a leading `fixtures/` falls back to the built-in fixture
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EXCOL_FIXTURES", raising=False)
    code, out, err = run(capsys, "pseudoheight", "/no/such/dir/burniat.json", "--json")
    assert (code, out) == (2, "") and "no such input" in err
    assert run(capsys, "pseudoheight", "elsewhere/burniat", "--json")[0] == 2


@pytest.mark.parametrize("name", ["burniat", "burniat.json", "fixtures/burniat",
                                  "fixtures/burniat.json"])
def test_a_fixture_name_resolves_from_any_directory(capsys, monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EXCOL_FIXTURES", raising=False)
    stored = os.path.join(os.path.dirname(fixtures.__file__), "data", "burniat.json")
    expected = run(capsys, "pseudoheight", stored, "--json")
    assert expected[0] == 0
    assert run(capsys, "pseudoheight", name, "--json") == expected


def test_malformed_document_is_format_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{]", encoding="utf-8")
    code, _, _ = run(capsys, "height", str(path))
    assert code == 2


def _long_coefficient():
    doc = json.loads(fixtures.fixture_document("beilinson_p1"))
    doc["products"][0]["entries"][0][-1] = "1" * 5000
    return json.dumps(doc).encode()


@pytest.mark.parametrize("content", [
    pytest.param(b'{"n": 1, "dim_x": 0, "metadata": {"name": "\xff"}}', id="invalid-utf8"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-100000-deep"),
    pytest.param(b'{"n": ' + b"1" * 5000 + b', "dim_x": 0}', id="5000-digit-literal"),
    pytest.param(_long_coefficient(), id="5000-digit-coefficient"),
])
def test_unreadable_document_is_format_error(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "bad collection document" in err


def test_backwards_ext_is_format_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 2, "dim_x": 0,
        "ext": [{"src": 2, "dst": 1, "deg": 0, "dim": 1}],
    }), encoding="utf-8")
    code, _, err = run(capsys, "height", str(path))
    assert code == 2 and "bad collection document" in err


@pytest.mark.parametrize("field, value", [
    ("field", 5),
    ("field", "F4"),
    ("flags", "x"),
    ("qualitative", {"degree_window": ["a", 1]}),
    ("objects", [1]),
    pytest.param("field", "F" + "1" * 5000, id="field-5000-digits"),
    pytest.param("objects", [{"lable": "E1"}], id="objects-key-typo"),
    pytest.param("objects", [{"label": 5}], id="objects-label-5"),
])
def test_ill_typed_field_is_format_error(tmp_path, capsys, field, value):
    doc = {"n": 1, "dim_x": 0, field: value}
    path = tmp_path / "ill_typed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "height", str(path))
    assert code == 2 and "bad collection document" in err


def test_boolean_integer_is_format_error(tmp_path, capsys):
    path = tmp_path / "booleans.json"
    path.write_text(json.dumps({
        "n": True, "dim_x": False,
        "serre_ext": [{"twist_src": 1, "from": True, "deg": False, "dim": True}],
    }), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "bad collection document" in err


def test_ill_typed_flag_is_format_error(tmp_path, capsys):
    path = tmp_path / "flags.json"
    path.write_text(json.dumps({
        "n": 1, "dim_x": 0,
        "flags": {"is_surface": "no", "k_squared": True, "line_bundles": 0},
    }), encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "bad collection document" in err


@pytest.mark.parametrize("error, code", [
    (model.SpecError("x"), 1),
    (nhh.DifferentialError("x"), 1),
    (exactlin.ExactLinError("x"), 1),
    (exactlin.ContainmentError("x"), 1),
    (ValueError("x"), None),
    (KeyError("x"), None),
])
def test_only_engine_errors_exit_one(monkeypatch, capsys, error, code):
    def fail(args):
        raise error

    monkeypatch.setitem(cli.COMMANDS, "validate", fail)
    if code is None:
        with pytest.raises(type(error)):
            main(["validate", "point"])
    else:
        assert run(capsys, "validate", "point")[0] == code


def test_engine_precondition_is_exit_one(capsys):
    # a qualitative-only table has no first page
    code, _, err = run(capsys, "e1", "burniat")
    assert code == 1 and "exact" in err


def test_bad_max_page(capsys):
    code, _, _ = run(capsys, "ss", "point", "--max-page", "0")
    assert code == 2


def test_bad_hoh_list(capsys):
    code, _, _ = run(capsys, "report", "point", "--hoh", "1,x")
    assert code == 2


def test_validation_failure_exit_code(tmp_path, capsys):
    doc = json.loads(fixtures.fixture_document("beilinson_p1"))
    # a status contradicting the exact dims is a validation failure
    doc["qualitative"] = {"statuses": [
        {"src": 1, "dst": 2, "deg": 0, "status": "ZERO"}]}
    path = tmp_path / "conflicted.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "FAIL" in out


def _add_status(src, dst, deg, status):
    def edit(doc):
        row = {"src": src, "dst": dst, "deg": deg, "status": status}
        doc["qualitative"]["statuses"].append(row)
    return edit


def _set_window(lo, hi):
    def edit(doc):
        doc["qualitative"]["degree_window"] = [lo, hi]
    return edit


@pytest.mark.parametrize("edit, message", [
    # against the degree criterion's ZERO, and against the H^2 cap's NONZERO
    (_add_status(1, 2, 0, "NONZERO"), "qualitative conflict at (1, 2, 0): NONZERO vs ZERO"),
    (_add_status(1, 7, 2, "ZERO"), "qualitative conflict at (1, 7, 2): ZERO vs NONZERO"),
    # the H^2 cap's NONZERO in degree 2 outside the window
    (_set_window(0, 1), "NONZERO status at (1, 7, 2) outside degree window"),
], ids=["degree-criterion", "h2-cap", "window"])
def test_validate_refuses_what_the_engine_refuses(tmp_path, capsys, edit, message):
    doc = json.loads(fixtures.fixture_document("burniat"))
    edit(doc)
    path = tmp_path / "burniat.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert f"FAIL qualitative_consistency: {message}\n" in out
    for cmd in ("pseudoheight", "height", "fullness"):
        assert run(capsys, cmd, str(path)) == (1, "", f"error: {message}\n")


def _exact_hom(doc):
    doc.setdefault("ext", []).append({"src": 1, "dst": 2, "deg": 0, "dim": 1})


def _exact_hom_stated_nonzero(doc):
    _exact_hom(doc)
    _add_status(1, 2, 0, "NONZERO")(doc)


def _window_without_degree_0(doc):
    doc["qualitative"] = {"degree_window": [1, 2], "statuses": []}


@pytest.mark.parametrize("name, edit, message", [
    # the stated NONZERO clashes with the degree criterion's ZERO
    ("burniat", _exact_hom_stated_nonzero,
     "qualitative conflict at (1, 2, 0): NONZERO vs ZERO"),
    # the degree criterion's ZERO, with no statuses at all, against a dim
    ("godeaux", _exact_hom, "status ZERO at (1, 2, 0) but exact dim 1"),
    # the window's ZERO in degree 0 against the first of four dims
    ("beilinson_p1", _window_without_degree_0, "status ZERO at (1, 2, 0) but exact dim 2"),
], ids=["burniat-stated", "godeaux-deduced", "beilinson_p1-window"])
def test_validate_checks_every_status_against_exact_dims(
    tmp_path, capsys, name, edit, message
):
    doc = json.loads(fixtures.fixture_document(name))
    edit(doc)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path), "--json")
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["qualitative_consistency"]
    assert failed[0]["detail"].split("; ")[0] == message
    # the engine reads the dims alone
    assert run(capsys, "height", str(path))[0] == 0


def test_env_fixture_directory(tmp_path, capsys, monkeypatch):
    target = tmp_path / "corpus"
    target.mkdir()
    for name in FIXTURE_NAMES:
        (target / f"{name}.json").write_text(
            documents.serialize(fixtures.fixture_spec(name)), encoding="utf-8")
    monkeypatch.setenv("EXCOL_FIXTURES", str(target))
    code, out, _ = run(capsys, "height", "fixtures/beilinson_p1", "--json")
    assert code == 0
    assert json.loads(out)["nhh"] == {"0": 1, "1": 3}


DATA = os.path.join(os.path.dirname(fixtures.__file__), "data")


def test_shipped_fixture_files_match_registry():
    # the stored documents are the registry, each the shipped file byte for byte
    assert sorted(os.listdir(DATA)) == sorted(f"{name}.json" for name in FIXTURE_NAMES)
    root = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    for name in FIXTURE_NAMES:
        path = os.path.join(root, f"{name}.json")
        assert os.path.isfile(path), f"missing shipped fixture {path}"
        with open(os.path.join(DATA, f"{name}.json"), "rb") as stored, \
                open(path, "rb") as shipped:
            assert stored.read() == shipped.read(), name


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stored_beilinson_fixtures_are_the_builder_output(n):
    stored = fixtures.fixture_document(f"beilinson_p{n - 1}")
    assert stored == documents.serialize(documents.beilinson_fixture(n))


@pytest.mark.parametrize("name", ["../fixtures/point", "data", "point.json", ""])
def test_fixture_refuses_other_names_before_opening_a_file(capsys, monkeypatch, name):
    def no_open(*args, **kwargs):
        raise AssertionError(f"opened {args}")

    monkeypatch.setattr(fixtures, "open", no_open, raising=False)
    code, out, err = run(capsys, "fixture", name)
    assert (code, out) == (2, "")
    assert err == f"error: unknown fixture {name!r}\n"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_documents_are_built_canonical(capsys, name):
    # `fixture <name>` prints the stored document without a parse round trip
    text = fixtures.fixture_document(name)
    assert documents.serialize(model.parse(text)) == text
    assert run(capsys, "fixture", name)[1] == text


def test_ss_text_grid(capsys):
    code, out, _ = run(capsys, "ss", "beilinson_p1")
    assert code == 0
    assert "page 1" in out and "stabilizes at page 2" in out


ARITY3 = os.path.join(os.path.dirname(__file__), "data", "arity3.json")


def test_ss_max_page_below_the_width(capsys):
    # --max-page cuts the text only: the JSON keeps every page through the
    # width + 1 = 4, past stable page 3
    code, out, _ = run(capsys, "ss", ARITY3, "--max-page", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "infinity": [[-1, 0, 2], [0, 0, 1]],
        "pages": {
            "1": [[-3, 1, 1], [-1, 0, 3], [0, 0, 1]],
            "2": [[-3, 1, 1], [-1, 0, 3], [0, 0, 1]],
            "3": [[-1, 0, 2], [0, 0, 1]],
            "4": [[-1, 0, 2], [0, 0, 1]],
        },
        "stable_page": 3,
    }
    code, out, _ = run(capsys, "ss", ARITY3, "--max-page", "2")
    assert code == 0
    assert out == (
        "page 1 (rows q, columns -p):\n"
        "        -3  -1   0\n"
        "  q=1     1   .   .\n"
        "  q=0     .   3   1\n"
        "page 2 (rows q, columns -p):\n"
        "        -3  -1   0\n"
        "  q=1     1   .   .\n"
        "  q=0     .   3   1\n"
        "stabilizes at page 3\n"
        "limit page (rows q, columns -p):\n"
        "        -1   0\n"
        "  q=0     2   1\n"
    )


def test_field_override(capsys):
    code, out, _ = run(capsys, "height", "beilinson_p2", "--field", "F1009", "--json")
    assert code == 0
    assert json.loads(out)["nhh"] == {"0": 1, "1": 8, "2": 10}


def test_coefficient_the_field_cannot_hold_is_format_error(tmp_path, capsys):
    doc = json.loads(documents.serialize(fixtures.fixture_spec("beilinson_p2")))
    doc["products"][0]["entries"][0][-1] = "1/3"
    path = tmp_path / "third.json"
    path.write_text(json.dumps(dict(doc, field="F3")), encoding="utf-8")
    for cmd in ("validate", "height"):
        code, _, err = run(capsys, cmd, str(path))
        assert code == 2 and "denominator of 1/3 vanishes mod 3" in err, cmd
    path.write_text(json.dumps(doc), encoding="utf-8")  # the same over Q
    code, _, err = run(capsys, "height", str(path), "--field", "F3")
    assert code == 2 and "denominator of 1/3 vanishes mod 3" in err


def test_fullness_commands(capsys):
    code, out, _ = run(capsys, "fullness", "beilinson_p1")
    assert code == 0 and out.startswith("FULL")
    code, out, _ = run(capsys, "fullness", "burniat")
    assert code == 0 and out.startswith("NOT_FULL")
    code, out, _ = run(capsys, "fullness", "beauville_I1")
    assert code == 0 and out.startswith("NOT_FULL")


def test_pseudoheight_anticanonical_flag(capsys):
    code, out, _ = run(capsys, "pseudoheight", "godeaux", "--anticanonical")
    assert code == 0
    assert out.splitlines()[0] == "anticanonical pseudoheight: 1"
    assert "(2, 3)" in out


def test_all_unknown_qualitative_document(tmp_path, capsys):
    # nothing known: unbounded pseudoheight interval, no crash anywhere
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps({
        "n": 2, "dim_x": 1,
        "qualitative": {"statuses": []},
    }), encoding="utf-8")
    code, out, _ = run(capsys, "height", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ph_ac_lower"] == "-inf"
    assert payload["he_hi"] == "inf"
    code, out, _ = run(capsys, "report", str(path))
    assert code == 0 and "[-inf, inf]" in out


def test_degenerate_spec_warns_about_vanishing(tmp_path, capsys):
    path = tmp_path / "no_twists.json"
    path.write_text(json.dumps({
        "n": 2, "dim_x": 0,
        "ext": [{"src": 1, "dst": 2, "deg": 0, "dim": 1}],
    }), encoding="utf-8")
    code, out, _ = run(capsys, "height", str(path))
    assert code == 0
    assert "warning" in out and "fullness" in out
    code, out, _ = run(capsys, "fullness", str(path))
    assert code == 0 and out.startswith("INCONCLUSIVE")


def test_negative_hoh_is_format_error(capsys):
    code, out, err = run(capsys, "report", "beauville_I0", "--hoh=-5,0,0,6,9")
    assert code == 2 and "bad --hoh list" in err and not out


def _beilinson_p2(field, factor):
    """beilinson_p2 over `field`, its first AA coefficient multiplied by factor."""
    doc = json.loads(documents.serialize(fixtures.fixture_spec("beilinson_p2")))
    entry = doc["products"][0]["entries"][0]
    assert doc["products"][0]["kind"] == "AA" and entry[-1] == "1"
    entry[-1] = str(factor)
    return dict(doc, field=field)


def test_validate_checks_relations_over_the_document_field(tmp_path, capsys):
    # tripled, the coefficient is still 1 mod 2: the relations hold over F2
    path = tmp_path / "tripled.json"
    path.write_text(json.dumps(_beilinson_p2("F2", 3)), encoding="utf-8")
    assert run(capsys, "validate", str(path))[0] == 0
    untouched = tmp_path / "untouched.json"
    untouched.write_text(json.dumps(_beilinson_p2("F2", 1)), encoding="utf-8")
    code, out, _ = run(capsys, "height", str(path), "--json")
    assert code == 0 and out == run(capsys, "height", str(untouched), "--json")[1]
    # over Q they fail, and --field reaches the relation check
    path.write_text(json.dumps(_beilinson_p2("Q", 3)), encoding="utf-8")
    assert run(capsys, "validate", str(path))[0] == 1
    assert run(capsys, "validate", str(path), "--field", "F2")[0] == 0
    # doubled, the coefficient vanishes mod 2 and associativity fails
    path.write_text(json.dumps(_beilinson_p2("F2", 2)), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1 and "FAIL associativity" in out


def test_a_window_failing_on_two_outputs_is_named_once(tmp_path, capsys):
    # doubled, the coefficient vanishes mod 2: two relations of one window fail
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(_beilinson_p2("F2", 2)), encoding="utf-8")
    window = "chain (1, 2, 3) degrees (0, 0, 2)"
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1 and f"FAIL associativity: fails on {window}\n" in out
    code, _, err = run(capsys, "height", str(path))
    assert code == 1 and err.endswith(f"fails on {window}\n")


@pytest.mark.parametrize("cmd, flag, value", [
    ("ss", "--max-page", "1"),
    ("report", "--hoh", "1,0,0,6,9"),
    ("height", "--field", "F4"),
])
def test_valued_flag_in_both_forms(capsys, cmd, flag, value):
    spaced = run(capsys, cmd, "beilinson_p2", flag, value)
    joined = run(capsys, cmd, "beilinson_p2", f"{flag}={value}")
    assert spaced == joined
    assert spaced != run(capsys, cmd, "beilinson_p2")


def test_flag_value_is_taken_as_given(capsys):
    # a value starting with "-" is the flag's value, not an option
    for argv in (["--hoh", "-5,0"], ["--hoh=-5,0"]):
        code, _, err = run(capsys, "report", "point", *argv)
        assert code == 2 and "bad --hoh list '-5,0'" in err
    code, _, err = run(capsys, "height", "point", "--field", "--json")
    assert code == 2 and "bad field '--json'" in err


@pytest.mark.parametrize("argv", [
    ["--json", "--field", "F1009", "height", "beilinson_p2"],
    ["height", "--json", "beilinson_p2", "--field=F1009"],
    ["height", "--field", "F1009", "beilinson_p2", "--json"],
], ids=["before", "between", "after"])
def test_options_anywhere(capsys, argv):
    expected = run(capsys, "height", "beilinson_p2", "--json", "--field", "F1009")
    assert run(capsys, *argv) == expected and expected[0] == 0


def test_fixture_list_with_a_name(capsys):
    code, out, _ = run(capsys, "fixture", "--list", "point")
    assert code == 0 and out.split() == list(FIXTURE_NAMES)


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_zero(capsys, flag):
    code, out, err = run(capsys, "height", flag, "--bogus")
    assert code == 0 and out == cli.USAGE + "\n" and not err
    assert all(name in cli.USAGE for name in cli.COMMANDS)


USAGE_ERRORS = [
    (["height", "point", "--bogus"], "unknown option '--bogus'"),
    (["ss", "point", "--max", "2"], "unknown option '--max'"),
    (["height", "point", "--js"], "unknown option '--js'"),
    (["height", "point", "--json=1"], "unknown option '--json=1'"),
    (["ss", "point", "--max-page"], "--max-page needs a value"),
    (["report", "point", "--hoh"], "--hoh needs a value"),
    (["height", "point", "--field"], "--field needs a value"),
    (["ss", "point", "--max-page", "two"], "--max-page needs an integer, not 'two'"),
    (["ss", "point", "--max-page=2.5"], "--max-page needs an integer, not '2.5'"),
    (["ss", "point", "--max-page", "0"], "--max-page must be >= 1"),
    (["height", "point", "extra"], "unexpected argument 'extra'"),
    (["height", "--json"], "an input document is required"),
    ([], "a command is required"),
    (["--json"], "a command is required"),
    (["heights", "point"], "unknown command 'heights'"),
    (["report", "point", "--hoh=-5,0"], "bad --hoh list '-5,0'"),
    # an option the command does not read
    (["fixture", "point", "--field", "F3"], "fixture does not read --field"),
    (["height", "point", "--max-page", "2"], "height does not read --max-page"),
    (["ss", "point", "--hoh", "1,0"], "ss does not read --hoh"),
    (["height", "point", "--anticanonical"], "height does not read --anticanonical"),
    (["validate", "point", "--list"], "validate does not read --list"),
    # a fixture by name prints the document as built, never as one JSON line
    (["fixture", "point", "--json"], "fixture does not read --json without --list"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "nothing" for argv, _ in USAGE_ERRORS])
def test_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err == f"{cli.USAGE}\nerror: {message}\n"


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["excol", "fixture", "--list"])
    assert main() == 0
    assert capsys.readouterr().out.split() == list(FIXTURE_NAMES)
