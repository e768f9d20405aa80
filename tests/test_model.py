import inspect
import json
import time
from fractions import Fraction

import pytest

from _three_valued import listed_deductions
from excol import FIXTURE_NAMES, fixtures, model, validation
from excol import products as pr
from excol.heights import Comparison, Height
from excol.model import (
    NONZERO,
    UNKNOWN,
    ZERO,
    Cochain,
    CollectionSpec,
    FullnessData,
    SpecError,
    parse,
    validate,
)
from excol.documents import serialize
from excol.intervals import se_intervals
from excol.nhh import ChainTerm
from excol.pseudoheight import qualitative_ph_bounds
from excol.qualitative import Deductions, QualitativeExtTable


def test_parse_minimal_point_like_document():
    spec = parse({"n": 1, "dim_x": 0, "serre_ext": [
        {"twist_src": 1, "from": 1, "deg": 0, "dim": 1}]})
    assert spec.n == 1
    assert spec.n_space(1, 1) == {0: 1}
    assert spec.a_dims == {}
    assert spec.is_exact


def test_large_prime_field_parses_quickly():
    t0 = time.monotonic()
    spec = parse({"n": 1, "dim_x": 0, "field": "F1000000000000000003"})
    assert spec.field_name == "F1000000000000000003"
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("name", [
    pytest.param("F1000000000000000001", id="composite"),
    pytest.param("F18446744073709551629", id="prime-above-2^64"),
    pytest.param("F" + "1" * 5000, id="more-digits-than-int-accepts"),
    pytest.param("F\u00b2", id="non-ascii-digit"),
])
def test_bad_prime_field_rejected(name):
    with pytest.raises(SpecError):
        parse({"n": 1, "dim_x": 0, "field": name})


BOOLEAN_DOCUMENT = {
    "n": True,
    "dim_x": False,
    "serre_ext": [{"twist_src": 1, "from": True, "deg": False, "dim": True}],
}


def test_booleans_are_not_integers():
    with pytest.raises(SpecError):
        parse(json.dumps(BOOLEAN_DOCUMENT))


@pytest.mark.parametrize("path, value", [
    (("n",), True),
    (("dim_x",), False),
    (("ext", 0, "src"), True),
    (("ext", 0, "deg"), False),
    (("serre_ext", 0, "from"), True),
    (("serre_ext", 0, "dim"), True),
    (("products", 0, "chain", 0), True),
    (("products", 0, "degs", 0), False),
    (("products", 0, "entries", 0, 0), False),
    (("qualitative", "degree_window", 0), False),
    (("qualitative", "statuses", 0, "deg"), True),
    (("objects", 1, "canonical_degree"), False),
])
def test_boolean_in_an_integer_field_rejected(path, value):
    doc = {
        "n": 2, "dim_x": 1,
        "ext": [{"src": 1, "dst": 2, "deg": 0, "dim": 1}],
        "serre_ext": [{"twist_src": 1, "from": 1, "deg": 1, "dim": 1},
                      {"twist_src": 1, "from": 2, "deg": 1, "dim": 1}],
        "products": [{"kind": "AN", "twist_src": 1, "chain": [1, 2],
                      "degs": [0, 1], "entries": [[0, 0, 0, "1"]]}],
        "qualitative": {"degree_window": [0, 2], "statuses": [
            {"src": 1, "dst": 2, "deg": 1, "status": "NONZERO"}]},
        "objects": [{"canonical_degree": 0}, {"canonical_degree": -1}],
    }
    parse(json.dumps(doc))  # the unedited document is well formed
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(SpecError):
        parse(json.dumps(doc))


# the string "no" is truthy, so it used to switch the surface deductions on
ILL_TYPED_FLAGS = {"is_surface": "no", "k_squared": True, "line_bundles": 0}


def test_ill_typed_flags_rejected():
    with pytest.raises(SpecError, match="flag"):
        parse(json.dumps({"n": 1, "dim_x": 0, "flags": ILL_TYPED_FLAGS}))


@pytest.mark.parametrize("flag, value", [
    ("is_surface", "no"),
    ("ample_canonical", 1),
    ("line_bundles", 0),
    ("h2_anticanonical_nonzero", None),
    ("higher_products_complete", "false"),
    ("k_squared", True),
    ("k_squared", "8"),
    ("k_squared", 8.0),
])
def test_ill_typed_flag_rejected(flag, value):
    parse({"n": 1, "dim_x": 0, "flags": {flag: 8 if flag == "k_squared" else False}})
    with pytest.raises(SpecError, match=flag):
        parse({"n": 1, "dim_x": 0, "flags": {flag: value}})


@pytest.mark.parametrize("record", [
    {"label": 5},
    {"label": None},
    {"label": ["E1"]},
    {"lable": "E1"},
    {"label": "E1", "canonical_degree": 0, "rank": 1},
])
def test_ill_typed_object_record_rejected(record):
    with pytest.raises(SpecError):
        parse(json.dumps({"n": 1, "dim_x": 0, "objects": [record]}))


def test_object_records_with_known_keys_parse():
    doc = {"n": 2, "dim_x": 0, "objects": [{}, {"label": "F"}]}
    assert parse(doc).labels == ["E1", "F"]
    doc["objects"] = [{"canonical_degree": 0}, {"label": "F", "canonical_degree": 1}]
    assert parse(doc).canonical_degrees == [0, 1]


AN_KEY = pr.key_an(1, (1, 2), (0, 0))
SPEC_FIELDS = {
    "n": 2,
    "dim_x": 1,
    "field_name": "Q",
    "a_dims": {(1, 2): {0: 1}},
    "n_dims": {(1, 1): {1: 1}},
    "tables": {AN_KEY: {(0, 0): {0: 1}}},
    "qualitative": QualitativeExtTable(2, {(1, 2, 0): NONZERO}, (0, 2)),
    "labels": ["E1", "E2"],
    "canonical_degrees": [0, 1],
    "flags": {"is_surface": True},
    "metadata": {"source": "a"},
    "fullness_data": FullnessData(Cochain([((1,), (1,), {0: 1})])),
}
# one value per field, each different from the one in SPEC_FIELDS
OTHER_VALUES = {
    "n": 3,
    "dim_x": 2,
    "field_name": "F7",
    "a_dims": {(1, 2): {0: 2}},
    "n_dims": {(1, 1): {0: 1}},
    "tables": {AN_KEY: {(0, 0): {0: 2}}},
    "qualitative": QualitativeExtTable(2, {(1, 2, 0): NONZERO}, None),
    "labels": ["E1", "F"],
    "canonical_degrees": None,
    "flags": {"is_surface": False},
    "metadata": {},
    "fullness_data": FullnessData(Cochain([((1,), (1,), {0: 2})])),
}


def test_spec_fields_cover_the_constructor():
    assert set(SPEC_FIELDS) == set(OTHER_VALUES)
    assert set(SPEC_FIELDS) == set(inspect.signature(CollectionSpec).parameters)


@pytest.mark.parametrize("name", list(SPEC_FIELDS))
def test_specs_differing_in_one_field_are_unequal(name):
    spec = CollectionSpec(**SPEC_FIELDS)
    assert CollectionSpec(**SPEC_FIELDS) == spec
    assert CollectionSpec(**dict(SPEC_FIELDS, **{name: OTHER_VALUES[name]})) != spec


@pytest.mark.parametrize("record, name", [
    (Height(0, 2), "lo"),
    (Height(0, 2), "hi"),
    (Comparison(2, 3, True, None), "iso_range"),  # what `report` adds to Analysis
    (ChainTerm((1, 2), (0, 1), (1, 1)), "chain"),
    (ChainTerm((1, 2), (0, 1), (1, 1)), "degs"),
    (ChainTerm((1, 2), (0, 1), (1, 1)), "factor_dims"),
])
def test_height_and_chain_term_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, 5)
    with pytest.raises(AttributeError):
        record.extra = 5


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_round_trip(name):
    spec = fixtures.fixture_spec(name)
    text = serialize(spec)
    again = parse(text)
    assert again == spec
    assert serialize(again) == text


def test_backwards_ext_rejected():
    with pytest.raises(SpecError):
        parse({"n": 2, "dim_x": 0, "ext": [
            {"src": 2, "dst": 1, "deg": 0, "dim": 1}]})


def test_diagonal_ext_rejected():
    with pytest.raises(SpecError):
        parse({"n": 2, "dim_x": 0, "ext": [
            {"src": 1, "dst": 1, "deg": 0, "dim": 1}]})


def test_negative_and_zero_dims_rejected():
    for bad in (0, -1):
        with pytest.raises(SpecError):
            parse({"n": 2, "dim_x": 0, "ext": [
                {"src": 1, "dst": 2, "deg": 0, "dim": bad}]})


def test_twisted_space_needs_increasing_pair():
    with pytest.raises(SpecError):
        parse({"n": 2, "dim_x": 0, "serre_ext": [
            {"twist_src": 2, "from": 1, "deg": 0, "dim": 1}]})


def test_dangling_product_indices_rejected():
    doc = {
        "n": 3,
        "dim_x": 0,
        "ext": [
            {"src": 1, "dst": 2, "deg": 0, "dim": 1},
            {"src": 2, "dst": 3, "deg": 0, "dim": 1},
            {"src": 1, "dst": 3, "deg": 0, "dim": 1},
        ],
        "products": [{
            "kind": "AA", "chain": [1, 2, 3], "degs": [0, 0],
            "entries": [[0, 0, 5, "1"]],
        }],
    }
    with pytest.raises(SpecError):
        parse(doc)


def test_unknown_top_level_key_rejected():
    with pytest.raises(SpecError):
        parse({"n": 1, "dim_x": 0, "surprise": True})
    # a dict tree's keys need not be strings, nor of one type
    with pytest.raises(SpecError, match=r"unknown top-level keys \[1, 'x'\]"):
        parse({"n": 1, "dim_x": 0, 1: 2, "x": 3})


def test_malformed_json_rejected():
    with pytest.raises(SpecError):
        parse("{not json")


def _one_product(value):
    return {
        "n": 3,
        "dim_x": 0,
        "ext": [
            {"src": 1, "dst": 2, "deg": 0, "dim": 1},
            {"src": 2, "dst": 3, "deg": 0, "dim": 1},
            {"src": 1, "dst": 3, "deg": 0, "dim": 1},
        ],
        "products": [{
            "kind": "AA", "chain": [1, 2, 3], "degs": [0, 0],
            "entries": [[0, 0, 0, value]],
        }],
    }


@pytest.mark.parametrize("value, expected", [
    (3, 3), ("3", 3), ("-3", -3), ("+3", 3), (" 3", 3), ("007", 7),
    ("6/2", 3), ("1e3", 1000), ("1/2", Fraction(1, 2)), ("-0.25", Fraction(-1, 4)),
])
def test_coefficients_are_ints_when_integral(value, expected):
    key = pr.key_aa((1, 2, 3), (0, 0))
    got = parse(_one_product(value)).tables[key][(0, 0)][0]
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("value", [
    "", "-", "--3", "1/0", "0x10", "nan", "1" * 5000, "-" + "1" * 5000, 1.5, None,
])
def test_bad_coefficients_rejected(value):
    with pytest.raises(SpecError, match="bad rational"):
        parse(_one_product(value))


@pytest.mark.parametrize("field, value", [
    ("F3", "1/3"), ("F2", "-5/4"), ("F7", "2/21"),
])
def test_coefficient_the_field_cannot_hold_rejected(field, value):
    doc = dict(_one_product(value), field=field)
    with pytest.raises(SpecError, match=f"coefficient {value} in field {field}"):
        parse(doc)
    assert parse(dict(doc, field="F5")).tables  # a unit mod 5 is fine


def test_cochain_value_the_field_cannot_hold_rejected():
    doc = json.loads(fixtures.fixture_document("point"))
    doc = dict(doc, field="F3")
    doc["fullness"]["xi"]["terms"][0]["values"] = [[0, "2/3"]]
    with pytest.raises(SpecError, match="coefficient 2/3 in field F3"):
        parse(doc)
    parse(dict(doc, field="Q"))


@pytest.mark.parametrize("text", [
    b'{"n": 1, "dim_x": 0, "metadata": {"name": "\xff"}}',
    "[" * 100_000 + "]" * 100_000,
    '{"n": ' + "1" * 5000 + ', "dim_x": 0}',
])
def test_unreadable_text_rejected(text):
    with pytest.raises(SpecError, match="malformed JSON"):
        parse(text)


def test_duplicate_degree_rejected():
    with pytest.raises(SpecError):
        parse({"n": 2, "dim_x": 0, "ext": [
            {"src": 1, "dst": 2, "deg": 0, "dim": 1},
            {"src": 1, "dst": 2, "deg": 0, "dim": 2}]})


def test_validate_fixture_corpus_all_green():
    for name in FIXTURE_NAMES:
        report = validate(fixtures.fixture_spec(name))
        assert report.ok, (name, [c.detail for c in report.failures()])


def test_validate_flags_broken_associativity():
    spec = fixtures.fixture_spec("beilinson_p2")
    key = pr.key_aa((1, 2, 3), (0, 0))
    table = {src: dict(row) for src, row in spec.tables[key].items()}
    out = next(iter(table[(0, 0)]))
    table[(0, 0)][out] *= 2
    spec.tables[key] = table
    report = validate(spec)
    assert not report.ok
    assert any(c.name == "associativity" for c in report.failures())


def test_validate_flags_product_into_missing_space():
    # built programmatically: the parser would reject this document
    spec = CollectionSpec(
        n=3, dim_x=0,
        a_dims={(1, 2): {0: 1}, (2, 3): {0: 1}},
        n_dims={},
        tables={pr.key_aa((1, 2, 3), (0, 0)): {(0, 0): {0: Fraction(1)}}},
    )
    report = validate(spec)
    assert any(not c.passed and c.name == "degree_additivity" for c in report.checks)


@pytest.mark.parametrize("kind", [pr.AN, pr.NA])
@pytest.mark.parametrize("bad", [None, True, "1", 1.5])
def test_validate_reports_a_non_integer_twist(kind, bad):
    # built programmatically: the parser refuses such keys
    spec = fixtures.fixture_spec("beilinson_p1")
    key = next(k for k in spec.tables if k[0] == kind)
    spec.tables[(kind, bad, *key[2:])] = spec.tables.pop(key)
    report = validate(spec)
    assert [c.name for c in report.failures()] == ["degree_additivity"]
    assert "must be integers" in report.failures()[0].detail


@pytest.mark.parametrize("field, message", [
    ("F3", "denominator of 1/3 vanishes mod 3"),
    ("G", "unknown field 'G'"),
])
def test_validate_reports_a_field_it_cannot_evaluate_in(field, message):
    # built programmatically: the parser refuses both
    spec = fixtures.fixture_spec("beilinson_p2")
    key = pr.key_aa((1, 2, 3), (0, 0))
    spec.tables[key] = {src: dict(row) for src, row in spec.tables[key].items()}
    out = next(iter(spec.tables[key][(0, 0)]))
    spec.tables[key][(0, 0)][out] = Fraction(1, 3)
    spec.field_name = field
    report = validate(spec)
    assert [c.name for c in report.failures()] == ["associativity"]
    assert message in report.failures()[0].detail


def test_asymmetric_constants_are_fine():
    # a path-algebra style table with table[(0,1)] != table[(1,0)]:
    # commutativity is not a requirement, only associativity is
    doc = {
        "n": 3, "dim_x": 0,
        "ext": [
            {"src": 1, "dst": 2, "deg": 0, "dim": 2},
            {"src": 2, "dst": 3, "deg": 0, "dim": 2},
            {"src": 1, "dst": 3, "deg": 0, "dim": 4},
        ],
        "products": [{
            "kind": "AA", "chain": [1, 2, 3], "degs": [0, 0],
            "entries": [
                [0, 0, 0, "1"], [0, 1, 1, "1"],
                [1, 0, 2, "1"], [1, 1, 3, "1"],
            ],
        }],
    }
    spec = parse(doc)
    key = pr.key_aa((1, 2, 3), (0, 0))
    assert spec.tables[key][(0, 1)] != spec.tables[key][(1, 0)]
    assert validate(spec).ok


def test_extend_degrees_burniat():
    assert Deductions(fixtures.fixture_spec("burniat")).degrees == [
        3, 3, 2, 2, 2, 0, -3, -3, -4, -4, -4, -6]


def test_extend_degrees_beauville():
    assert Deductions(fixtures.fixture_spec("beauville_I1")).degrees == [
        0, -2, -2, -4, -8, -10, -10, -12]


def test_extend_degrees_godeaux():
    got = Deductions(fixtures.fixture_spec("godeaux")).degrees
    assert got[11:] == [-1, -1, 0, -1, -1, -1, 0, -1, -1, -1, -1]


def criterion_zeros(degrees, k_squared):
    """The degree criterion's ZEROs, listed from its rule; the engine's reader agrees."""
    flags = {"is_surface": True, "line_bundles": True, "ample_canonical": True,
             "k_squared": k_squared}
    n = len(degrees)
    spec = CollectionSpec(n=n, dim_x=2, canonical_degrees=degrees, flags=flags)
    listed, reader = listed_deductions(spec), Deductions(spec)
    keys = [(src, dst, 0) for src in range(1, n + 1) for dst in range(1, 2 * n + 1)]
    assert {key: ZERO for key in keys if reader.status(key) == ZERO} == listed
    return listed


def test_hom_vanishing_non_increasing_kills_everything():
    updates = criterion_zeros([3, 3, 2, 2, 2, 0], 6)
    for i in range(1, 7):
        for j in range(i + 1, 7):
            assert updates[(i, j, 0)] == ZERO
        assert updates[(i, 6 + i, 0)] == ZERO
    assert all(st == ZERO for st in updates.values())


def test_hom_vanishing_increasing_degrees_deduce_nothing():
    updates = criterion_zeros([0, 1], -2)  # extended degrees [0, 1, 2, 3]
    assert all((i, j, 0) not in updates for i in (1, 2) for j in (1, 2) if i < j)


def test_hom_vanishing_godeaux_allows_degree_raising_pairs():
    updates = criterion_zeros([0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0], 1)
    assert (2, 3, 0) not in updates  # degree goes 0 -> 1
    assert (1, 7, 0) not in updates
    assert updates[(1, 2, 0)] == ZERO
    assert updates[(3, 4, 0)] == ZERO


def test_hom_vanishing_needs_flags():
    spec = fixtures.fixture_spec("beilinson_p1")
    assert listed_deductions(spec) == {}
    reader = Deductions(spec)
    assert all(reader.status((src, dst, deg)) == UNKNOWN
               for src in (1, 2) for dst in range(1, 5) for deg in range(-1, 4))


def test_qualitative_window_semantics():
    table = QualitativeExtTable(2, {(1, 2, 1): NONZERO}, (0, 2))
    assert table.status(1, 2, 5) == ZERO  # outside the window
    assert table.status(1, 2, 0) == UNKNOWN
    reader = Deductions(CollectionSpec(n=2, dim_x=2, qualitative=table))
    assert se_intervals(reader)(1, 2) == (0, 1)


def test_qualitative_windowless_interval_unbounded_below():
    table = QualitativeExtTable(2, {(1, 2, 1): NONZERO}, None)
    lo, hi = se_intervals(Deductions(CollectionSpec(n=2, dim_x=2, qualitative=table)))(1, 2)
    assert lo == -model.INF and hi == 1


def test_qualitative_merge_conflict():
    # the flag deduces NONZERO at (1, 3, 2), which the table states ZERO
    table = QualitativeExtTable(2, {(1, 3, 2): ZERO}, (0, 2))
    flags = {"is_surface": True, "line_bundles": True, "h2_anticanonical_nonzero": True}
    spec = CollectionSpec(n=2, dim_x=2, qualitative=table, flags=flags)
    with pytest.raises(SpecError, match=r"qualitative conflict at \(1, 3, 2\)"):
        qualitative_ph_bounds(spec)


def test_nonzero_status_outside_window_rejected():
    with pytest.raises(SpecError):
        parse({"n": 1, "dim_x": 2, "qualitative": {
            "degree_window": [0, 2],
            "statuses": [{"src": 1, "dst": 2, "deg": 7, "status": "NONZERO"}]}})


def test_validate_flags_exact_qualitative_conflict():
    doc = {
        "n": 2, "dim_x": 0,
        "ext": [{"src": 1, "dst": 2, "deg": 0, "dim": 1}],
        "serre_ext": [{"twist_src": 1, "from": 1, "deg": 0, "dim": 1}],
        "qualitative": {"statuses": [
            {"src": 1, "dst": 2, "deg": 0, "status": "ZERO"}]},
    }
    report = validate(parse(doc))
    assert any(c.name == "qualitative_consistency" and not c.passed
               for c in report.checks)


@pytest.mark.parametrize("n, dim_x", [(1, 0), (2, 2), (4, 1), (5, 3)])
def test_link_keys_are_the_forward_pairs(n, dim_x):
    # every link has its own key, and is_link_key names exactly those keys
    spec = CollectionSpec(n=n, dim_x=dim_x)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    links = [("A", i, j) for i, j in pairs if i < j] + [("N", i, j) for i, j in pairs]
    keys = {model.link_key(spec, *link)[:2]: link for link in links}
    assert len(keys) == len(links)
    table_pairs = [(s, d) for s in range(1, n + 1) for d in range(1, 2 * n + 1)]
    assert {p for p in table_pairs if validation.is_link_key(spec, *p)} == set(keys)
    for kind, i, j in links:
        assert model.link_key(spec, kind, i, j)[2] == (0 if kind == "A" else dim_x)


def test_validate_reads_only_the_links_with_data():
    # a wide, sparse exact document: the check follows its records, not n^2 links
    doc = {
        "n": 10**9, "dim_x": 0,
        "ext": [{"src": 1, "dst": 2, "deg": 0, "dim": 1}],
        "qualitative": {"statuses": [
            {"src": 1, "dst": 10**9 + 1, "deg": 0, "status": "NONZERO"}]},
    }
    t0 = time.monotonic()
    report = validate(parse(doc))
    assert time.monotonic() - t0 < 1.0
    assert report.failures() == [validation.CheckResult(
        "qualitative_consistency", False,
        f"status NONZERO at (1, {10**9 + 1}, 0) but exact dim 0")]


def test_validate_caps_the_surface_flag_detail():
    # the flag deduces one NONZERO per object; a one-record exact document
    # contradicts all n of them, and the report names five
    n = 200_000
    doc = {
        "n": n, "dim_x": 2,
        "ext": [{"src": 1, "dst": 2, "deg": 0, "dim": 1}],
        "flags": {"is_surface": True, "line_bundles": True,
                  "h2_anticanonical_nonzero": True},
    }
    [check] = validate(parse(doc)).failures()
    assert check.name == "qualitative_consistency"
    assert check.detail.startswith(f"status NONZERO at (1, {n + 1}, 2) but exact dim 0; ")
    assert check.detail.count(";") == 4 and check.detail.endswith("...")
    assert len(check.detail) < 1024


def test_serialization_is_canonical_json():
    text = serialize(fixtures.fixture_spec("burniat"))
    tree = json.loads(text)
    assert json.dumps(tree, sort_keys=True, indent=1) + "\n" == text


def test_validate_reports_broken_higher_products():
    # an arity-3 block plus a one-sided composition route cannot square to
    # zero; the relation check must fail without raising
    spec = CollectionSpec(
        n=4, dim_x=0,
        a_dims={(1, 2): {0: 1}, (2, 3): {0: 1}, (3, 4): {0: 1},
                (1, 4): {-1: 1}},
        n_dims={(1, 4): {1: 1}, (1, 1): {0: 1}},
        tables={
            pr.key_an(1, (1, 4), (-1, 1)): {(0, 0): {0: Fraction(1)}},
            pr.key_aa((1, 2, 3, 4), (0, 0, 0)): {(0, 0, 0): {0: Fraction(1)}},
        },
    )
    report = validate(spec)
    assert not report.ok
    assert any(c.name == "a_infinity" and not c.passed for c in report.checks)
