"""The first `SpecError` of every corrupted record, pinned word for word.

`model.parse` builds an error message only when a check fails, so these
cases pin what each failing check says: each corrupts one record of a
shipped document and names the exact message.  The guard below parses valid
document trees whose lists and dicts count their `__repr__` calls: a valid
document must be read without formatting any of its records.
"""

import copy
import json
from pathlib import Path

import pytest

from excol import model
from excol.fixtures import FIXTURE_NAMES

ROOT = Path(__file__).resolve().parents[1]
DOCS = {
    name: json.loads((ROOT / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))
    for name in FIXTURE_NAMES
}
for name in ("arity3", "sparse15"):
    DOCS[name] = json.loads((ROOT / "tests" / "data" / f"{name}.json").read_text(encoding="utf-8"))

P1, P2, HIGHER, SURFACE = "beilinson_p1", "beilinson_p2", "arity3", "burniat"
AN = ("products", 0)  # beilinson_p1's AN product, chain (1, 2) degrees (0, 1)
NA = ("products", 1)  # beilinson_p1's NA product, from 2
ENTRY = (*AN, "entries", 0)
XI = ("fullness", "xi", "terms", 0)


def _at(doc, path):
    """(container, key) of the value at path."""
    *head, last = path
    for key in head:
        doc = doc[key]
    return doc, last


def _set(*path_value):
    *path, value = path_value

    def edit(doc):
        box, key = _at(doc, path)
        box[key] = value

    return edit


def _drop(*path):
    def edit(doc):
        box, key = _at(doc, path)
        del box[key]

    return edit


def _duplicate(*path):
    def edit(doc):
        box, key = _at(doc, path)
        box.insert(key + 1, copy.deepcopy(box[key]))

    return edit


def _remove_serre(twist_src, frm):
    def edit(doc):
        doc["serre_ext"] = [
            r for r in doc["serre_ext"] if (r["twist_src"], r["from"]) != (twist_src, frm)
        ]

    return edit


# (id, document, corruption, the first SpecError's message)
CASES = [
    # product entries
    ("entry-not-a-list", P1, _set(*ENTRY, "x"),
     "bad entry 'x' (want 2 source indices, out, value)"),
    ("entry-is-a-dict", P1, _set(*ENTRY, {"src": 0}),
     "bad entry {'src': 0} (want 2 source indices, out, value)"),
    ("entry-too-short", P1, _set(*ENTRY, [0, 0, "1"]),
     "bad entry [0, 0, '1'] (want 2 source indices, out, value)"),
    ("entry-too-long", P1, _set(*ENTRY, [0, 0, 0, 0, "1"]),
     "bad entry [0, 0, 0, 0, '1'] (want 2 source indices, out, value)"),
    ("entry-boolean-source", P1, _set(*ENTRY, [True, 0, 0, "1"]),
     "bad entry indices [True, 0, 0, '1']"),
    ("entry-boolean-output", P1, _set(*ENTRY, [0, 0, False, "1"]),
     "bad entry indices [0, 0, False, '1']"),
    ("entry-string-index", P1, _set(*ENTRY, [0, "0", 0, "1"]),
     "bad entry indices [0, '0', 0, '1']"),
    ("entry-float-index", P1, _set(*ENTRY, [0, 0.0, 0, "1"]),
     "bad entry indices [0, 0.0, 0, '1']"),
    ("entry-duplicate", P1, _set(*AN, "entries", 1, [0, 0, 0, "2"]),
     "duplicate entry [0, 0, 0, '2']"),
    ("entry-duplicate-zero", P1, _duplicate(*ENTRY),
     "duplicate entry [0, 0, 0, '1']"),
    ("rational-division-by-zero", P1, _set(*ENTRY, 3, "1/0"), "bad rational '1/0'"),
    ("rational-word", P1, _set(*ENTRY, 3, "one"), "bad rational 'one'"),
    ("rational-boolean", P1, _set(*ENTRY, 3, True), "bad rational True"),
    ("rational-float", P1, _set(*ENTRY, 3, 0.5), "bad rational 0.5"),
    ("rational-list", P1, _set(*ENTRY, 3, [1]), "bad rational [1]"),
    ("dangling-source", P1, _set(*ENTRY, [2, 0, 0, "1"]),
     "product ('AN', 1, (1, 2), (0, 1)) has dangling source (2, 0)"),
    ("negative-source", P1, _set(*ENTRY, [-1, 0, 0, "1"]),
     "product ('AN', 1, (1, 2), (0, 1)) has dangling source (-1, 0)"),
    ("dangling-target", P1, _set(*ENTRY, [0, 0, 3, "1"]),
     "product ('AN', 1, (1, 2), (0, 1)) has dangling target in {3: 1}"),
    ("dangling-zero-target", P1, _set(*ENTRY, [0, 0, 7, 0]),
     "product ('AN', 1, (1, 2), (0, 1)) has dangling target in {7: 0}"),
    ("zero-source-space", P1, _set(*AN, "degs", [0, 2]),
     "product ('AN', 1, (1, 2), (0, 2)) references the zero space N(1,2)^2"),
    ("zero-target-space", P1, _remove_serre(1, 1),
     "product ('AN', 1, (1, 2), (0, 1)) lands in the zero space N(1,1)^1"),
    ("na-zero-target-space", P1, _remove_serre(2, 2),
     "product ('NA', 2, (1, 2), (1, 0)) lands in the zero space N(2,2)^1"),
    ("entries-not-a-list", P1, _set(*AN, "entries", {"0": 1}),
     "entries must be a list, got {'0': 1}"),
    # product records
    ("record-not-an-object", P1, _set(*AN, ["AN"]), "bad product record ['AN']"),
    ("bad-kind", P1, _set(*AN, "kind", "AX"), "bad product kind 'AX'"),
    ("missing-kind", P1, _drop(*AN, "kind"), "bad product kind None"),
    ("chain-not-a-list", P1, _set(*AN, "chain", "12"),
     "product chain must be a list of integers, got '12'"),
    ("chain-boolean", P1, _set(*AN, "chain", [True, 2]),
     "product chain must be a list of integers, got [True, 2]"),
    ("degs-string", P1, _set(*AN, "degs", [0, "1"]),
     "product degs must be a list of integers, got [0, '1']"),
    ("missing-twist-src", P1, _drop(*AN, "twist_src"),
     "AN needs twist_src: {'chain': [1, 2], 'degs': [0, 1], 'entries': [[0, 0, 0, '1'], "
     "[0, 1, 1, '1'], [1, 0, 1, '1'], [1, 1, 2, '1']], 'kind': 'AN'}"),
    ("boolean-twist-src", P1, _set(*AN, "twist_src", True),
     "AN needs twist_src: {'chain': [1, 2], 'degs': [0, 1], 'entries': [[0, 0, 0, '1'], "
     "[0, 1, 1, '1'], [1, 0, 1, '1'], [1, 1, 2, '1']], 'kind': 'AN', 'twist_src': True}"),
    ("missing-from", P1, _drop(*NA, "from"),
     "NA product needs 'from': {'chain': [1, 2], 'degs': [1, 0], 'entries': [[0, 0, 0, '1'], "
     "[0, 1, 1, '1'], [1, 0, 1, '1'], [1, 1, 2, '1']], 'kind': 'NA'}"),
    ("not-a-window", P1, _set(*AN, "chain", [2, 1]),
     "product ('AN', 1, (2, 1), (0, 1)) is not a window of consecutive letters"),
    ("object-out-of-range", P1, _set(*AN, "twist_src", 3),
     "product ('AN', 3, (1, 2), (0, 1)) names an object outside 1..2"),
    ("arity-three-product", P1, _set(*AN, "degs", [0, 0, 1]),
     "products must have arity 2, got 3"),
    ("duplicate-product", P1, _duplicate("products", 0),
     "duplicate product ('AN', 1, (1, 2), (0, 1))"),
    ("higher-arity-field-mismatch", HIGHER, _set("higher_products", 0, "arity", 4),
     "arity field mismatch in {'arity': 4, 'chain': [1, 2, 3, 4], 'degs': [0, 0, 0], "
     "'entries': [[0, 0, 0, 0, '1']], 'kind': 'AA'}"),
    ("higher-arity-field-missing", HIGHER, _drop("higher_products", 1, "arity"),
     "arity field mismatch in {'chain': [2, 3, 4], 'degs': [0, 0, 1], "
     "'entries': [[0, 0, 0, 0, '1']], 'kind': 'AN', 'twist_src': 1}"),
    ("higher-arity-two", HIGHER, _set("higher_products", 0, "degs", [0, 0]),
     "higher products must have arity >= 3"),
    ("higher-entry-too-short", HIGHER, _set("higher_products", 0, "entries", 0, [0, 0, 0, "1"]),
     "bad entry [0, 0, 0, '1'] (want 3 source indices, out, value)"),
    ("duplicate-higher-product", HIGHER, _duplicate("higher_products", 2),
     "duplicate higher product ('NA', 4, (1, 2, 3), (1, 0, 0))"),
    # graded records
    ("ext-not-an-object", P2, _set("ext", 0, [1, 2]), "bad record [1, 2]"),
    ("ext-missing-dim", P2, _drop("ext", 0, "dim"),
     "missing key 'dim' in {'deg': 0, 'dst': 2, 'src': 1}"),
    ("ext-boolean-degree", P2, _set("ext", 0, "deg", False),
     "non-integer field in {'deg': False, 'dim': 3, 'dst': 2, 'src': 1}"),
    ("ext-object-out-of-range", P2, _set("ext", 0, "dst", 4),
     "object index out of range in {'deg': 0, 'dim': 3, 'dst': 4, 'src': 1}"),
    ("ext-zero-dim", P2, _set("ext", 0, "dim", 0), "dims must be >= 1, got 0"),
    ("ext-backwards", P2, _set("ext", 0, "src", 3),
     "no backwards or diagonal Ext allowed: {'deg': 0, 'dim': 3, 'dst': 2, 'src': 3}"),
    ("ext-duplicate-degree", P2, _duplicate("ext", 0),
     "duplicate degree in {'deg': 0, 'dim': 3, 'dst': 2, 'src': 1}"),
    ("serre-missing-from", P1, _drop("serre_ext", 0, "from"),
     "missing key 'from' in {'deg': 1, 'dim': 3, 'twist_src': 1}"),
    ("serre-duplicate-degree", P1, _set("serre_ext", 1, "twist_src", 2),
     "duplicate degree in {'deg': 1, 'dim': 3, 'from': 2, 'twist_src': 2}"),
    ("serre-twist-source-backwards", P1, _set("serre_ext", 2, "from", 1),
     "twist source must be <= source object in {'deg': 1, 'dim': 3, 'from': 1, 'twist_src': 2}"),
    ("ext-not-a-list", P2, _set("ext", {"src": 1}), "ext must be a list"),
    # qualitative records
    ("window-reversed", SURFACE, _set("qualitative", "degree_window", [2, 0]),
     "bad degree_window [2, 0]"),
    ("window-boolean", SURFACE, _set("qualitative", "degree_window", [0, True]),
     "bad degree_window [0, True]"),
    ("statuses-not-a-list", SURFACE, _set("qualitative", "statuses", {"a": 1}),
     "statuses must be a list, got {'a': 1}"),
    ("status-row-not-an-object", SURFACE, _set("qualitative", "statuses", 0, [1, 2]),
     "bad qualitative row [1, 2]"),
    ("status-row-missing-deg", SURFACE, _drop("qualitative", "statuses", 0, "deg"),
     "bad qualitative row {'dst': 2, 'src': 1, 'status': 'ZERO'}"),
    ("status-unknown", SURFACE, _set("qualitative", "statuses", 0, "status", "MAYBE"),
     "bad status 'MAYBE'"),
    ("status-boolean-degree", SURFACE, _set("qualitative", "statuses", 0, "deg", True),
     "bad qualitative row {'deg': True, 'dst': 2, 'src': 1, 'status': 'ZERO'}"),
    ("status-pair-out-of-range", SURFACE, _set("qualitative", "statuses", 0, "dst", 13),
     "bad pair in {'deg': 1, 'dst': 13, 'src': 1, 'status': 'ZERO'}"),
    ("status-conflict", SURFACE, _set("qualitative", "statuses", 1,
                                      {"deg": 1, "dst": 2, "src": 1, "status": "NONZERO"}),
     "conflicting statuses at (1, 2, 1)"),
    ("status-outside-window", SURFACE, _set("qualitative", "statuses", 0,
                                            {"deg": 5, "dst": 2, "src": 1, "status": "NONZERO"}),
     "NONZERO status at (1, 2, 5) outside degree window"),
    # fullness cochains
    ("cochain-not-an-object", P1, _set("fullness", "xi", ["terms"]), "bad cochain ['terms']"),
    ("cochain-term-missing-values", P1, _drop(*XI, "values"),
     "bad cochain term {'chain': [1, 2], 'degs': [0, 1]}"),
    ("cochain-terms-not-a-list", P1, _set("fullness", "xi", "terms", "x"),
     "cochain terms must be a list, got 'x'"),
    ("cochain-values-not-a-list", P1, _set(*XI, "values", {"1": 1}),
     "cochain values must be a list, got {'1': 1}"),
    ("cochain-value-short", P1, _set(*XI, "values", 0, [1]), "bad cochain value [1]"),
    ("cochain-value-boolean-index", P1, _set(*XI, "values", 0, [False, "1"]),
     "bad cochain value [False, '1']"),
    ("cochain-value-bad-rational", P1, _set(*XI, "values", 0, [1, "1/0"]),
     "bad rational '1/0'"),
    ("cochain-chain-boolean", P1, _set(*XI, "chain", [1, False]),
     "chain must be a list of integers, got [1, False]"),
    ("cochain-degs-string", P1, _set(*XI, "degs", "01"),
     "degs must be a list of integers, got '01'"),
    ("pairings-not-a-list", P1, _set("fullness", "pairings", {"obj": 1}),
     "pairings must be a list, got {'obj': 1}"),
    ("pairing-without-obj", P1, _drop("fullness", "pairings", 0, "obj"),
     "pairing needs obj: {'terms': [{'chain': [1, 2], 'degs': [0, 1], "
     "'values': [[1, '1'], [2, '-1']]}]}"),
    # objects and flags
    ("object-unknown-key", SURFACE, _set("objects", 0, "colour", "red"),
     "unknown object keys ['colour'] in {'canonical_degree': 3, 'label': 'L1', 'colour': 'red'}"),
    ("object-label-not-a-string", SURFACE, _set("objects", 0, "label", 5),
     "label must be a string: {'canonical_degree': 3, 'label': 5}"),
    ("object-degree-missing", SURFACE, _drop("objects", 0, "canonical_degree"),
     "canonical_degree must be given for all objects or none"),
    ("object-degree-boolean", SURFACE, _set("objects", 0, "canonical_degree", True),
     "bad canonical degrees"),
    ("objects-wrong-count", SURFACE, _drop("objects", 0), "objects must list n items"),
    ("flag-unknown", SURFACE, _set("flags", "is_curve", True), "unknown flags ['is_curve']"),
    ("flag-not-boolean", SURFACE, _set("flags", "is_surface", 1),
     "flag is_surface must be true or false, got 1"),
    ("flag-k-squared-boolean", SURFACE, _set("flags", "k_squared", True),
     "flag k_squared must be an integer, got True"),
    # the top level
    ("n-boolean", P1, _set("n", True), "n must be a count >= 1, got True"),
    ("dim-x-negative", P1, _set("dim_x", -1), "dim_x must be >= 0, got -1"),
    ("field-unknown", P1, _set("field", "R"), "bad field 'R': unknown field 'R'"),
    ("unknown-top-level-key", P1, _set("extra", 1), "unknown top-level keys ['extra']"),
]


@pytest.mark.parametrize("name, corrupt, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_first_error_message_is_pinned(name, corrupt, message):
    doc = copy.deepcopy(DOCS[name])
    corrupt(doc)
    with pytest.raises(model.SpecError) as info:
        model.parse(doc)
    assert str(info.value) == message
    # the JSON text of the same document fails with the same message
    with pytest.raises(model.SpecError) as info:
        model.parse(json.dumps(doc))
    assert str(info.value) == message


REPRS = []


class CountingList(list):
    def __repr__(self):
        REPRS.append(self)
        return super().__repr__()


class CountingDict(dict):
    def __repr__(self):
        REPRS.append(self)
        return super().__repr__()


def _counting(tree):
    if isinstance(tree, dict):
        return CountingDict((k, _counting(v)) for k, v in tree.items())
    if isinstance(tree, list):
        return CountingList(_counting(v) for v in tree)
    return tree


@pytest.mark.parametrize("name", sorted(DOCS))
def test_a_valid_document_formats_none_of_its_records(name):
    tree = _counting(DOCS[name])
    REPRS.clear()
    spec = model.parse(tree)
    assert REPRS == []
    assert spec == model.parse(json.dumps(DOCS[name]))
