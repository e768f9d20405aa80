"""Corrupted documents: parse raises only SpecError, the CLI exits 0, 1 or 2.

Each example edits a shipped fixture document in one to three places
(replacing, deleting or adding an entry at any depth) and feeds it to
`model.parse` or to `cli.main`.  A JSON boolean in place of any integer
must be refused, although Python counts it as one, and so must a flag value
of the wrong type.  Whatever `validate` accepts, the bounds walk reads
without raising, and no engine command refuses it but by design.
"""

import contextlib
import copy
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from excol import FIXTURE_NAMES, fixtures, model  # noqa: E402
from excol.cli import main  # noqa: E402
from excol.pseudoheight import MAX_N, qualitative_ph_bounds  # noqa: E402

# the CLI runs on the small fixtures only, so that no corruption is costly
CLI_FIXTURES = ["point", "beilinson_p1", "godeaux", "burniat", "beauville_I1"]
CLI_COMMANDS = ["validate", "pseudoheight", "e1", "ss", "height", "report", "fullness"]
SETTINGS = settings(
    max_examples=200,
    derandomize=True,
    deadline=5000,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def _keys(node, out):
    if isinstance(node, dict):
        out.update(node)
        for v in node.values():
            _keys(v, out)
    elif isinstance(node, list):
        for v in node:
            _keys(v, out)
    return out


DOCS = {name: json.loads(fixtures.fixture_document(name)) for name in FIXTURE_NAMES}
KEYS = sorted(set().union(*(_keys(doc, set()) for doc in DOCS.values())))

WORDS = ["Q", "F4", "F7", "F\u00b2", "F1000000000000000001", "1/0", "x",
         "NONZERO", "ZERO", "UNKNOWN", "AA", "AN", "NA"]
SMALL = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(WORDS),
)
# values that are cheap to reject but must never reach the engines
HUGE = st.sampled_from([
    10**30, -(2**64), 2**64, "1" * 5000, "F" + "1" * 5000, "F1000000000000000003",
])


def _values(scalars):
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
        max_leaves=6,
    )


def _corrupt(data, node, values):
    """Replace, delete or add one entry somewhere below node, in place."""
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    if keys:
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            return _corrupt(data, child, values)
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    else:
        key, action = 0, "add"
    if action == "replace":
        node[key] = data.draw(values)
    elif action == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[data.draw(st.sampled_from(KEYS) | st.text(max_size=4))] = data.draw(values)
    else:
        node.insert(key, data.draw(values))


def _corrupted(data, names, values):
    doc = copy.deepcopy(DOCS[data.draw(st.sampled_from(names))])
    for _ in range(data.draw(st.integers(1, 3))):
        _corrupt(data, doc, values)
    return doc


@SETTINGS
@given(st.data())
def test_parse_raises_only_spec_error(data):
    doc = _corrupted(data, sorted(DOCS), _values(SMALL | HUGE))
    try:
        model.parse(json.dumps(doc))
    except model.SpecError:
        pass


def _int_leaves(node, path, out):
    """Paths to the integers of a document, outside flags and metadata."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if key in ("flags", "metadata"):
            continue
        if isinstance(child, (dict, list)):
            _int_leaves(child, path + (key,), out)
        elif isinstance(child, int) and not isinstance(child, bool):
            out.append(path + (key,))
    return out


NOT_A_BOOLEAN = st.none() | st.integers(-1, 2) | st.sampled_from(["no", "true"])
# each path comes with values of the wrong type for it: booleans for the
# integers and for k_squared, anything but a boolean for the other flags
TYPED_LEAVES = {
    name: [(path, st.booleans()) for path in _int_leaves(doc, (), [])]
    + [(("flags", flag), st.booleans() if flag == "k_squared" else NOT_A_BOOLEAN)
       for flag in doc.get("flags", {})]
    for name, doc in DOCS.items()
}


@SETTINGS
@given(st.data())
def test_boolean_for_an_integer_is_rejected(data):
    name = data.draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[name])
    path, values = data.draw(st.sampled_from(TYPED_LEAVES[name]))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = data.draw(values)
    with pytest.raises(model.SpecError):
        model.parse(json.dumps(doc))


@SETTINGS
@given(st.data())
def test_validated_document_never_fails_the_chain_walks(data):
    # whatever validate accepts, the bounds walk reads without raising
    doc = _corrupted(data, sorted(DOCS), _values(SMALL))
    try:
        spec = model.parse(json.dumps(doc))
    except model.SpecError:
        return
    if spec.n <= MAX_N and model.validate(spec).ok:
        qualitative_ph_bounds(spec)


@SETTINGS
@given(st.data())
def test_cli_exits_only_0_1_2(tmp_path, data):
    doc = _corrupted(data, CLI_FIXTURES, _values(SMALL))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [data.draw(st.sampled_from(CLI_COMMANDS)), str(path)]
    argv += data.draw(st.sampled_from([[], ["--json"]]))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


@SETTINGS
@given(st.data())
def test_no_engine_command_refuses_what_validate_accepts(tmp_path, data):
    doc = _corrupted(data, CLI_FIXTURES, _values(SMALL))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        if main(["validate", str(path)]) != 0:
            return
        refused = [cmd for cmd in CLI_COMMANDS[1:] if main([cmd, str(path)]) == 1]
    spec = model.parse(json.dumps(doc))
    # by design: the first page needs exact dims, and the chain walks cap n
    allowed = {"e1"} if not spec.is_exact else set()
    assert set(refused) <= (set(CLI_COMMANDS) if spec.n > MAX_N else allowed)
