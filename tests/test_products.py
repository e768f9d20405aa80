"""`products.window_key`: the one rule for which letters a product consumes.

Letters are ("A"|"N", i, j, deg) tuples as `source_spaces` returns them;
`window_key` must invert `source_spaces` on every product key that occurs,
and must refuse every run of letters that no product consumes.
"""

import os
import random

import pytest

import _specgen
from excol import fixtures, model
from excol import products as pr

ARITY3 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "arity3.json")


def _specs():
    for name in fixtures.fixture_list():
        yield fixtures.fixture_spec(name)
    rng = random.Random(11)
    for _ in range(200):
        yield _specgen.random_spec(rng)
    with open(ARITY3, encoding="utf-8") as fh:
        yield model.parse(fh.read())


def test_window_key_inverts_source_spaces():
    shapes = set()
    for spec in _specs():
        for key in list(spec.products) + list(spec.higher):
            assert pr.window_key(pr.source_spaces(key)) == key
            shapes.add((key[0], pr.arity_of(key)))
    assert shapes == {(kind, m) for kind in (pr.AA, pr.AN, pr.NA) for m in (2, 3)}


@pytest.mark.parametrize("letters", [
    pytest.param([("A", 1, 2, 0)], id="single letter"),
    pytest.param([("N", 1, 2, 0), ("N", 2, 3, 0)], id="two twisted letters"),
    pytest.param([("A", 1, 2, 0), ("A", 3, 4, 0)], id="gap in the chain"),
    pytest.param([("A", 1, 2, 0), ("N", 1, 2, 0), ("A", 2, 3, 0)],
                 id="twisted letter in the middle"),
    pytest.param([("A", 2, 3, 0), ("N", 3, 3, 0)], id="AN twist source beyond start"),
    pytest.param([("A", 2, 3, 0), ("N", 1, 2, 0)], id="AN twisted letter elsewhere"),
    pytest.param([("N", 1, 2, 0), ("A", 1, 3, 0)], id="NA run past the twist"),
    pytest.param([("N", 2, 3, 0), ("A", 1, 2, 0)], id="NA run elsewhere"),
    pytest.param([("A", 2, 1, 0), ("A", 1, 3, 0)], id="backwards morphism"),
])
def test_window_key_refuses_non_windows(letters):
    assert pr.window_key(letters) is None


@pytest.mark.parametrize("key, message", [
    (("AB", None, (1, 2, 3), (0, 0)), "unknown product kind"),
    (pr.key_aa((1, 2), (0,)), "arity must be >= 2"),
    (pr.key_aa((1, 2, 5), (0, 0)), "object outside 1..4"),
    (pr.key_an(0, (1, 2), (0, 0)), "object outside 1..4"),
    (pr.key_na(5, (1, 2), (0, 0)), "object outside 1..4"),
    (pr.key_aa((1, 2), (0, 0)), "does not match arity"),
    (pr.key_an(1, (1, 2, 3), (0, 0)), "does not match arity"),
    (pr.key_aa((1, 3, 2), (0, 0)), "not a window"),
    (("AA", 1, (1, 2, 3), (0, 0)), "not a window"),
    (pr.key_an(3, (2, 4), (0, 0)), "not a window"),
    (pr.key_na(2, (1, 3), (0, 0)), "not a window"),
    (pr.key_an(None, (1, 2), (0, 0)), "must be integers"),
    (pr.key_na(None, (1, 2), (0, 0)), "must be integers"),
    (pr.key_aa((1, True, 3), (0, 0)), "must be integers"),
    (pr.key_an(1, (1, 2), (0, False)), "must be integers"),
    (pr.key_na(2, (1, 2), ("0", 0)), "must be integers"),
    ((pr.AN, 1, None, (0, 0)), "must be tuples"),
    ((pr.AA, None, (1, 2, 3), 5), "must be tuples"),
])
def test_key_shape_refuses_what_source_spaces_cannot_take(key, message):
    with pytest.raises(ValueError, match=message):
        pr.check_key_shape(key, 4)


def test_window_key_names_each_kind():
    aa = [("A", 1, 2, 0), ("A", 2, 4, 1)]
    assert pr.window_key(aa) == pr.key_aa((1, 2, 4), (0, 1))
    an = [("A", 2, 3, 0), ("N", 2, 3, 1)]
    assert pr.window_key(an) == pr.key_an(2, (2, 3), (0, 1))
    na = [("N", 1, 3, 1), ("A", 1, 3, 0)]
    assert pr.window_key(na) == pr.key_na(3, (1, 3), (1, 0))


def test_validate_flags_every_doubled_beilinson_entry():
    # every AA, AN and NA entry of P^2, one at a time
    base = fixtures.fixture_spec("beilinson_p2")
    count = 0
    for key, table in base.products.items():
        for src, row in table.items():
            for out in row:
                spec = fixtures.fixture_spec("beilinson_p2")
                spec.products[key] = {s: dict(r) for s, r in table.items()}
                spec.products[key][src][out] *= 2
                failed = [c.name for c in model.validate(spec).failures()]
                assert failed == ["associativity"], (key, src, out)
                count += 1
    assert count == 135
