"""`products.window_key`: the one rule for which letters a product consumes.

Letters are ("A"|"N", i, j, deg) tuples as `source_spaces` returns them;
`window_key` must invert `source_spaces` on every product key that occurs,
and must refuse every run of letters that no product consumes.  The last
test checks the sign facts that make `relations.relations` equivalent to
d . d = 0, with `relations.block_sign` and `nhh._windows`.
"""

import itertools
import os
import random

import pytest

import _specgen
from excol import FIXTURE_NAMES, fixtures, model, nhh
from excol import products as pr
from excol import relations as rel

ARITY3 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "arity3.json")


def _specs():
    for name in FIXTURE_NAMES:
        yield fixtures.fixture_spec(name)
    rng = random.Random(11)
    for _ in range(200):
        yield _specgen.random_spec(rng)
    with open(ARITY3, encoding="utf-8") as fh:
        yield model.parse(fh.read())


def test_window_key_inverts_source_spaces():
    shapes = set()
    for spec in _specs():
        for key in spec.tables:
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
    arity_two = {key: table for key, table in base.tables.items() if len(key[3]) == 2}
    for key, table in arity_two.items():
        for src, row in table.items():
            for out in row:
                spec = fixtures.fixture_spec("beilinson_p2")
                spec.tables[key] = {s: dict(r) for s, r in table.items()}
                spec.tables[key][src][out] *= 2
                failed = [c.name for c in model.validate(spec).failures()]
                assert failed == ["associativity"], (key, src, out)
                count += 1
    assert count == 135


# -- the sign facts behind the relation check ----------------------------------
#
# A word is abstract here: chain 1..p+1, every product present, letters of
# degree 0 or 1 (signs read degrees only mod 2).  Each letter carries the set
# of word positions it covers, so a pair of blocks knows which letters of
# the word it consumed.


def _apply(word, consumed, out_pos):
    """The block at a window of word = [(letter, covered positions)]."""
    letters = [x for x, _ in word]
    key = pr.window_key([letters[i] for i in consumed])
    assert key is not None
    p = len(word) - 1
    sign = rel.block_sign(key, [x[3] for x in letters[:p]], letters[p][3], out_pos)
    out = [w for i, w in enumerate(word) if i not in consumed]
    out.insert(out_pos, (pr.target_space(key), _covered(word, consumed)))
    return key, sign, out


def _covered(word, consumed):
    return frozenset().union(*(word[i][1] for i in consumed))


def _blocks_of_d_squared(degs, max_arity):
    """Every pair of blocks leaving the word, grouped by the word they reach.

    A pair is (inner key, outer key, sign, nested, first window, second
    window, second output letter), windows as sets of word positions.
    """
    p = len(degs) - 1
    term = nhh.ChainTerm(tuple(range(1, p + 2)), degs, (1,) * (p + 1))
    word = [(x, frozenset([i])) for i, x in enumerate(term.letters())]
    by_target = {}
    for consumed, out_pos in nhh._windows(p, max_arity):
        k1, e1, mid = _apply(word, consumed, out_pos)
        for consumed2, out_pos2 in nhh._windows(len(mid) - 1, max_arity):
            k2, e2, end = _apply(mid, consumed2, out_pos2)
            pair = (k1, k2, e1 * e2, out_pos in consumed2, _covered(word, consumed),
                    _covered(mid, consumed2), end[out_pos2][0])
            by_target.setdefault(tuple(x for x, _ in end), []).append(pair)
    return term.letters(), by_target


def test_relation_signs_match_every_block_of_d_squared():
    """On every word with p <= 6 and arity <= 4, over all degree parities:
    disjoint pairs of blocks cancel, and the nested pairs of each (s, t)
    block of d . d are the pairs of one relation of the checker, with the
    checker's signs up to one common sign."""
    counts = {"disjoint": 0, "relations": 0}
    for p in range(1, 7):
        for degs in itertools.product((0, 1), repeat=p + 1):
            letters, by_target = _blocks_of_d_squared(degs, 4)
            keys = {k for pairs in by_target.values() for q in pairs for k in q[:2]}
            relations = {
                (frozenset(window), out): {(i, o): s for s, i, o, _ in pairs}
                for (window, out), pairs in rel.relations(dict.fromkeys(keys)).items()
            }
            for target, pairs in by_target.items():
                disjoint = {}
                for _, _, sign, nested, w1, w2, _ in pairs:
                    if not nested:
                        disjoint.setdefault(frozenset([w1, w2]), []).append(sign)
                assert all(sorted(s) == [-1, 1] for s in disjoint.values()), target
                counts["disjoint"] += len(disjoint)
                nested = [pair for pair in pairs if pair[3]]
                if not nested:
                    continue
                windows = {(pair[5], pair[6]) for pair in nested}
                assert len(windows) == 1, target  # one relation per (s, t) block
                (covered, out), = windows
                got = {(k1, k2): sign for k1, k2, sign, *_ in nested}
                want = relations[(frozenset(letters[i] for i in covered), out)]
                assert got.keys() == want.keys(), target
                assert len({got[k] * want[k] for k in got}) == 1, target
                counts["relations"] += 1
    assert counts == {"disjoint": 8448, "relations": 5752}
