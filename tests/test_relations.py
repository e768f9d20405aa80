"""The A-infinity relation checker against the complex-level d . d oracle.

`relations.failing_relations` decides d . d = 0 from the product tables
alone; `_dd_oracle.check_square_zero` squares the assembled differential.
Both must refuse the same corrupted documents, every refusal must name the
failing window, and on random documents with arity-3 products every
nonzero (source term, target term) block of d . d must be the checker's
relation map tensored with the identity, up to sign.
"""

import copy
import itertools
import os
import random

import pytest

import _specgen
from _dd_oracle import check_square_zero
from _matrices import d_matrix
from excol import fixtures, model, nhh
from excol import products as pr
from excol import relations as rel
from excol.exactlin import QQ

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _spec(name):
    if name.endswith(".json"):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            return model.parse(fh.read())
    return fixtures.fixture_spec(name)


def _entries(spec):
    tables = {**spec.products, **spec.higher}
    return [
        (key, src, out) for key, table in tables.items()
        for src, row in table.items() for out in row
    ]


def _doubled(spec, key, src, out):
    bad = copy.copy(spec)
    bad.products, bad.higher = dict(spec.products), dict(spec.higher)
    tables = bad.products if key in bad.products else bad.higher
    tables[key] = {s: dict(r) for s, r in tables[key].items()}
    tables[key][src][out] *= 2
    return bad


def _failing(spec, key, relations):
    """The checker's failing windows, evaluating the relations that involve key.

    The others keep the base document's tables, where every relation holds,
    so the order is that of `relations.failing_relations`.
    """
    tables = {**spec.products, **spec.higher}
    return [
        window for window, pairs in relations.items()
        if any(key in pair[1:3] for pair in pairs)
        and rel.relation_map(tables, pairs, QQ)
    ]


def test_square_zero_oracle_composes_every_degree():
    # a fresh complex has built no d_t: the oracle builds each one it reads
    cx = nhh.assemble_differential(fixtures.fixture_spec("beilinson_p3"))
    assert not cx.diffs
    assert check_square_zero(cx) == 2  # d_1 . d_0 and d_2 . d_1


def _refusals(spec):
    """(the assembly's refusal message or None, whether the oracle refuses)."""
    try:
        nhh.assemble_differential(spec)
        message = None
    except nhh.DifferentialError as exc:
        message = str(exc)
    try:
        check_square_zero(nhh.assemble_differential(spec, check=False))
    except nhh.DifferentialError:
        return message, True
    return message, False


@pytest.mark.parametrize("name, entries, sample", [
    ("beilinson_p2", 135, 135),
    ("beilinson_p3", 1424, 100),
])
def test_checker_and_oracle_refuse_every_doubled_entry(name, entries, sample):
    # the checker judges every entry; the assembly and the oracle a sample
    base = _spec(name)
    assert rel.failing_relations({**base.products, **base.higher}, QQ) == []
    relations = rel.relations({**base.products, **base.higher})
    cases = _entries(base)
    assert len(cases) == entries
    sampled = set(random.Random(3).sample(range(entries), sample))
    for k, (key, src, out) in enumerate(cases):
        bad = _doubled(base, key, src, out)
        failing = _failing(bad, key, relations)
        assert failing, (key, src, out)
        if k in sampled:
            message, oracle = _refusals(bad)
            assert oracle, (key, src, out)
            assert message.startswith("d.d != 0: the A-infinity relation fails on ")
            assert rel.describe(failing[0][0]) in message


def test_neither_refuses_entries_that_act_on_no_relation():
    cases = 0
    for name in ["beilinson_p1", "beauville_I0", "arity3.json"]:
        base = _spec(name)
        relations = rel.relations({**base.products, **base.higher})
        for key, src, out in _entries(base):
            bad = _doubled(base, key, src, out)
            assert not _failing(bad, key, relations)
            assert _refusals(bad) == (None, False)
            cases += 1
    assert cases == 15


# -- every block of d . d is a relation tensored with the identity -------------


def _with_arity_three(spec, rng):
    """The spec plus random tables on up to two arity-3 windows of its terms.

    A missing target space of such a window is added with dimension 1 or 2.
    """
    windows = set()
    for term in nhh.enumerate_terms(spec):
        letters = term.letters()
        for consumed, _ in nhh._windows(term.p, 3):
            if len(consumed) == 3:
                windows.add(pr.window_key([letters[i] for i in consumed]))
    for key in rng.sample(sorted(windows), min(2, len(windows))):
        kind, i, j, deg = pr.target_space(key)
        space = (spec.a_dims if kind == "A" else spec.n_dims).setdefault((i, j), {})
        out_dim = space.setdefault(deg, rng.randint(1, 2))
        dims = [spec.space_dim(*x) for x in pr.source_spaces(key)]
        table = {}
        for _ in range(3):
            src = tuple(rng.randrange(d) for d in dims)
            table.setdefault(src, {})[rng.randrange(out_dim)] = rng.choice([1, -1, 2])
        spec.higher[key] = table
    return spec


def _d_squared_blocks(cx):
    """The oracle: d_{t+1} . d_t cut into (source term, target term) blocks."""
    blocks = {}
    for t in cx.t_dims:
        first, second = d_matrix(cx, t), d_matrix(cx, t + 1)
        cols = [(cx.term_offset(tm), tm) for tm in cx.by_t[t]]
        rows = [(cx.term_offset(tm), tm) for tm in cx.by_t.get(t + 2, ())]
        for (r, c), v in second.compose(first).entries.items():
            s_off, s = max((o, tm) for o, tm in cols if o <= c)
            t_off, tt = max((o, tm) for o, tm in rows if o <= r)
            blocks.setdefault((s, tt), {})[(r - t_off, c - s_off)] = v
    return blocks


def _index(dims, digits):
    out = 0
    for d, x in zip(dims, digits):
        out = out * d + x
    return out


def _tensored(source, target, window, rel_map):
    """A relation map on window letters of source, with the identity elsewhere."""
    s_letters, t_letters = source.letters(), target.letters()
    at = {x: i for i, x in enumerate(s_letters)}
    kept = [i for i, x in enumerate(s_letters) if x not in window]
    out_pos = next(i for i, x in enumerate(t_letters) if x not in s_letters)
    block = {}
    for rest in itertools.product(*[range(source.factor_dims[i]) for i in kept]):
        for inp, row in rel_map.items():
            digits = [0] * len(s_letters)
            for x, b in zip(window, inp):
                digits[at[x]] = b
            for i, b in zip(kept, rest):
                digits[i] = b
            col = _index(source.factor_dims, digits)
            for o, v in row.items():
                t_digits = list(rest)
                t_digits.insert(out_pos, o)
                block[(_index(target.factor_dims, t_digits), col)] = v
    return block


def test_each_block_of_d_squared_is_a_relation_map():
    rng = random.Random(2026)
    checked = 0
    for _ in range(200):
        spec = _with_arity_three(_specgen.random_spec(rng, n=rng.randint(3, 5)), rng)
        tables = {**spec.products, **spec.higher}
        relations = {
            (frozenset(window), out): (window, pairs)
            for (window, out), pairs in rel.relations(tables).items()
        }
        cx = nhh.assemble_differential(spec, check=False)
        oracle = _d_squared_blocks(cx)
        expected = {}
        lookup = cx.term_lookup
        for s in (tm for tms in cx.by_t.values() for tm in tms):
            letters = s.letters()
            for b1, (consumed, out_pos) in nhh._term_blocks(spec, s, lookup):
                kept = [i for i in range(s.p + 1) if i not in consumed]
                kept.insert(out_pos, None)  # word positions of s, by place in b1.target
                for b2, (consumed2, _) in nhh._term_blocks(spec, b1.target, lookup):
                    if out_pos not in consumed2:
                        continue  # disjoint pairs cancel
                    covered = set(consumed) | {kept[k] for k in consumed2} - {None}
                    window = frozenset(letters[i] for i in covered)
                    relation = (window, pr.target_space(b2.key))
                    assert expected.setdefault((s, b2.target), relation) == relation
        for (s, t), (window, out) in expected.items():
            ordered, pairs = relations[(window, out)]
            want = _tensored(s, t, ordered, rel.relation_map(tables, pairs, cx.field))
            got = oracle.pop((s, t), {})
            assert got == want or got == {k: -v for k, v in want.items()}, (s, t)
            checked += bool(want)
        assert not oracle  # no other block of d . d is nonzero
    assert checked > 100
