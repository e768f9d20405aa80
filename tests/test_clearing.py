"""Clearing in the filtered reduction, against a reduction of every column.

`nhh.FilteredReduction` reduces d_t in increasing t and skips each column of
d_t that is the low row of a reduced column of d_{t-1} (the twist of Chen and
Kerber).  Such a column reduces to zero, so the pairs must equal those
of `nhh._reduce` run on every column of every T^t.  Checked over Q and
F_1009 on the exact fixtures, the two data documents, random `_specgen`
draws and the planted complexes of `test_ss_oracle`.
"""

import os
import random

import pytest

import _specgen
from _matrices import columns, d_matrix
from excol import nhh
from excol.fields import field_by_name
from excol.fixtures import FIXTURE_NAMES, fixture_spec
from excol.model import parse
from test_ss_oracle import _planted_complex

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
EXACT = [name for name in FIXTURE_NAMES if fixture_spec(name).is_exact]
FIELDS = ["Q", "F1009"]
DRAWS = 200
PLANTED = 60


def _uncleared(cx):
    """The pairs of a reduction that visits every column of every T^t."""
    return {t: nhh._reduce(cx, t)[0] for t in cx.t_dims}


def _assert_clearing_agrees(cx, label):
    assert cx.reduction().pairs == _uncleared(cx), label


def _complex(spec, field):
    spec.field_name = field
    return nhh.assemble_differential(spec)


def _data_spec(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return parse(fh.read())


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", EXACT + ["arity3.json", "sparse15.json"])
def test_documents(name, field):
    spec = _data_spec(name) if name.endswith(".json") else fixture_spec(name)
    _assert_clearing_agrees(_complex(spec, field), name)


@pytest.mark.parametrize("field", FIELDS)
def test_random_draws(field):
    rng = random.Random(20261019)
    for k in range(DRAWS):
        _assert_clearing_agrees(_complex(_specgen.random_spec(rng), field), f"draw {k}")


def _over(cx, field):
    """The complex cx with its differential's entries read in another field."""
    fld = field_by_name(field)
    for t in cx.t_dims:
        mat = d_matrix(cx, t)
        mat.field = fld
        mat.entries = {k: v for k, v in ((k, fld.of(v)) for k, v in mat.entries.items()) if v}
        cx.diffs[t] = columns(mat)
    cx.field = fld
    return cx


@pytest.mark.parametrize("field", FIELDS)
def test_planted_complexes(field):
    rng = random.Random(5)
    for k in range(PLANTED):
        cx, _ = _planted_complex(rng)
        _assert_clearing_agrees(_over(cx, field), f"planted {k}")


def test_beilinson_p3_clears_columns(monkeypatch):
    """The reduction behind every verdict on P^3 really skips columns."""
    skipped = []
    reduce_all = nhh._reduce

    def spy(cx, t, cleared=()):
        skipped.extend(cleared)
        return reduce_all(cx, t, cleared)

    monkeypatch.setattr(nhh, "_reduce", spy)
    cx = nhh.assemble_differential(fixture_spec("beilinson_p3"))
    pairs = cx.reduction().pairs
    assert skipped
    # exactly the low rows of the reduced columns one degree down
    assert len(skipped) == sum(len(pairs[t]) for t in pairs if t + 1 in pairs)


def _columns_after_reduction(make):
    """({t: d_t} read after a full reduction, {t: d_t} of a fresh complex)."""
    reduced, fresh = make(), make()
    reduced.reduction()
    return ({t: reduced.differential(t) for t in reduced.t_dims},
            {t: fresh.differential(t) for t in fresh.t_dims})


@pytest.mark.parametrize("name", ["beilinson_p3", "arity3.json"])
def test_the_reduction_leaves_each_d_t_as_built(name):
    # the reduction reads the cached columns and copies one before editing it
    spec = _data_spec(name) if name.endswith(".json") else fixture_spec(name)
    after, built = _columns_after_reduction(lambda: nhh.assemble_differential(spec))
    assert any(after.values()) and after == built


def test_the_reduction_leaves_planted_columns_as_built():
    for k in range(PLANTED):
        after, built = _columns_after_reduction(
            lambda: _planted_complex(random.Random(k))[0])
        assert after == built, f"planted {k}"
