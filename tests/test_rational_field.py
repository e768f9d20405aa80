"""Q as ints-first against the all-Fraction reference field.

`exactlin.QQ` stores a rational as an int whenever it is integral.  Every
answer the engine derives over it (the failing A-infinity relations, the
assembly, the d.d verdict of `_dd_oracle`, the reduction, the pages, the
cohomology, the survivors and the fullness verdict) must equal the answer
over `_fraction_field.FRACTIONS`, and no float may appear.
The `_specgen` draws carry basis rescalings by 1/2 and -1/3, so their
reductions meet pivots other than +-1 and take the Fraction branch.
"""

import copy
import os
import random
from fractions import Fraction

import pytest

from excol import exactlin, heights, nhh
from excol import relations as rel
from excol.exactlin import QQ
from excol.documents import beilinson_fixture
from excol.fixtures import FIXTURE_NAMES, fixture_spec
from excol.model import parse

from _dd_oracle import assemble_unchecked, check_square_zero
from _matrices import d_matrix
from _fraction_field import FRACTIONS
from _specgen import random_spec

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
EXACT = [name for name in FIXTURE_NAMES if fixture_spec(name).is_exact]
DRAWS = 200


def _data_spec(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return parse(fh.read())


def _corrupted(spec):
    """The spec with its first product coefficient doubled, or None."""
    if not spec.products:
        return None
    bad = copy.deepcopy(spec)
    key = min(bad.products)
    row = bad.products[key][min(bad.products[key])]
    out = min(row)
    row[out] = row[out] * 2
    return bad


def _outcome(spec):
    """Every stage the engine derives from spec, over the field in use."""
    tables = {**spec.products, **spec.higher}
    relations = rel.failing_relations(tables, nhh.field_by_name(spec.field_name))
    cx = assemble_unchecked(spec)
    try:
        check_square_zero(cx)
        dd = None
    except nhh.DifferentialError as exc:
        dd = str(exc)
    out = {
        "t_dims": cx.t_dims,
        "diffs": {t: d_matrix(cx, t).entries for t in cx.t_dims},
        "dd": dd,
        "relations": relations,
    }
    if dd is not None:
        return out
    red = cx.reduction()
    ss = nhh.spectral_sequence(cx)
    analysis = heights.Analysis(spec)
    analysis.complex = cx  # the cached stage: d.d is checked above
    verdict = analysis.fullness
    out.update(
        pairs=red.pairs,
        columns={t: (red.image[t], red.cycles[t]) for t in cx.t_dims},
        pages=(ss.pages, ss.infinity, ss.stable_page),
        cohomology=nhh.total_cohomology(cx),
        survivors={key: ss.survivors(*key) for key in ss.pages[1]},
        fullness=(verdict.status, verdict.evidence),
    )
    return out


def _scalars(outcome):
    """Every scalar of the differentials, the reduced columns and the cocycles."""
    for entries in outcome["diffs"].values():
        yield from entries.values()
    for image, cycles in outcome.get("columns", {}).values():
        for col in image.values():
            yield from col.values()
        for chain in cycles.values():
            yield from chain.values()


def _assert_agrees(spec, monkeypatch):
    ints_first = _outcome(spec)
    with monkeypatch.context() as m:
        m.setattr(nhh, "field_by_name", lambda name: FRACTIONS)
        reference = _outcome(spec)
    assert ints_first == reference
    assert all(type(v) is Fraction for v in _scalars(reference))
    for v in _scalars(ints_first):
        # canonical: an int when integral, a Fraction only otherwise
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v
    return ints_first


def _cases():
    specs = [(name, fixture_spec(name)) for name in EXACT]
    specs += [(name, _data_spec(name)) for name in ("arity3.json", "sparse15.json")]
    specs += [(f"{name}-corrupted", _corrupted(spec)) for name, spec in specs]
    return [(name, spec) for name, spec in specs if spec is not None]


@pytest.mark.parametrize("name, spec", _cases(), ids=[n for n, _ in _cases()])
def test_fixture_outcomes_match_the_fraction_field(name, spec, monkeypatch):
    outcome = _assert_agrees(spec, monkeypatch)
    if not name.endswith("-corrupted"):
        assert outcome["dd"] is None


def test_random_draws_match_the_fraction_field(monkeypatch):
    rng = random.Random(20261018)
    non_unit_pivots = 0
    for _ in range(DRAWS):
        outcome = _assert_agrees(random_spec(rng), monkeypatch)
        non_unit_pivots += any(type(v) is Fraction for v in _scalars(outcome))
    assert non_unit_pivots > 0


def test_inverse_is_exact():
    assert QQ.inv(2) == Fraction(1, 2)
    assert QQ.inv(Fraction(1, 2)) == 2 and type(QQ.inv(Fraction(1, 2))) is int
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.mul(Fraction(1, 2), 2) == 1 and type(QQ.mul(Fraction(1, 2), 2)) is int
    assert type(QQ.of("6/3")) is int and QQ.of("-1/3") == Fraction(-1, 3)
    with pytest.raises(exactlin.ExactLinError):
        QQ.of(0.5)


def test_beilinson_p3_runs_on_ints():
    """Integral data stays int from the tables through the reduction."""
    spec = beilinson_fixture(4)
    cx = nhh.assemble_differential(spec)
    entries = [v for t in cx.t_dims for v in d_matrix(cx, t).entries.values()]
    assert entries and all(type(v) is int for v in entries)
    red = cx.reduction()
    columns = [
        v
        for t in cx.t_dims
        for vectors in (red.image[t], red.cycles[t])
        for col in vectors.values()
        for v in col.values()
    ]
    assert columns and all(type(v) is int for v in columns)
