"""Exact NOT_FULL inputs: sub-collections of the Beilinson collections.

A proper subset of O, O(1), ..., O(m) on P^m is exceptional but not full, so
its normal cohomology starts in a positive degree, the height.  Each row
pins the height and the nonzero normal cohomology dims of one restriction,
over Q and F_1009, that `fullness` answers NOT_FULL from the height, and
that its walk built and reduced no degree above the height.  On a prefix
E_1..E_k the height is m + 1 - k and NHH^t = HH^t(P^m) from the height on,
which HKR and Bott give in closed form: C(m + 1 + t, t) * C(m, t).
"""

from math import comb

import pytest

from _restrict import restrict
from excol.documents import beilinson_fixture
from excol.fixtures import fixture_spec
from excol.heights import Analysis, Height
from excol.model import INF, ZERO, validate

# (m of P^m, the kept objects, height, nonzero NHH dims)
TABLE = [
    (2, {1}, 2, {2: 10}),
    (2, {1, 2}, 1, {1: 8, 2: 10}),
    (3, {1, 2}, 2, {2: 45, 3: 35}),
    (3, {1, 3}, 2, {2: 65, 3: 35}),
    (4, {1, 2, 3}, 2, {2: 126, 3: 224, 4: 126}),
    (4, {1, 2, 3, 4}, 1, {1: 24, 2: 126, 3: 224, 4: 126}),
    (4, {1, 3, 5}, 2, {2: 201, 3: 224, 4: 126}),
]


@pytest.mark.parametrize("field", ["Q", "F1009"])
@pytest.mark.parametrize(
    "m, keep, height, nhh", TABLE,
    ids=[f"P{m}-{''.join(map(str, sorted(keep)))}" for m, keep, _, _ in TABLE],
)
def test_sub_collection(m, keep, height, nhh, field):
    spec = restrict(beilinson_fixture(m + 1), keep)
    spec.field_name = field
    assert validate(spec).ok
    analysis = Analysis(spec)
    assert tuple(analysis.fullness) == ("NOT_FULL", f"height lower bound {height} > 0")
    cx = analysis.complex
    # the walk stopped at the height (through -inf reduces nothing more)
    assert max(cx.diffs) == height
    assert set(cx.reduction(-INF).pairs) == set(cx.diffs)
    assert analysis.height == Height(height, height)
    assert {t: d for t, d in analysis.cohomology.items() if d} == nhh
    if keep == set(range(1, len(keep) + 1)):  # a prefix
        assert height == m + 1 - len(keep)
        assert nhh == {t: comb(m + 1 + t, t) * comb(m, t) for t in range(height, m + 1)}


def test_restriction_reindexes_every_record():
    spec = restrict(beilinson_fixture(4), {2, 4})
    assert spec.n == 2 and spec.labels == ["O(1)", "O(3)"]
    assert spec.a_dims == {(1, 2): {0: 10}}  # S^2 of four linear forms
    assert spec.n_dims == {(1, 1): {3: 35}, (1, 2): {3: 10}, (2, 2): {3: 35}}
    objects = {x for key in spec.products for x in (*key[2], key[1]) if x is not None}
    assert objects == {1, 2} and spec.fullness_data is None
    with pytest.raises(ValueError):
        restrict(spec, {3})
    # statuses: dst = n + i names E_i twisted by -K, on both sides
    surface = restrict(fixture_spec("burniat"), {2, 6})
    assert surface.canonical_degrees == [3, 0]
    assert surface.qualitative.statuses == {
        (1, 2, 1): ZERO, (1, 3, 1): ZERO, (2, 4, 1): ZERO,
    }
