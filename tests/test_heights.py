import random
from collections import Counter

import pytest

import _specgen
from excol import fixtures
from excol.heights import (
    Analysis,
    Height,
    build_report,
    comparison_report,
    height,
    heph_shortcut,
)
from excol.model import INF, NONZERO, ZERO, CollectionSpec, link_key
from excol.nhh import assemble_differential, total_cohomology
from excol.pseudoheight import pseudoheight, qualitative_ph_bounds
from excol.qualitative import QualitativeExtTable


def _length_zero_toy():
    # the minimum sits on single-object chains, pinned by the diagonal
    # twisted spaces; the pair chain ties but loses to the shorter witness
    return CollectionSpec(
        n=2, dim_x=0,
        a_dims={(1, 2): {1: 1}},
        n_dims={(1, 1): {2: 1, 3: 1}, (2, 2): {2: 1}, (1, 2): {2: 1}},
    )


def test_shortcut_fires_on_length_zero_witness():
    spec = _length_zero_toy()
    assert heph_shortcut(spec) == 2
    assert Analysis(spec).used_shortcut == "heph"


def test_shortcut_agrees_with_full_computation():
    spec = _length_zero_toy()
    h, nhh = height(spec)
    assert (h.lo, h.hi) == (2, 2)
    assert heph_shortcut(spec) == h.lo
    assert min(t for t, d in total_cohomology(assemble_differential(spec)).items()
               if d) == 2


def test_shortcut_fires_on_pinned_qualitative_bounds():
    # burniat: anticanonical interval [2, 2] on a length-0 chain, dim_x = 2
    assert heph_shortcut(fixtures.fixture_spec("burniat")) == 4


def test_analysis_computes_each_stage_once():
    a = Analysis(fixtures.fixture_spec("beilinson_p1"))
    assert a.complex is a.complex and a.pages is a.pages
    assert a.height is a.height and a.fullness is a.fullness
    assert (a.height.lo, a.cohomology) == (0, {0: 1, 1: 3})
    assert a.fullness.status == "FULL"
    assert a.bounds.witness_chain == (1, 2)
    assert a.used_shortcut == "none"


@pytest.mark.parametrize("field", ["Q", "F1009"])
def test_height_walk_matches_the_full_reduction(field):
    # the walk stops at the first surviving cocycle; a fresh complex reduces
    # every degree, and its least nonzero degree m must be the height
    rng = random.Random(2028)
    seen = Counter()
    for _ in range(300):
        spec = _specgen.random_spec(rng)
        spec.field_name = field
        dims = total_cohomology(assemble_differential(spec))
        m = min((t for t, d in dims.items() if d), default=INF)
        a = Analysis(spec)
        assert a.height == Height(m, m), spec
        assert (a.fullness.status == "NOT_FULL") == (0 < m < INF), spec
        seen[a.fullness.status, m == INF] += 1
    # the draws reach no cohomology, a positive height and a height <= 0
    assert set(seen) == {
        ("INCONCLUSIVE", True), ("NOT_FULL", False), ("INCONCLUSIVE", False)
    }


def _built(cx):
    """(the degrees whose d_t is assembled, the degrees reduced).

    A reduction through -inf reduces nothing more: it only reads the state.
    """
    return set(cx.diffs), set(cx.reduction(-INF).pairs)


def test_fullness_builds_only_the_degrees_it_reads():
    # a full collection: the height is 0, so d_0 and T^0 are all it needs
    a = Analysis(fixtures.fixture_spec("beilinson_p3"))
    assert a.fullness.status == "FULL"
    assert _built(a.complex) == ({0}, {0})
    # the cohomology reads every degree, and extends the same reduction
    assert a.cohomology == {0: 1, 1: 15, 2: 45, 3: 35}
    degrees = set(a.complex.t_dims)
    assert degrees == {0, 1, 2, 3} and _built(a.complex) == (degrees, degrees)


def test_analysis_qualitative_has_no_complex_data():
    a = Analysis(fixtures.fixture_spec("burniat"))
    assert a.cohomology is None
    assert a.used_shortcut == "qualitative"
    assert a.fullness.status == "NOT_FULL"


def test_shortcut_silent_on_longer_witness():
    assert heph_shortcut(fixtures.fixture_spec("beilinson_p1")) is None


def test_height_projective_line():
    h, nhh = height(fixtures.fixture_spec("beilinson_p1"))
    assert h.is_point and h.lo == 0
    assert nhh == {0: 1, 1: 3}


def test_height_beauville_exact():
    h, _ = height(fixtures.fixture_spec("beauville_I0"))
    assert (h.lo, h.hi) == (4, 4)


def test_height_godeaux_exact():
    h, _ = height(fixtures.fixture_spec("godeaux"))
    assert (h.lo, h.hi) == (4, 4)


def test_height_burniat_qualitative():
    h, _ = height(fixtures.fixture_spec("burniat"))
    assert (h.lo, h.hi) == (4, 4)


def test_height_degenerate_vanishing():
    spec = CollectionSpec(n=2, dim_x=0, a_dims={(1, 2): {0: 1}}, n_dims={})
    h, nhh = height(spec)
    assert h == Height(INF, INF)
    assert nhh == {}


def test_height_interval_when_truncated_without_witness():
    # truncated higher products and no column-zero class at the minimum:
    # only the lower bound is trusted
    spec = CollectionSpec(
        n=2, dim_x=0,
        a_dims={(1, 2): {0: 1}},
        n_dims={(1, 2): {1: 1}},
        flags={"higher_products_complete": False},
    )
    h, _ = height(spec)
    assert h.lo == 0 and h.hi == INF


def hkr_total(h_table):
    """Collapse a Hodge-type table (q, p) -> h^q(Lambda^p T) to total dims."""
    if not h_table:
        return []
    top = max(q + p for (q, p) in h_table)
    out = [0] * (top + 1)
    for (q, p), d in h_table.items():
        out[q + p] += d
    return out


def test_hkr_total_projective_line():
    assert hkr_total({(0, 0): 1, (0, 1): 3}) == [1, 3]


def test_hkr_total_empty():
    assert hkr_total({}) == []


def test_hkr_total_connected_unit():
    assert hkr_total({(0, 0): 1}) == [1]


def test_comparison_report_beauville():
    spec = fixtures.fixture_spec("beauville_I0")
    rep = build_report(spec, hoh_x_dims=[1, 0, 0, 6, 9])
    assert Analysis(spec).height.lo == 4
    assert rep.iso_range == 2
    assert rep.mono_degree == 3
    assert rep.hoh_a_dims == [1, 0, 0, None, None]
    assert rep.deformation_equivalent


def test_comparison_report_height_zero_is_vacuous():
    spec = fixtures.fixture_spec("beilinson_p1")
    rep = build_report(spec, hoh_x_dims=[1, 3])
    assert rep.iso_range == -2
    assert rep.mono_degree == -1
    assert rep.hoh_a_dims == [None, None]
    assert not rep.deformation_equivalent


def test_comparison_report_monotone_in_height():
    ranges = []
    for lo in range(0, 6):
        rep = comparison_report(Height(lo, lo), [1, 1, 1, 1, 1, 1])
        ranges.append(rep.iso_range)
    assert ranges == sorted(ranges)


def test_burniat_report_flags():
    spec = fixtures.fixture_spec("burniat")
    a, rep = Analysis(spec), build_report(spec)
    assert a.used_shortcut == "qualitative"
    assert a.bounds.ph_ac == 2 and a.bounds.ph(spec.dim_x) == 4
    assert a.height.lo == 4 and a.height.shifted(spec.dim_x).lo == 2
    assert rep.deformation_equivalent
    assert rep.iso_range == 2 and rep.mono_degree == 3


def test_godeaux_report_uses_exact_route():
    a = Analysis(fixtures.fixture_spec("godeaux"))
    assert a.bounds.ph(a.spec.dim_x) == 3 and a.bounds.ph_ac == 1
    assert a.height.lo == 4
    assert a.bounds.witness_chain == (2, 3)
    assert a.used_shortcut == "none"


def test_pseudoheight_bounds_height_on_fixtures():
    from excol.pseudoheight import pseudoheight

    for name in ["point", "beilinson_p1", "beilinson_p2", "godeaux",
                 "beauville_I0"]:
        spec = fixtures.fixture_spec(name)
        h, _ = height(spec)
        assert pseudoheight(spec).ph(spec.dim_x) <= h.lo


def _abstraction(spec, rng, drop):
    """The exact spec's dims as statuses, without the dims.

    Every link key at every degree of the window gets the status its dims
    give; the window spans the nonzero degrees, widened by 0 or 1 at each
    end, and a share `drop` of the statuses is left out (UNKNOWN).
    """
    nonzero = set()
    for kind, spaces in (("A", spec.a_dims), ("N", spec.n_dims)):
        for (i, j), dims in spaces.items():
            src, dst, shift = link_key(spec, kind, i, j)
            nonzero.update((src, dst, d - shift) for d, m in dims.items() if m > 0)
    degrees = [deg for _, _, deg in nonzero] or [0]
    window = (min(degrees) - rng.randint(0, 1), max(degrees) + rng.randint(0, 1))
    n = spec.n
    links = [link_key(spec, "A", i, j)[:2] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    links += [link_key(spec, "N", i, j)[:2] for i in range(1, n + 1) for j in range(i, n + 1)]
    statuses = {
        (src, dst, deg): NONZERO if (src, dst, deg) in nonzero else ZERO
        for src, dst in links for deg in range(window[0], window[1] + 1)
    }
    for key in rng.sample(sorted(statuses), round(drop * len(statuses))):
        del statuses[key]
    return CollectionSpec(n, spec.dim_x, qualitative=QualitativeExtTable(n, statuses, window))


def test_three_valued_bounds_stay_below_the_exact_route():
    # the qualitative NOT_FULL verdicts rest on lower + dim_x <= height
    rng = random.Random(12)
    positive = 0
    for _ in range(300):
        exact = _specgen.random_spec(rng)
        ph_ac, height_lo = pseudoheight(exact).ph_ac, Analysis(exact).height.lo
        for drop in (0, 0.3, 0.7):
            lower = qualitative_ph_bounds(_abstraction(exact, rng, drop)).lower
            assert lower <= ph_ac and lower + exact.dim_x <= height_lo
            positive += lower > 0
    assert positive > 100
