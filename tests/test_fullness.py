import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from excol import FIXTURE_NAMES, fixtures
from excol.exactlin import Matrix, Subspace, kernel_basis
from excol.fixtures import antisymmetrizer_line, beilinson_fixture
from excol.fullness import FULL, INCONCLUSIVE, NOT_FULL, full_check, not_full_check
from excol.heights import Height, height
from excol.model import Cochain, CollectionSpec, SpecError, parse, validate
from excol.nhh import assemble_differential, spectral_sequence
from excol.pseudoheight import pseudoheight


def test_not_full_fires_on_positive_height():
    h, _ = height(fixtures.fixture_spec("burniat"))
    verdict = not_full_check(h)
    assert verdict is not None and verdict.status == NOT_FULL


def test_not_full_silent_at_height_zero():
    h, _ = height(fixtures.fixture_spec("beilinson_p1"))
    assert not_full_check(h) is None


def test_not_full_silent_on_weak_interval():
    assert not_full_check(Height(0, 2)) is None


def test_full_certificate_projective_line():
    verdict = full_check(fixtures.fixture_spec("beilinson_p1"))
    assert verdict.status == FULL


def test_full_certificate_projective_plane():
    verdict = full_check(fixtures.fixture_spec("beilinson_p2"))
    assert verdict.status == FULL


def test_full_check_rejects_symmetric_candidate():
    spec, pairing, _ = beilinson_fixture(2)
    xx = Cochain([((1, 2), (0, 1), {0: Fraction(1)})])  # x (x) x: symmetric
    verdict = full_check(spec, xi=xx, pairing=pairing)
    assert verdict.status == INCONCLUSIVE
    assert "not a cocycle" in verdict.evidence


def test_full_check_rejects_zero_candidate():
    spec, pairing, _ = beilinson_fixture(2)
    zero = Cochain([((1, 2), (0, 1), {})])
    assert full_check(spec, xi=zero, pairing=pairing).status == INCONCLUSIVE


def test_full_check_rejects_wrong_bidegree():
    spec, pairing, _ = beilinson_fixture(2)
    bad = Cochain([((1,), (1,), {0: Fraction(1)})])  # total degree 1
    with pytest.raises(SpecError):
        full_check(spec, xi=bad, pairing=pairing)


def test_full_check_rejects_mixed_chain_lengths():
    spec, pairing, xi = beilinson_fixture(2)
    mixed = Cochain(xi.terms + [((1,), (1,), {0: Fraction(1)})])
    with pytest.raises(SpecError):
        full_check(spec, xi=mixed, pairing=pairing)


def test_full_check_rejects_candidate_below_deepest_survivor():
    # with no products at all the pair-chain class survives, so a candidate
    # on the length-0 chain is not at the deepest surviving column
    spec = CollectionSpec(
        n=2, dim_x=0,
        a_dims={(1, 2): {0: 1}},
        n_dims={(1, 1): {0: 1}, (1, 2): {1: 1}},
    )
    xi = Cochain([((1,), (0,), {0: Fraction(1)})])
    pairing = {1: Cochain([((1,), (0,), {0: Fraction(1)})])}
    with pytest.raises(SpecError) as err:
        full_check(spec, xi=xi, pairing=pairing)
    assert "deepest" in str(err.value) or "survives" in str(err.value)


def test_full_check_rejects_misanchored_pairing():
    spec, _, xi = beilinson_fixture(2)
    bad = {2: Cochain([((1, 2), (0, 1), {0: Fraction(1)})])}
    with pytest.raises(SpecError):
        full_check(spec, xi=xi, pairing=bad)


def test_full_check_without_certificate_data():
    spec = fixtures.fixture_spec("godeaux")
    assert full_check(spec).status == INCONCLUSIVE


def test_full_check_vanishing_pairing():
    spec, _, xi = beilinson_fixture(2)
    dead = {1: Cochain([((1, 2), (0, 1), {})])}
    verdict = full_check(spec, xi=xi, pairing=dead)
    assert verdict.status == INCONCLUSIVE
    assert "vanish" in verdict.evidence


def test_full_check_scale_invariant():
    spec, pairing, xi = beilinson_fixture(2)
    scaled = Cochain([(c, d, {i: 7 * v for i, v in vals.items()})
                      for c, d, vals in xi.terms])
    assert full_check(spec, xi=scaled, pairing=pairing).status == FULL


def _symmetrization_kernel(n):
    """Oracle: cut V^(x)n by all n cyclic-adjacent symmetrization maps,
    built directly from tensor indices (no engine code)."""
    dim = n**n
    stride = [n ** (n - 1 - i) for i in range(n)]
    rows = []
    for s in range(n):  # symmetrize slots s, s+1 mod n
        pairs = {}
        for combo in itertools.product(range(n), repeat=n):
            src = sum(c * st for c, st in zip(combo, stride))
            a, b = combo[s], combo[(s + 1) % n]
            rest = tuple(combo[k] for k in range(n) if k not in (s, (s + 1) % n))
            key = (tuple(sorted((a, b))), rest)
            pairs.setdefault(key, []).append(src)
        for sources in pairs.values():
            row = {}
            for src in sources:
                row[src] = row.get(src, Fraction(0)) + 1
            rows.append(row)
    m = Matrix.zero(len(rows), dim)
    for r, row in enumerate(rows):
        for c, v in row.items():
            m[r, c] = v
    return kernel_basis(m)


@pytest.mark.parametrize("n", [2, 3])
def test_degree_zero_survivors_are_the_antisymmetric_line(n):
    spec, _, _ = beilinson_fixture(n)
    cx = assemble_differential(spec)
    ss = spectral_sequence(cx)
    mp = -(n - 1)
    assert ss.infinity.get((mp, n - 1)) == 1
    z, border = ss.survivors(mp, n - 1)
    assert border.dim == 0
    oracle = _symmetrization_kernel(n)
    assert z.dim == oracle.dim == 1
    assert z.contains(antisymmetrizer_line(n))
    assert oracle.contains(antisymmetrizer_line(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_projective_fixture_dimensions(n):
    spec, _, _ = beilinson_fixture(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assert spec.a_space(i, j) == {0: comb(j - i + n - 1, n - 1)}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            assert spec.n_space(i, j) == {n - 1: comb(i + n - j + n - 1, n - 1)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projective_fixture_pseudoheight_zero_on_full_chain(n):
    spec, _, _ = beilinson_fixture(n)
    res = pseudoheight(spec)
    assert res.value == 0
    assert res.witness == tuple(range(1, n + 1))


def test_projective_fixture_range_checked():
    with pytest.raises(SpecError):
        beilinson_fixture(1)
    with pytest.raises(SpecError):
        beilinson_fixture(7)


def test_pairing_value_is_n_factorial():
    for n in (2, 3):
        spec, pairing, xi = beilinson_fixture(n)
        verdict = full_check(spec, xi=xi, pairing=pairing)
        assert verdict.status == FULL
        assert str(factorial(n)) in verdict.evidence


def test_point_certificate():
    assert full_check(fixtures.fixture_spec("point")).status == FULL


def test_verdicts_are_mutually_exclusive_on_fixtures():
    for name in FIXTURE_NAMES:
        spec = fixtures.fixture_spec(name)
        h, _ = height(spec)
        not_full = not_full_check(h)
        if not spec.is_exact:
            continue
        full = full_check(spec)
        assert not (not_full is not None and full.status == FULL)


# two twisted loops and one pair chain whose differential is nonzero: T^{-1}
# is spanned by the pair-chain generator g, and d g is a coboundary in T^0
COBOUNDARY_DOCUMENT = {
    "n": 2, "dim_x": 0,
    "ext": [{"src": 1, "dst": 2, "deg": 0, "dim": 1}],
    "serre_ext": [
        {"twist_src": 1, "from": 1, "deg": 0, "dim": 1},
        {"twist_src": 2, "from": 2, "deg": 0, "dim": 1},
        {"twist_src": 1, "from": 2, "deg": 0, "dim": 1},
    ],
    "products": [
        {"kind": "AN", "twist_src": 1, "chain": [1, 2], "degs": [0, 0],
         "entries": [[0, 0, 0, "1"]]},
        {"kind": "NA", "from": 2, "chain": [1, 2], "degs": [0, 0],
         "entries": [[0, 0, 0, "1"]]},
    ],
}


def test_full_check_rejects_pairing_that_sees_coboundaries():
    spec = parse(COBOUNDARY_DOCUMENT)
    assert validate(spec).ok
    cx = assemble_differential(spec)
    dg = cx.differential(-1).apply({0: Fraction(1)})
    xi = Cochain([
        (tm.chain, tm.degs, {0: dg[cx.term_offset(tm)]})
        for tm in cx.by_t[0] if cx.term_offset(tm) in dg
    ])
    pairing = {1: Cochain([((1,), (0,), {0: Fraction(1)})])}
    with pytest.raises(SpecError, match="coboundaries"):
        full_check(spec, xi=xi, pairing=pairing, cx=cx)


def test_full_check_rejects_pairing_outside_degree_zero():
    # the pairing's only term lives in T^{-1}; its offset 0 must not be read
    # as the offset-0 coordinate of T^0, where xi sits
    spec = parse(COBOUNDARY_DOCUMENT)
    xi = Cochain([((1,), (0,), {0: Fraction(1)})])
    pairing = {1: Cochain([((1, 2), (0, 0), {0: Fraction(1)})])}
    with pytest.raises(SpecError, match="want 0"):
        full_check(spec, xi=xi, pairing=pairing)
