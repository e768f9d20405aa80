import itertools
import json
import random
from fractions import Fraction
from math import comb, factorial

import pytest

import _specgen
from _matrices import d_matrix
from excol import FIXTURE_NAMES, fixtures
from excol.cli import main as cli_main
from excol.exactlin import Matrix, Subspace, kernel_basis
from excol.documents import antisymmetrizer_line, beilinson_fixture
from excol.fullness import FULL, INCONCLUSIVE, NOT_FULL, full_check, not_full_check
from excol.heights import Height, height
from excol.model import Cochain, CollectionSpec, FullnessData, SpecError, parse, validate
from excol.nhh import assemble_differential, spectral_sequence
from excol.pseudoheight import pseudoheight


def _check(spec, xi, pairing, cx=None):
    """`full_check` with (xi, pairing) put in as the spec's certificate."""
    spec.fullness_data = FullnessData(xi, pairing)
    return full_check(cx or assemble_differential(spec))


def _verdict(name):
    """`full_check` of a shipped fixture, with the certificate it ships."""
    return full_check(assemble_differential(fixtures.fixture_spec(name)))


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
    verdict = _verdict("beilinson_p1")
    assert verdict.status == FULL


def test_full_certificate_projective_plane():
    verdict = _verdict("beilinson_p2")
    assert verdict.status == FULL


def test_full_check_rejects_symmetric_candidate():
    spec = beilinson_fixture(2)
    xx = Cochain([((1, 2), (0, 1), {0: Fraction(1)})])  # x (x) x: symmetric
    verdict = _check(spec, xx, spec.fullness_data.pairings)
    assert verdict.status == INCONCLUSIVE
    assert "not a cocycle" in verdict.evidence


def test_full_check_rejects_zero_candidate():
    spec = beilinson_fixture(2)
    zero = Cochain([((1, 2), (0, 1), {})])
    assert _check(spec, zero, spec.fullness_data.pairings).status == INCONCLUSIVE


def test_full_check_rejects_wrong_bidegree():
    spec = beilinson_fixture(2)
    bad = Cochain([((1,), (1,), {0: Fraction(1)})])  # total degree 1
    with pytest.raises(SpecError):
        _check(spec, bad, spec.fullness_data.pairings)


def test_full_check_rejects_mixed_chain_lengths():
    spec = beilinson_fixture(2)
    xi, pairing = spec.fullness_data.xi, spec.fullness_data.pairings
    mixed = Cochain(xi.terms + [((1,), (1,), {0: Fraction(1)})])
    with pytest.raises(SpecError):
        _check(spec, mixed, pairing)


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
        _check(spec, xi, pairing)
    assert "deepest" in str(err.value) or "survives" in str(err.value)


def test_full_check_rejects_misanchored_pairing():
    spec = beilinson_fixture(2)
    bad = {2: Cochain([((1, 2), (0, 1), {0: Fraction(1)})])}
    with pytest.raises(SpecError):
        _check(spec, spec.fullness_data.xi, bad)


def test_full_check_without_certificate_data():
    assert _verdict("godeaux").status == INCONCLUSIVE


def test_full_check_vanishing_pairing():
    spec = beilinson_fixture(2)
    dead = {1: Cochain([((1, 2), (0, 1), {})])}
    verdict = _check(spec, spec.fullness_data.xi, dead)
    assert verdict.status == INCONCLUSIVE
    assert "vanish" in verdict.evidence


def test_full_check_scale_invariant():
    spec = beilinson_fixture(2)
    xi, pairing = spec.fullness_data.xi, spec.fullness_data.pairings
    scaled = Cochain([(c, d, {i: 7 * v for i, v in vals.items()})
                      for c, d, vals in xi.terms])
    assert _check(spec, scaled, pairing).status == FULL


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_degree_zero_survivors_are_the_antisymmetric_line(n):
    spec = beilinson_fixture(n)
    cx = assemble_differential(spec)
    ss = spectral_sequence(cx)
    mp = -(n - 1)
    assert ss.infinity.get((mp, n - 1)) == 1
    z, border = ss.survivors(mp, n - 1)
    assert border == []
    oracle = _symmetrization_kernel(n)
    assert len(z) == oracle.dim == 1
    assert Subspace(cx.t_dims[0], z).contains(antisymmetrizer_line(n))
    assert oracle.contains(antisymmetrizer_line(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_projective_fixture_dimensions(n):
    spec = beilinson_fixture(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assert spec.a_space(i, j) == {0: comb(j - i + n - 1, n - 1)}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            assert spec.n_space(i, j) == {n - 1: comb(i + n - j + n - 1, n - 1)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projective_fixture_pseudoheight_zero_on_full_chain(n):
    spec = beilinson_fixture(n)
    res = pseudoheight(spec)
    assert res.ph(spec.dim_x) == 0
    assert res.witness_chain == tuple(range(1, n + 1))


def test_projective_fixture_range_checked():
    with pytest.raises(SpecError):
        beilinson_fixture(1)
    with pytest.raises(SpecError):
        beilinson_fixture(7)


def test_pairing_value_is_n_factorial():
    for n in (2, 3):
        verdict = full_check(assemble_differential(beilinson_fixture(n)))
        assert verdict.status == FULL
        assert str(factorial(n)) in verdict.evidence


def test_point_certificate():
    assert _verdict("point").status == FULL


def test_verdicts_are_mutually_exclusive_on_fixtures():
    for name in FIXTURE_NAMES:
        spec = fixtures.fixture_spec(name)
        h, _ = height(spec)
        not_full = not_full_check(h)
        if not spec.is_exact:
            continue
        full = full_check(assemble_differential(spec))
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
    dg = d_matrix(cx, -1).apply({0: Fraction(1)})
    xi = Cochain([
        (tm.chain, tm.degs, {0: dg[cx.term_offset(tm)]})
        for tm in cx.by_t[0] if cx.term_offset(tm) in dg
    ])
    pairing = {1: Cochain([((1,), (0,), {0: Fraction(1)})])}
    with pytest.raises(SpecError, match="coboundaries"):
        _check(spec, xi, pairing, cx)


def test_full_check_rejects_pairing_outside_degree_zero():
    # the pairing's only term lives in T^{-1}; its offset 0 must not be read
    # as the offset-0 coordinate of T^0, where xi sits
    spec = parse(COBOUNDARY_DOCUMENT)
    xi = Cochain([((1,), (0,), {0: Fraction(1)})])
    pairing = {1: Cochain([((1, 2), (0, 0), {0: Fraction(1)})])}
    with pytest.raises(SpecError, match="want 0"):
        _check(spec, xi, pairing)


def test_full_check_refuses_pairing_on_the_empty_chain():
    spec = beilinson_fixture(2)
    pairing = {1: Cochain([((), (0, 1), {0: Fraction(1)})])}
    with pytest.raises(SpecError, match="cochain names a zero term"):
        _check(spec, spec.fullness_data.xi, pairing)


def test_fullness_command_refuses_pairing_on_the_empty_chain(tmp_path, capsys):
    # the parse checks the certificate against the dims, so every command
    # refuses the document as malformed (exit 2), validate included, and
    # none reads the empty chain's first object
    doc = json.loads(fixtures.fixture_document("beilinson_p1"))
    doc["fullness"]["pairings"][0]["terms"][0]["chain"] = []
    path = tmp_path / "empty_chain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("validate", "pseudoheight", "e1", "ss", "height", "report", "fullness"):
        assert cli_main([command, str(path)]) == 2, command
        assert capsys.readouterr() == ("", "error: bad collection document: cochain "
                                       "names a zero term: chain () degs (0, 1)\n")


@pytest.mark.parametrize("obj", [0, 3, 99])
def test_every_command_refuses_a_pairing_outside_the_objects(tmp_path, capsys, obj):
    # an empty pairing names no chain, so only the range check refuses it
    doc = json.loads(fixtures.fixture_document("beilinson_p1"))
    doc["fullness"]["pairings"].append({"obj": obj, "terms": []})
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("validate", "pseudoheight", "e1", "ss", "height", "report", "fullness"):
        assert cli_main([command, str(path)]) == 2, command
        assert capsys.readouterr() == ("", "error: bad collection document: "
                                       f"pairing obj {obj} outside 1..2\n")


def _as_cochain(cx, t, vec):
    """A sparse vector of T^t as a Cochain over the terms it touches."""
    out = []
    for tm in cx.by_t[t]:
        off = cx.term_offset(tm)
        values = {i - off: v for i, v in vec.items() if off <= i < off + tm.dim}
        if values:
            out.append((tm.chain, tm.degs, values))
    return Cochain(out)


def _functionals(cx, i):
    """Functionals on the T^0 coordinates of chains starting at object i:
    each coordinate alone, and a basis of those vanishing on im d_{-1}."""
    coords = [
        cx.term_offset(tm) + k
        for tm in cx.by_t[0] if tm.chain[0] == i for k in range(tm.dim)
    ]
    pos = {r: j for j, r in enumerate(coords)}
    d_in = d_matrix(cx, -1)
    transpose = Matrix(d_in.cols, len(coords), {
        (c, pos[r]): v for (r, c), v in d_in.entries.items() if r in pos
    }, cx.field)
    yield from ({k: Fraction(1)} for k in coords)
    for vec in kernel_basis(transpose).basis:
        yield {coords[j]: v for j, v in vec.items()}


def test_coboundary_check_matches_composition_with_d():
    # functionals on T^0 of random draws with a nonzero d_{-1} are refused
    # exactly when f . d_{-1} != 0, the composition that the reduction's
    # basis of the coboundaries replaces
    rng = random.Random(7)
    refused = accepted = 0
    for _ in range(300):
        spec = _specgen.random_spec(rng)
        cx = assemble_differential(spec)
        red = cx.reduction()
        if not (red.image.get(-1) and red.cycles.get(0)):
            continue
        xi = _as_cochain(cx, 0, next(iter(red.cycles[0].values())))
        d_in = d_matrix(cx, -1)
        for i in sorted({tm.chain[0] for tm in cx.by_t[0]}):
            for fvec in _functionals(cx, i):
                pairing = {i: _as_cochain(cx, 0, fvec)}
                row = Matrix(1, d_in.rows, {(0, k): v for k, v in fvec.items()})
                if row.compose(d_in).is_zero():
                    _check(spec, xi, pairing, cx)
                    accepted += 1
                else:
                    with pytest.raises(SpecError, match="coboundaries"):
                        _check(spec, xi, pairing, cx)
                    refused += 1
    assert refused > 100 and accepted > 5
