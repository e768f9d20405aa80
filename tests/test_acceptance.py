"""Acceptance suite: one test per shipped criterion, exact assertions only.

Each test prints a single PASS line on success (run pytest with -s to see
them); timing budgets are asserted where the criterion states one.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

import _specgen
from test_heights import hkr_total
from excol import fixtures
from excol.cli import main as cli_main
from excol.exactlin import Subspace
from excol.documents import antisymmetrizer_line, beilinson_fixture
from excol.fullness import FULL, NOT_FULL
from excol.heights import Analysis, build_report, height
from excol.model import NONZERO, CollectionSpec, validate
from excol.nhh import assemble_differential, spectral_sequence, total_cohomology
from excol.pseudoheight import pseudoheight, qualitative_ph_bounds
from excol.qualitative import QualitativeExtTable


def _ok(label):
    print(f"ACCEPTANCE {label}: PASS")


def _cli_json(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_criterion_1_projective_line_end_to_end(capsys):
    t0 = time.monotonic()
    payload = _cli_json(capsys, "height", "fixtures/beilinson_p1", "--json")
    elapsed = time.monotonic() - t0
    assert payload["ph"] == 0
    assert payload["he_lo"] == 0 and payload["he_hi"] == 0
    assert payload["nhh"] == {"0": 1, "1": 3}
    # polyvector-field dims of the line: h0(O) = 1, h0(T) = 3
    assert hkr_total({(0, 0): 1, (0, 1): 3}) == [1, 3]
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok("1 projective-line end-to-end")


def test_criterion_2_projective_plane_dims():
    t0 = time.monotonic()
    cx = assemble_differential(fixtures.fixture_spec("beilinson_p2"))
    nhh = total_cohomology(cx)
    elapsed = time.monotonic() - t0
    # h0(O) = 1, h0(T) = 8, h0(Lambda^2 T) = h0(O(3)) = 10
    assert nhh == {0: 1, 1: 8, 2: 10}
    assert [nhh[t] for t in sorted(nhh)] == hkr_total(
        {(0, 0): 1, (0, 1): 8, (0, 2): 10}
    )
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _ok("2 projective-plane dims")


def _symmetrization_kernel_dim_and_line(n):
    """Brute-force oracle: kernel of all cyclic-adjacent symmetrizations."""
    from excol.exactlin import Matrix, kernel_basis

    stride = [n ** (n - 1 - i) for i in range(n)]
    rows = []
    for s in range(n):
        grouped = {}
        for combo in itertools.product(range(n), repeat=n):
            src = sum(c * st for c, st in zip(combo, stride))
            a, b = combo[s], combo[(s + 1) % n]
            rest = tuple(combo[k] for k in range(n) if k not in (s, (s + 1) % n))
            grouped.setdefault((tuple(sorted((a, b))), rest), []).append(src)
        for sources in grouped.values():
            row = {}
            for src in sources:
                row[src] = row.get(src, Fraction(0)) + 1
            rows.append(row)
    m = Matrix.zero(len(rows), n**n)
    for r, row in enumerate(rows):
        for c, v in row.items():
            m[r, c] = v
    return kernel_basis(m)


def test_criterion_3_degree_zero_survivors():
    for n in (2, 3):
        spec = beilinson_fixture(n)
        cx = assemble_differential(spec)
        ss = spectral_sequence(cx)
        mp = -(n - 1)
        assert ss.infinity.get((mp, n - 1)) == 1
        z, border = ss.survivors(mp, n - 1)
        assert border == []
        oracle = _symmetrization_kernel_dim_and_line(n)
        assert oracle.dim == 1 and len(z) == 1
        line = antisymmetrizer_line(n)
        assert Subspace(cx.t_dims[0], z).contains(line) and oracle.contains(line)
    _ok("3 degree-zero survivors are the antisymmetric line")


def test_criterion_4_fullness_certificates(capsys):
    payload = _cli_json(capsys, "fullness", "fixtures/beilinson_p1", "--json")
    assert payload["status"] == FULL
    # the shipped candidate is x (x) y - y (x) x
    xi = fixtures.fixture_spec("beilinson_p1").fullness_data.xi
    assert xi.terms[0][2] == {1: Fraction(1), 2: Fraction(-1)}
    payload = _cli_json(capsys, "fullness", "fixtures/burniat", "--json")
    assert payload["status"] == NOT_FULL
    _ok("4 fullness certificates")


def _qualitative_beauville(degrees, ext1_nonzero):
    statuses = {key: NONZERO for key in ext1_nonzero}
    return CollectionSpec(
        n=4, dim_x=2,
        canonical_degrees=list(degrees),
        labels=[f"L{i}" for i in range(1, 5)],
        qualitative=QualitativeExtTable(4, statuses, (0, 2)),
        flags={
            "is_surface": True, "ample_canonical": True, "line_bundles": True,
            "h2_anticanonical_nonzero": True, "k_squared": 8,
        },
    )


def test_criterion_5_beauville():
    # qualitative route, built from degree sequences and the Ext^1 facts
    i0 = _qualitative_beauville(
        [0, -2, -4, -6],
        [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)],
    )
    b0 = qualitative_ph_bounds(i0)
    assert (b0.lower, b0.upper) == (1, 1)
    i1 = _qualitative_beauville([0, -2, -2, -4], [])
    for u in range(1, 5):
        for v in range(1, 5):
            i1.qualitative.statuses[(u, 4 + v, 1)] = "ZERO"
    b1 = qualitative_ph_bounds(i1)
    assert (b1.lower, b1.upper) == (2, 2)
    # exact route on the first collection
    spec = fixtures.fixture_spec("beauville_I0")
    ss = spectral_sequence(assemble_differential(spec))
    assert ss.pages[1][(-3, 6)] == 1
    assert ss.pages[2].get((-3, 6), 0) == 0
    h, _ = height(spec)
    assert (h.lo, h.hi) == (4, 4)
    _ok("5 beauville collections")


def test_criterion_6_burniat():
    spec = fixtures.fixture_spec("burniat")
    bounds = qualitative_ph_bounds(spec)
    assert (bounds.lower, bounds.upper) == (2, 2)
    rep = build_report(spec)
    h = Analysis(spec).height
    assert h.shifted(spec.dim_x) == (2, 2)
    assert h == (4, 4)
    assert rep.deformation_equivalent
    assert rep.iso_range == 2
    _ok("6 burniat pipeline")


def test_criterion_7_godeaux():
    spec = fixtures.fixture_spec("godeaux")
    ph = pseudoheight(spec)
    assert ph.ph(spec.dim_x) == 3 and ph.witness_chain == (2, 3)
    assert ph.ph_ac == 1
    h, _ = height(spec)
    assert (h.lo, h.hi) == (4, 4)
    _ok("7 godeaux pipeline (given the encoded vanishing assumptions)")


def test_criterion_8_property_suite():
    t0 = time.monotonic()
    # (a) the differential squares to zero on randomized validated specs
    rng = random.Random(8051123)
    complexes = 0
    for _ in range(100):
        spec = _specgen.random_spec(rng)
        assert validate(spec).ok
        assemble_differential(spec)  # raises if d.d != 0
        complexes += 1
    assert complexes == 100

    exact_fixtures = [
        "point", "beilinson_p1", "beilinson_p2", "beilinson_p3",
        "beauville_I0", "godeaux",
    ]
    for name in exact_fixtures:
        spec = fixtures.fixture_spec(name)
        cx = assemble_differential(spec)
        nhh = total_cohomology(cx)
        ss = spectral_sequence(cx)
        # (b) limit-page dims converge to the total cohomology
        for t, dim in nhh.items():
            assert dim == sum(
                d for (mp, q), d in ss.infinity.items() if q + mp == t
            ), (name, t)
        # (c) pseudoheight bounds the height from below
        h, _ = height(spec)
        assert pseudoheight(spec).ph(spec.dim_x) <= h.lo, name
        # (d) page dims never increase with r
        pages = sorted(ss.pages)
        for r_prev, r_next in zip(pages, pages[1:]):
            for key, dim in ss.pages[r_next].items():
                assert dim <= ss.pages[r_prev].get(key, 0), (name, key)
        for key, dim in ss.infinity.items():
            assert dim <= ss.pages[pages[-1]].get(key, 0), (name, key)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _ok("8 property suite")
