"""The filtered reduction against the explicit Z_r / B_r engine."""

import os
import random
from collections import Counter
from fractions import Fraction

import pytest

import _specgen
import _ss_oracle
from _matrices import from_rows
from excol import fixtures
from excol.exactlin import QQ, Matrix, Subspace
from excol.model import parse
from excol.nhh import (
    ChainTerm,
    NormalComplex,
    assemble_differential,
    spectral_sequence,
    total_cohomology,
)

FIXTURES = ["point", "beilinson_p1", "beilinson_p2", "beauville_I0", "godeaux"]
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _specs():
    for name in FIXTURES:
        yield name, fixtures.fixture_spec(name)
    rng = random.Random(1)
    for k in range(200):
        yield f"draw {k}", _specgen.random_spec(rng)


def _check_against_oracle(label, cx):
    ss = spectral_sequence(cx)
    ref = _ss_oracle.spectral_sequence(cx)
    assert ss.pages == ref.pages, label
    # past the width, `page` reads the limit page
    assert ss.page(len(ss.pages) + 1) == ref.infinity, label
    assert ss.infinity == ref.infinity, label
    assert ss.stable_page == ref.stable_page, label
    nhh = total_cohomology(cx)
    # Euler characteristic of the first page is that of the cohomology
    chi_page = sum((-1) ** (mp + q) * d for (mp, q), d in ss.pages[1].items())
    assert chi_page == sum((-1) ** t * d for t, d in nhh.items()), label
    # the limit page sums to the cohomology in every total degree
    for t, dim in nhh.items():
        got = sum(d for (mp, q), d in ss.infinity.items() if mp + q == t)
        assert got == dim, (label, t)
    return ss, ref


def test_reduction_matches_subspace_engine():
    for label, spec in _specs():
        _check_against_oracle(label, assemble_differential(spec))


def _survivor_complexes(name):
    """(label, complex) pairs: a fixture, a data document or the planted set."""
    if name == "planted":  # gaps up to 3: survivors past d_2 and d_3 kills
        rng = random.Random(5)
        return [(f"planted {k}", _planted_complex(rng)[0]) for k in range(60)]
    if name.endswith(".json"):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            spec = parse(fh.read())
    else:
        spec = fixtures.fixture_spec(name)
    return [(name, assemble_differential(spec))]


@pytest.mark.parametrize("name", [
    "beilinson_p1", "beilinson_p2", "beauville_I0",
    "sparse15.json", "arity3.json", "planted",
])
def test_survivors_match_subspace_engine(name):
    for label, cx in _survivor_complexes(name):
        ss, ref = _check_against_oracle(label, cx)
        for key, (z, b) in ref.survivors.items():
            z_basis, b_basis = ss.survivors(*key)
            # independent bases that span the oracle's spaces
            assert len(z_basis) == z.dim and len(b_basis) == b.dim, (label, key)
            assert Subspace(z.ambient_dim, z_basis, cx.field) == z, (label, key)
            assert Subspace(b.ambient_dim, b_basis, cx.field) == b, (label, key)
        assert ss.survivors(99, 99) is None


def _planted_complex(rng):
    """A random filtered complex with known pairs and gaps up to 3.

    Each planted pair is a basis vector x of T^t at level a with d x = y, a
    basis vector of T^{t+1} at level b > a; the rest is unpaired.  Random
    filtration-preserving changes of basis then hide the pairs.  Returns
    the complex and the planted (t, a, b) multiset.
    """
    levels = range(0, -4, -1)  # filtration order: mp never increases
    terms, by_t, offsets, t_dims, mps = [], {}, {}, {}, {}
    for t in range(3):
        off = 0
        for mp in levels:
            dim = rng.randint(0, 2)
            if not dim:
                continue
            p = -mp
            tm = ChainTerm(tuple(range(1, p + 2)), (0,) * p + (t + p,), (1,) * p + (dim,))
            terms.append(tm)
            by_t.setdefault(t, []).append(tm)
            offsets[(tm.chain, tm.degs)] = off
            off += dim
            mps.setdefault(t, []).extend([mp] * dim)
        if off:
            t_dims[t] = off
    dense = {}
    used = set()
    planted = Counter()
    for t in (0, 1):
        src, tgt = mps.get(t, []), mps.get(t + 1, [])
        dense[t] = [[Fraction(0)] * len(src) for _ in tgt]
        for x in rng.sample(range(len(src)), len(src)):
            free = [y for y in range(len(tgt)) if tgt[y] > src[x] and (t + 1, y) not in used]
            if (t, x) in used or not free or rng.random() < 0.3:
                continue
            y = rng.choice(free)
            used |= {(t, x), (t + 1, y)}
            dense[t][y][x] = Fraction(1)
            planted[(t, src[x], tgt[y])] += 1
    for t, coords in mps.items():
        for _ in range(12):
            i, k = rng.sample(range(len(coords)), 2) if len(coords) > 1 else (0, 0)
            if i == k or coords[i] < coords[k]:
                continue
            c = Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2]))
            # A = 1 + c E_ik on T^t: d_{t-1} <- A d_{t-1}, d_t <- d_t A^{-1}
            if t - 1 in dense:
                rows = dense[t - 1]
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
            if t in dense:
                for row in dense[t]:
                    row[k] -= c * row[i]
    # no spec to build a d_t from: every degree gets its matrix, zero if not planted
    diffs = {t: Matrix.zero(t_dims.get(t + 1, 0), dim, QQ) for t, dim in t_dims.items()}
    diffs.update({t: from_rows(rows, QQ) for t, rows in dense.items() if rows and rows[0]})
    lookup = {(tm.chain, tm.degs): tm for tm in terms}
    cx = NormalComplex(None, QQ, lookup, by_t, offsets, t_dims, diffs)
    return cx, planted


def test_reduction_recovers_planted_gaps():
    rng = random.Random(5)
    deep = 0
    for k in range(60):
        cx, planted = _planted_complex(rng)
        _check_against_oracle(f"planted {k}", cx)
        pairs = cx.reduction().pairs
        found = Counter(
            (t, cx.coordinate_mp(t)[c], cx.coordinate_mp(t + 1)[r])
            for t, got in pairs.items()
            for c, r in got.items()
        )
        assert found == planted, k
        deep += sum(n for (_, a, b), n in planted.items() if b - a >= 2)
    assert deep > 20  # pages beyond E_2 are really exercised
