"""The live-chain walker against a brute-force filter of `iter_chains`.

`live_chains` visits only the chains whose every link is live, in
lexicographic order, and `qualitative_ph_bounds` takes its minima in one
min-plus pass without listing chains.  Each is recomputed here from its
definition over all 2^n - 1 chains of `iter_chains`, and must agree
exactly: the same terms in lexicographic order, the same bounds and the
same witness (shortest first, then lexicographic).  The references read
each link from its definition (`_three_valued.link_reading`), not through
the engine's link reader: exact dims, or else the statuses with the flags'
deductions.  The lower-bound lemma is checked on the three-valued draws,
its cyclic Ext^1 hypothesis read by the reference `brute_cyclic`.
"""

import itertools
import random

import pytest

from _specgen import random_spec
from _three_valued import brute_cyclic, chain_links, link_reading, merged_statuses
from excol.model import INF, NONZERO, ZERO, CollectionSpec, SpecError
from excol.firstpage import live_chains
from excol.nhh import ChainTerm, enumerate_terms
from excol.pseudoheight import (
    iter_chains,
    pseudoheight,
    qualitative_ph_bounds,
    rel_height,
)
from excol.qualitative import QualitativeExtTable

SURFACE_FLAGS = {
    "is_surface": True,
    "ample_canonical": True,
    "line_bundles": True,
    "h2_anticanonical_nonzero": True,
}


# -- brute-force references over every chain -----------------------------------


def brute_terms(spec):
    terms = []
    for chain in iter_chains(spec.n):
        spaces = [spec.a_space(a, b) for a, b in zip(chain, chain[1:])]
        spaces.append(spec.n_space(chain[0], chain[-1]))
        if not all(spaces):
            continue
        for degs in itertools.product(*[sorted(sp) for sp in spaces]):
            dims = tuple(sp[d] for sp, d in zip(spaces, degs))
            terms.append(ChainTerm(chain, degs, dims))
    return terms


def brute_bounds(spec):
    read = link_reading(spec)
    lower = upper = INF
    witness = None
    for chain in iter_chains(spec.n):
        ivs = [read(*link)[0] for link in chain_links(chain)]
        if any(lo == INF for lo, _ in ivs):
            continue
        p = len(chain) - 1
        lower = min(lower, sum(lo for lo, _ in ivs) - p)
        hi = sum(hi for _, hi in ivs) - p
        if hi < upper:
            upper, witness = hi, chain
    return lower, upper, witness


def brute_pseudoheight(spec):
    value, witness = INF, None
    for chain in iter_chains(spec.n):
        total = sum(rel_height(spec.a_space(a, b)) for a, b in zip(chain, chain[1:]))
        total += rel_height(spec.n_space(chain[0], chain[-1])) - (len(chain) - 1)
        if total < value:
            value, witness = total, chain
    return value, witness


# -- random inputs -----------------------------------------------------------------


def sparse_exact_spec(rng):
    """Random exact dims: few links, several degrees, diagonal gaps."""
    n = rng.randint(1, 11)
    density = rng.choice([0.05, 0.15, 0.3, 0.6])

    def dims():
        degs = rng.sample(range(-1, 4), rng.randint(1, 2))
        return {d: rng.randint(1, 2) for d in degs}

    pairs = list(itertools.combinations_with_replacement(range(1, n + 1), 2))
    a_dims = {(i, j): dims() for i, j in pairs if i < j and rng.random() < density}
    n_dims = {
        (i, j): dims()
        for i, j in pairs
        if rng.random() < (0.8 if i == j else density)
    }
    return CollectionSpec(n=n, dim_x=rng.randint(0, 3), a_dims=a_dims, n_dims=n_dims)


def three_valued_spec(rng):
    """Random ZERO/NONZERO statuses; sometimes surface flags and degrees."""
    n = rng.randint(1, 11)
    window = rng.choice([None, (0, 0), (0, 1), (0, 2), (-1, 2)])
    degs = range(-1, 3) if window is None else range(window[0], window[1] + 1)
    p_zero = rng.choice([0.3, 0.6, 0.9])
    statuses = {}
    for src in range(1, n + 1):
        targets = list(range(src + 1, n + 1)) + [n + a0 for a0 in range(1, src + 1)]
        for dst in targets:
            for deg in degs:
                if rng.random() < 0.7:
                    st = ZERO if rng.random() < p_zero else NONZERO
                    statuses[(src, dst, deg)] = st
    spec = CollectionSpec(
        n=n,
        dim_x=2,
        qualitative=QualitativeExtTable(n, statuses, window),
    )
    if window == (0, 2) and rng.random() < 0.5:
        spec.flags = dict(SURFACE_FLAGS)
        spec.canonical_degrees = sorted(
            (rng.randint(-6, 6) for _ in range(n)), reverse=True
        )
    return spec


def dense_surface_spec(rng, n):
    """No ZERO statuses in the window [0, 2]: all 2^n - 1 chains are live.

    The canonical degrees do not increase, so the degree criterion kills
    Hom on the links it reaches and the H^2 flag caps the length-0 chains at
    2.  A few other links are stated NONZERO in degree 1 or 2, so the
    witness is a longer chain where those caps line up.
    """
    degrees = [rng.randint(0, 6)]
    for _ in range(n - 1):
        degrees.append(degrees[-1] - rng.randint(0, 1))
    links = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    links += [(j, n + i) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    statuses = {(src, dst, rng.randint(1, 2)): NONZERO
                for src, dst in links if rng.random() < 0.25}
    return CollectionSpec(
        n=n,
        dim_x=2,
        canonical_degrees=degrees,
        qualitative=QualitativeExtTable(n, statuses, (0, 2)),
        flags=dict(SURFACE_FLAGS, k_squared=rng.randint(1, 4)),
    )


def specs():
    rng = random.Random(4)
    out = [("specgen", i, random_spec(rng, rng.randint(1, 11))) for i in range(200)]
    out += [("sparse", i, sparse_exact_spec(rng)) for i in range(150)]
    out += [("three-valued", i, three_valued_spec(rng)) for i in range(150)]
    return out


SPECS = specs()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SpecError as exc:  # a conflicting deduction raises in both walks
        return ("SpecError", str(exc))


# -- the cross-checks --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_walker_is_the_filtered_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 11)
    density = rng.choice([0.1, 0.3, 0.6, 1.0])
    pairs = list(itertools.combinations_with_replacement(range(1, n + 1), 2))
    a_w = {(i, j): rng.randint(0, 3) for i, j in pairs if i < j and rng.random() < density}
    n_w = {(i, j): rng.randint(0, 3) for i, j in pairs if rng.random() < density}
    got = list(live_chains(n, lambda kind, i, j: (a_w if kind == "A" else n_w).get((i, j))))
    want = sorted(
        (c, tuple(a_w[pair] for pair in zip(c, c[1:])) + (n_w[c[0], c[-1]],))
        for c in iter_chains(n)
        if all(pair in a_w for pair in zip(c, c[1:])) and (c[0], c[-1]) in n_w
    )
    assert got == want


def test_walker_keeps_the_cap():
    with pytest.raises(SpecError):
        list(live_chains(25, lambda kind, i, j: 0))


@pytest.mark.parametrize("kind, i, spec", [
    pytest.param(kind, i, spec, id=f"{kind}-{i}") for kind, i, spec in SPECS
    if spec.is_exact
])
def test_exact_walks_match_brute_force(kind, i, spec):
    assert enumerate_terms(spec) == sorted(brute_terms(spec))
    ph = pseudoheight(spec)
    assert (ph.ph(spec.dim_x), ph.witness_chain) == brute_pseudoheight(spec)
    bounds = qualitative_ph_bounds(spec)
    assert (bounds.lower, bounds.upper, bounds.witness_chain) == brute_bounds(spec)


@pytest.mark.parametrize("kind, i, spec", [
    pytest.param(kind, i, spec, id=f"{kind}-{i}") for kind, i, spec in SPECS
    if not spec.is_exact
])
def test_three_valued_walks_match_brute_force(kind, i, spec):
    def bounds(s):
        b = qualitative_ph_bounds(s)
        return (b.lower, b.upper, b.witness_chain)

    assert _outcome(bounds, spec) == _outcome(brute_bounds, spec)


@pytest.mark.parametrize("n, seed", [(12, 0), (12, 1), (13, 2), (14, 3)])
def test_dense_surface_bounds_match_brute_force(n, seed):
    spec = dense_surface_spec(random.Random(seed), n)
    b = qualitative_ph_bounds(spec)
    assert (b.lower, b.upper, b.witness_chain) == brute_bounds(spec)


def _window_spec(n, statuses):
    return CollectionSpec(n=n, dim_x=2, qualitative=QualitativeExtTable(n, statuses, (0, 2)))


@pytest.mark.parametrize("spec, want", [
    # every link is UNKNOWN in [0, 2]: no upper end is finite, the lower end
    # is the longest chain's 0 - (n - 1)
    pytest.param(_window_spec(3, {}), (-2, INF, None), id="no-finite-upper"),
    # (2,) and (1, 2, 3) both have the value 1: the shorter chain wins,
    # though (1, 2, 3) comes first in lexicographic order
    pytest.param(CollectionSpec(
        n=3, dim_x=0, a_dims={(1, 2): {1: 1}, (2, 3): {1: 1}},
        n_dims={(2, 2): {1: 1}, (1, 3): {1: 1}},
    ), (1, 1, (2,)), id="length-0-wins-a-tie"),
    # N(1, 1) is pinned at 2, N(2, 2) is [0, inf] and N(1, 2) is dead: the
    # lower end comes from (2,), the upper end from (1,)
    pytest.param(_window_spec(2, {
        (1, 3, 0): ZERO, (1, 3, 1): ZERO, (1, 3, 2): NONZERO,
        (2, 3, 0): ZERO, (2, 3, 1): ZERO, (2, 3, 2): ZERO,
    }), (0, 2, (1,)), id="ends-on-different-chains"),
])
def test_bounds_witness_edge_cases(spec, want):
    b = qualitative_ph_bounds(spec)
    assert (b.lower, b.upper, b.witness_chain) == want == brute_bounds(spec)


def test_three_valued_draws_cover_every_verdict():
    verdicts = {_outcome(brute_cyclic, s)[0]
                for _, _, s in SPECS if not s.is_exact}
    assert {True, False, None} <= verdicts


def test_no_cyclically_connected_chain_lifts_the_lower_bound_to_two():
    # the lemma: on a Hom-free extended collection (nothing below degree 0,
    # every link ZERO in degree 0) every link is >= 1, and if no chain is
    # cyclically Ext^1-connected some link of each chain is >= 2
    hom_free = lifted = 0
    for seed in range(20_000):
        spec = three_valued_spec(random.Random(seed))
        window, n = spec.qualitative.degree_window, spec.n
        if window is None or window[0] < 0:
            continue
        try:
            statuses, _ = merged_statuses(spec)
        except SpecError:
            continue
        links = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        links += [(j, n + i) for i in range(1, n + 1) for j in range(i, n + 1)]
        if any(statuses.get((src, dst, 0)) != ZERO for src, dst in links):
            continue
        hom_free += 1
        if brute_cyclic(spec)[0] is False:
            assert qualitative_ph_bounds(spec).lower >= 2, seed
            lifted += 1
    assert (hom_free, lifted) == (517, 330)  # the lemma is not read vacuously
