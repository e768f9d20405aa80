"""The live-chain walker against a brute-force filter of `iter_chains`.

`live_chains` visits only the chains whose every link is live.  Each
chain-walk entry point is recomputed here from its definition over all
2^n - 1 chains of `iter_chains`, and must agree exactly: the same terms in
the same order, the same bounds and the same witness.  The references read
each link from its definition (`link_reading`), not through the engine's
link reader: exact dims, or else the statuses with the flags' deductions.
"""

import itertools
import random

import pytest

from _specgen import random_spec
from excol.model import (
    INF,
    NONZERO,
    UNKNOWN,
    ZERO,
    CollectionSpec,
    SpecError,
)
from excol.nhh import ChainTerm, enumerate_terms
from excol.pseudoheight import (
    cyclically_ext1_connected,
    iter_chains,
    live_chains,
    pseudoheight,
    qualitative_ph_bounds,
    rel_height,
)
from excol.qualitative import Deductions, QualitativeExtTable

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


def merged_statuses(spec):
    """The stated statuses with the flags' deductions added, one at a time.

    A deduction that clashes with a status, or a deduced NONZERO outside the
    degree window, raises SpecError with the engine's message.
    """
    statuses = dict(spec.qualitative.statuses)
    window = spec.qualitative.degree_window
    for key, st in Deductions(spec).updates().items():
        if statuses.get(key, st) != st:
            raise SpecError(f"qualitative conflict at {key}: {statuses[key]} vs {st}")
        if window is not None and st == NONZERO and not window[0] <= key[2] <= window[1]:
            raise SpecError(f"NONZERO status at {key} outside degree window")
        statuses[key] = st
    return statuses, window


def link_reading(spec):
    """(kind, i, j) -> the link's anticanonical se-interval and Ext^1 status.

    Ext(E_i, E_j) is the A link (i, j), and the closing Ext(E_j, S^{-1} E_i)
    the N link (i, j), whose dims sit dim_x above the anticanonical degree
    and whose statuses are filed under (j, n + i).  Exact dims decide;
    otherwise a status is stated, deduced, ZERO outside the degree window
    or UNKNOWN, and the interval runs from the first degree not known ZERO
    (-inf without a window) to the first known NONZERO.
    """
    if spec.is_exact:
        def read(kind, i, j):
            dims = spec.a_dims.get((i, j), {}) if kind == "A" else spec.n_dims.get((i, j), {})
            shift = 0 if kind == "A" else spec.dim_x
            se = min((d for d, m in dims.items() if m > 0), default=INF) - shift
            return (se, se), NONZERO if dims.get(1 + shift, 0) > 0 else ZERO

        return read
    statuses, window = merged_statuses(spec)

    def status(src, dst, deg):
        if (src, dst, deg) in statuses:
            return statuses[src, dst, deg]
        if window is not None and not window[0] <= deg <= window[1]:
            return ZERO
        return UNKNOWN

    def read(kind, i, j):
        src, dst = (i, j) if kind == "A" else (j, spec.n + i)
        if window is None:
            degs = sorted(d for s, t, d in statuses if (s, t) == (src, dst))
            lo = -INF
        else:
            degs = range(window[0], window[1] + 1)
            lo = next((d for d in degs if status(src, dst, d) != ZERO), INF)
        hi = next((d for d in degs if status(src, dst, d) == NONZERO), INF)
        return (lo, hi), status(src, dst, 1)

    return read


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


def chain_links(chain):
    """Links of a chain: consecutive pairs, then the twisted closing pair N(a_0, a_p)."""
    for s in range(len(chain) - 1):
        yield ("A", chain[s], chain[s + 1])
    yield ("N", chain[0], chain[-1])


def brute_cyclic(spec):
    read = link_reading(spec)
    unknown = False
    for chain in iter_chains(spec.n):
        statuses = [read(*link)[1] for link in chain_links(chain)]
        if all(st == NONZERO for st in statuses):
            return (True, chain)
        if ZERO not in statuses:
            unknown = True
    return (None, None) if unknown else (False, None)


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
    got = list(live_chains(
        n,
        lambda kind, i, j: (a_w if kind == "A" else n_w).get((i, j)),
        (),
        lambda acc, w: acc + (w,),
    ))
    want = [
        (c, tuple(a_w[pair] for pair in zip(c, c[1:])) + (n_w[c[0], c[-1]],))
        for c in iter_chains(n)
        if all(pair in a_w for pair in zip(c, c[1:])) and (c[0], c[-1]) in n_w
    ]
    assert got == want


def test_walker_keeps_the_cap():
    with pytest.raises(SpecError):
        list(live_chains(25, lambda kind, i, j: 0, 0, int.__add__))


@pytest.mark.parametrize("kind, i, spec", [
    pytest.param(kind, i, spec, id=f"{kind}-{i}") for kind, i, spec in SPECS
    if spec.is_exact
])
def test_exact_walks_match_brute_force(kind, i, spec):
    assert enumerate_terms(spec) == brute_terms(spec)
    ph = pseudoheight(spec)
    assert (ph.value, ph.witness) == brute_pseudoheight(spec)
    bounds = qualitative_ph_bounds(spec)
    assert (bounds.lower, bounds.upper, bounds.witness_chain) == brute_bounds(spec)
    assert cyclically_ext1_connected(spec) == brute_cyclic(spec)


@pytest.mark.parametrize("kind, i, spec", [
    pytest.param(kind, i, spec, id=f"{kind}-{i}") for kind, i, spec in SPECS
    if not spec.is_exact
])
def test_three_valued_walks_match_brute_force(kind, i, spec):
    def bounds(s):
        b = qualitative_ph_bounds(s)
        return (b.lower, b.upper, b.witness_chain)

    assert _outcome(bounds, spec) == _outcome(brute_bounds, spec)
    assert _outcome(cyclically_ext1_connected, spec) == _outcome(brute_cyclic, spec)


def test_three_valued_draws_cover_every_verdict():
    verdicts = {_outcome(cyclically_ext1_connected, s)[0]
                for _, _, s in SPECS if not s.is_exact}
    assert {True, False, None} <= verdicts
