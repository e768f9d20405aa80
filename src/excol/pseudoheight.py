"""Chain combinatorics: relative heights, the first page, pseudoheight, bounds.

A chain is a strictly increasing tuple of object indices a_0 < ... < a_p.
Its value is se(E_a0, E_a1) + ... + se(E_ap, S^{-1} E_a0) - p, where
se(F, F') is the minimal degree with Ext(F, F') nonzero; the pseudoheight is
the minimum over the chains whose every link is nonzero.  A chain with an
everywhere-zero link contributes +inf, so `live_chains` never visits it: it
walks depth first over the live links only, and its cost follows the live
chains rather than all 2^n - 1 of them.  The anticanonical variants
subtract dim_x.

One walk computes the minimum over se-intervals.  Exact dims pin every
interval.  Partial (three-valued) knowledge leaves them open, which
reproduces the standard lower-bound lemmas: a Hom-free extended collection
forces every link >= 1, hence value >= 1; if on top of that no chain is
cyclically Ext^1-connected some link is >= 2, hence value >= 2.  A nonzero
H^2(omega^{-1}) on a surface of line bundles caps the length-0 chains at 2.

The first page E_1 of the normal complex is a sum over the live chains too,
so its terms and table (`ChainTerm`, `enumerate_terms`, `build_e1`) live
here: `e1` walks the chains without compiling the complex (`nhh`), which
imports them from here.
"""

import itertools
import math
import operator
from collections import namedtuple

from .model import (
    INF,
    NONZERO,
    ZERO,
    QualitativeExtTable,
    SpecError,
    hom_vanishing_from_degrees,
)

MAX_N = 24  # every worked example has n <= 11


def rel_height(dims):
    """Minimal degree with positive dimension; +inf for the zero space."""
    nonzero = [d for d, m in dims.items() if m > 0]
    return min(nonzero) if nonzero else INF


def _check_n(n):
    if n > MAX_N:
        raise SpecError(f"chain enumeration capped at n <= {MAX_N}, got {n}")


def iter_chains(n):
    """All strictly increasing index chains, shortest first, then lex."""
    _check_n(n)
    for length in range(1, n + 1):
        yield from itertools.combinations(range(1, n + 1), length)


def live_chains(n, a_link, n_link, zero, plus):
    """The chains whose every link is live, in the order of `iter_chains`.

    a_link(i, j) weighs the link Ext(E_i, E_j) and n_link(a_0, a_p) the
    closing twisted link; either returns None for a dead link.  Yields
    (chain, weight) with weight = plus(...plus(zero, w_1)..., w_closing),
    the A links in order and the closing link last.

    Each link is tested once.  For each length, a depth-first walk from
    each a_0 then follows a live link only if a live closing link lies the
    right number of live links beyond it, so every path it visits is the
    prefix of a live chain: the cost is O(n^3) for the tests and the
    reachability bits plus O(n) per prefix, and the memory is O(n^2).
    """
    _check_n(n)
    objects = range(1, n + 1)
    succ = {i: [] for i in objects}
    close = {}
    for i, j in itertools.combinations_with_replacement(objects, 2):
        if i < j and (w := a_link(i, j)) is not None:
            succ[i].append((j, w))
        if (w := n_link(i, j)) is not None:
            close[i, j] = w
    # ends[a0][j] has bit r set iff r more live links lead from j to some
    # a_p whose closing link N(a0, a_p) is live
    ends = {}
    for a0 in objects:
        bits = {}
        for j in range(n, a0 - 1, -1):
            b = 1 if (a0, j) in close else 0
            for k, _ in succ[j]:
                b |= bits[k] << 1
            bits[j] = b
        ends[a0] = bits
    for p in range(n):
        for a0 in objects:
            bits = ends[a0]
            if not bits[a0] >> p & 1:
                continue
            stack = [((a0,), zero, p)]
            while stack:
                chain, acc, left = stack.pop()
                if not left:
                    yield chain, plus(acc, close[a0, chain[-1]])
                    continue
                for j, w in reversed(succ[chain[-1]]):
                    if bits[j] >> (left - 1) & 1:
                        stack.append((chain + (j,), plus(acc, w), left - 1))


# -- the first page ------------------------------------------------------------


class ChainTerm(namedtuple("ChainTerm", "chain degs factor_dims")):
    """One tensor-product summand: a chain with a degree split.

    degs lists the internal degrees, the twisted factor last.
    """

    __slots__ = ()

    @property
    def p(self):
        return len(self.chain) - 1

    @property
    def mp(self):
        return -self.p

    @property
    def q(self):
        return sum(self.degs)

    @property
    def t(self):
        return self.q - self.p

    @property
    def dim(self):
        return math.prod(self.factor_dims)

    def strides(self):
        dims = self.factor_dims
        return [math.prod(dims[i + 1:]) for i in range(len(dims))]

    def letters(self):
        """The word as ("A"|"N", i, j, deg) letters, the twisted one last."""
        c, d, p = self.chain, self.degs, self.p
        twisted = ("N", c[0], c[p], d[p])
        return [("A", c[r], c[r + 1], d[r]) for r in range(p)] + [twisted]


def _nonempty(space):
    return (space,) if space else None


def enumerate_terms(spec):
    """All nonzero chain terms of the bigraded space.

    Only chains whose every Ext space is nonempty are visited (see
    `live_chains`); terms come shortest chain first, then by chain in lex
    order, then by degree split.
    """
    terms = []
    for chain, spaces in live_chains(
        spec.n,
        lambda i, j: _nonempty(spec.a_space(i, j)),
        lambda i, j: _nonempty(spec.n_space(i, j)),
        (),
        operator.add,
    ):
        for degs in itertools.product(*[sorted(sp) for sp in spaces]):
            dims = tuple(sp[d] for sp, d in zip(spaces, degs))
            terms.append(ChainTerm(chain, tuple(degs), dims))
    return terms


def build_e1(spec):
    """First-page table (-p, q) -> dim, with the contributing terms.

    Needs exact dims; the minimal total degree of a nonzero entry is the
    pseudoheight by construction.
    """
    if not spec.is_exact:
        raise SpecError("the first page needs exact Ext dimensions")
    table = {}
    index = {}
    for term in enumerate_terms(spec):
        key = (term.mp, term.q)
        table[key] = table.get(key, 0) + term.dim
        index.setdefault(key, []).append(term)
    for terms in index.values():
        terms.sort(key=lambda tm: (tm.chain, tm.degs))
    return table, index


# -- the chain engine ----------------------------------------------------------


class PhBounds(namedtuple("PhBounds", "lower upper witness_chain", defaults=(None,))):
    """Anticanonical pseudoheight interval with the chain attaining the cap."""

    __slots__ = ()

    @property
    def pinned(self):
        return self.lower == self.upper

    @property
    def ph_ac(self):
        """The anticanonical pseudoheight when the interval pins it, else None."""
        return self.lower if self.pinned else None

    def ph(self, dim_x):
        """The pseudoheight, ph_ac + dim_x, when the interval pins it, else None."""
        return None if self.ph_ac is None else self.ph_ac + dim_x


def effective_table(spec):
    """Merge explicit statuses, degree deductions, induced exact facts.

    Exact dims induce pinned statuses (in anticanonical degrees); explicit
    statuses clashing with them have already been rejected by validate, and
    clash again here.  The degree criterion and the H^2(omega^{-1}) cap are
    applied when the flags make them available.  Deductions are monotone:
    nothing is ever retracted.
    """
    table = spec.qualitative
    if table is None:
        table = QualitativeExtTable(spec.n, {}, None)
    updates = {}
    try:
        updates.update(hom_vanishing_from_degrees(spec))
    except SpecError:
        pass
    if (
        spec.flags.get("is_surface")
        and spec.flags.get("line_bundles")
        and spec.flags.get("h2_anticanonical_nonzero")
    ):
        for i in range(1, spec.n + 1):
            updates[(i, spec.n + i, 2)] = NONZERO
    return table.merged_with(updates)


def _link_intervals(spec):
    """se-intervals of the A links and of the twisted links, anticanonically.

    Exact dims pin every interval; the twisted link is shifted by dim_x.
    """
    if spec.is_exact:
        def pinned(dims, shift=0):
            se = rel_height(dims) - shift
            return (se, se)

        return (
            {pair: pinned(dims) for pair, dims in spec.a_dims.items()},
            {pair: pinned(dims, spec.dim_x) for pair, dims in spec.n_dims.items()},
        )
    table = effective_table(spec)
    pairs = list(itertools.combinations_with_replacement(range(1, spec.n + 1), 2))
    return (
        {(i, j): table.se_interval(i, j) for i, j in pairs if i < j},
        {(i, j): table.se_interval(j, spec.n + i) for i, j in pairs},
    )


def _live_interval(intervals):
    """Link weight for `live_chains`: the se-interval, None if known zero."""

    def link(i, j):
        iv = intervals.get((i, j))
        return None if iv is None or iv[0] == INF else iv

    return link


def _add_intervals(u, v):
    return (u[0] + v[0], u[1] + v[1])


def qualitative_ph_bounds(spec):
    """Anticanonical pseudoheight interval: the one walk over the chains.

    The witness chain attains the upper bound; length-0 witnesses are
    preferred so the height shortcut can fire on a pinned interval.  Exact
    data gives a pinned interval (or [inf, inf] when every chain is dead).
    """
    a_iv, n_iv = _link_intervals(spec)
    lower = INF
    upper = INF
    witness = None
    for chain, (lo, hi) in live_chains(
        spec.n, _live_interval(a_iv), _live_interval(n_iv), (0, 0), _add_intervals
    ):
        p = len(chain) - 1
        lower = min(lower, lo - p)
        if hi - p < upper:
            upper = hi - p
            witness = chain
    return PhBounds(lower, upper, witness)


class PseudoheightResult(namedtuple("PseudoheightResult", "value witness dim_x")):
    """value is an int or +inf; witness is a chain or None."""

    __slots__ = ()

    @property
    def value_ac(self):
        return self.value - self.dim_x


def pseudoheight(spec):
    """Exact pseudoheight with a witness chain: the pinned chain-engine bounds.

    Requires exact dims.  Ties prefer shorter witnesses (a length-0 witness
    makes the height shortcut fire), then lexicographic order.
    """
    if not spec.is_exact:
        raise SpecError("pseudoheight needs exact Ext dimensions")
    bounds = qualitative_ph_bounds(spec)
    return PseudoheightResult(bounds.ph(spec.dim_x), bounds.witness_chain, spec.dim_x)


def link_status(spec, table, kind, i, j, deg):
    """Status of one chain link in anticanonical degree deg.

    Exact dims win; the table (with its rule deductions) answers otherwise.
    """
    if spec.is_exact and (spec.a_dims or spec.n_dims):
        if kind == "A":
            dim = spec.a_space(i, j).get(deg, 0)
        else:
            dim = spec.n_space(i, j).get(deg + spec.dim_x, 0)
        return NONZERO if dim else ZERO
    if kind == "A":
        return table.status(i, j, deg)
    return table.status(j, spec.n + i, deg)


def cyclically_ext1_connected(spec):
    """Three-valued: is some chain linked by nonzero Ext^1 all around?

    Returns (True, witness) when a chain has every link NONZERO in degree 1,
    (False, None) when every chain has a link ZERO in degree 1, and
    (None, None) otherwise.
    """
    table = effective_table(spec)

    def link(kind):
        def nonzero(i, j):  # None if ZERO, else whether surely NONZERO
            st = link_status(spec, table, kind, i, j, 1)
            return None if st == ZERO else st == NONZERO

        return nonzero

    found_unknown = False
    for chain, nonzero in live_chains(
        spec.n, link("A"), link("N"), True, operator.and_
    ):
        if nonzero:
            return (True, chain)
        found_unknown = True
    return (None, None) if found_unknown else (False, None)
