"""Chain combinatorics: relative heights, the first page, pseudoheight, bounds.

A chain is a strictly increasing tuple of object indices a_0 < ... < a_p.
Its value is se(E_a0, E_a1) + ... + se(E_ap, S^{-1} E_a0) - p, where
se(F, F') is the minimal degree with Ext(F, F') nonzero; the pseudoheight is
the minimum over the chains whose every link is nonzero.  A chain with an
everywhere-zero link contributes +inf, so `live_chains` never visits it: it
walks depth first over the live links only, and its cost follows the live
chains rather than all 2^n - 1 of them.  The anticanonical variants
subtract dim_x.

One walk computes the minimum over se-intervals, as `PhBounds`; exact data
pins the interval, and `pseudoheight` returns the pinned one.  Every link is read
once (`_links`): exact dims pin its interval, and only without them do the
statuses and the flags' deductions (`qualitative.Deductions`) bound it.
Partial (three-valued) knowledge leaves the intervals open, which
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

from .model import INF, SpecError, link_key

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


def live_chains(n, link, zero, plus):
    """The chains whose every link is live, in the order of `iter_chains`.

    link("A", i, j) weighs the link Ext(E_i, E_j) and link("N", a_0, a_p)
    the closing twisted link; it returns None for a dead link.  Yields
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
        if i < j and (w := link("A", i, j)) is not None:
            succ[i].append((j, w))
        if (w := link("N", i, j)) is not None:
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
        spec.n, lambda *link: _nonempty(spec.space(*link)), (), operator.add
    ):
        for degs in itertools.product(*[sorted(sp) for sp in spaces]):
            dims = tuple(sp[d] for sp, d in zip(spaces, degs))
            terms.append(ChainTerm(chain, tuple(degs), dims))
    return terms


def build_e1(spec):
    """First-page table (-p, q) -> dim.

    Needs exact dims; the minimal total degree of a nonzero entry is the
    pseudoheight by construction.
    """
    if not spec.is_exact:
        raise SpecError("the first page needs exact Ext dimensions")
    table = {}
    for term in enumerate_terms(spec):
        key = (term.mp, term.q)
        table[key] = table.get(key, 0) + term.dim
    return table


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


def _links(spec):
    """The chain walks' link reader: link(kind, i, j) = the se-interval, or None.

    Each link ("A", i, j), i < j, or twisted ("N", i, j), i <= j, is read
    for its anticanonical se-interval, and is dead (None) when that starts
    at +inf.  Exact dims pin the interval, so an exact document without
    dims has every Ext zero; otherwise the statuses and the flags'
    deductions bound it (`qualitative.Deductions.se_interval`, after a
    clash has raised SpecError), filed under the link's `model.link_key`.
    """
    _check_n(spec.n)  # the cap is reported before any clash
    reader = None
    if not spec.is_exact:  # only three-valued knowledge compiles its rules
        from .qualitative import Deductions
        reader = Deductions(spec)
        message = reader.clash()
        if message is not None:
            raise SpecError(message)

    def link(kind, i, j):
        src, dst, shift = link_key(spec, kind, i, j)
        if reader is None:
            se = rel_height(spec.space(kind, i, j)) - shift
            iv = (se, se)
        else:
            iv = reader.se_interval(src, dst)
        return None if iv[0] == INF else iv

    return link


def _add_intervals(u, v):
    return (u[0] + v[0], u[1] + v[1])


def qualitative_ph_bounds(spec):
    """Anticanonical pseudoheight interval: the one walk over the chains.

    The witness chain attains the upper bound; length-0 witnesses are
    preferred so the height shortcut can fire on a pinned interval.  Exact
    data gives a pinned interval (or [inf, inf] when every chain is dead).
    """
    lower = INF
    upper = INF
    witness = None
    for chain, (lo, hi) in live_chains(spec.n, _links(spec), (0, 0), _add_intervals):
        p = len(chain) - 1
        lower = min(lower, lo - p)
        if hi - p < upper:
            upper = hi - p
            witness = chain
    return PhBounds(lower, upper, witness)


def pseudoheight(spec):
    """Exact pseudoheight bounds: the pinned chain-engine interval.

    Requires exact dims.  `.ph(spec.dim_x)` is the pseudoheight, `.ph_ac` the
    anticanonical one and `.witness_chain` a chain attaining it; ties prefer
    shorter witnesses (a length-0 witness makes the height shortcut fire),
    then lexicographic order.
    """
    if not spec.is_exact:
        raise SpecError("pseudoheight needs exact Ext dimensions")
    return qualitative_ph_bounds(spec)
