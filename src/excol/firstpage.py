"""The first page E_1, a sum over the live chains, listed along `pseudoheight._live_links`.

`e1` reads it without the complex, `nhh` re-exports it, and a `pseudoheight`
job compiles none of it.
"""

import itertools
import math
from collections import namedtuple

from .model import SpecError
from .pseudoheight import _live_links


def live_chains(n, link):
    """The chains whose every link is live, in lexicographic order.

    link("A", i, j) weighs the link Ext(E_i, E_j) and link("N", a_0, a_p)
    the closing twisted link; it returns None for a dead link.  Yields
    (chain, weights), the A links' weights in order and the closing one last.

    Each link is tested once.  From each a_0 a depth-first walk follows a
    live link only to an object that still reaches, along live links, some
    a_p with N(a_0, a_p) live, so every path it visits is the prefix of a
    live chain: the cost is O(n^3) plus O(n) per prefix, not 2^n.
    """
    succ, close = _live_links(n, link)
    for a0 in range(1, n + 1):
        reach = set()
        for j in range(n, a0 - 1, -1):
            if (a0, j) in close or any(k in reach for k, _ in succ[j]):
                reach.add(j)
        stack = [((a0,), ())] if a0 in reach else []
        while stack:
            chain, ws = stack.pop()
            if (a0, chain[-1]) in close:
                yield chain, ws + (close[a0, chain[-1]],)
            stack += [(chain + (k,), ws + (w,))
                      for k, w in reversed(succ[chain[-1]]) if k in reach]


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


def enumerate_terms(spec):
    """All nonzero chain terms of the bigraded space.

    Only chains whose every Ext space is nonempty are visited (see
    `live_chains`); terms come by chain in lexicographic order, then by
    degree split.
    """
    terms = []
    for chain, spaces in live_chains(spec.n, lambda *link: spec.space(*link) or None):
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
