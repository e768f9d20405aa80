"""Chain combinatorics: relative heights, the live links, pseudoheight, bounds.

A chain is a strictly increasing tuple of object indices a_0 < ... < a_p.
Its value is se(E_a0, E_a1) + ... + se(E_ap, S^{-1} E_a0) - p, where
se(F, F') is the minimal degree with Ext(F, F') nonzero; the pseudoheight is
the minimum over the chains whose every link is nonzero (a chain with an
everywhere-zero link contributes +inf).  The anticanonical variants
subtract dim_x.

That minimum is a shortest path over the live links, so one min-plus pass
computes it over se-intervals without listing chains, as `PhBounds`; exact
data pins the interval, and `pseudoheight` returns the pinned one.  Every
link is read once (`_links`): exact dims pin its interval, and only
without them do the statuses and the flags' deductions bound it
(`qualitative.Deductions`, read by `intervals`).  Partial (three-valued)
knowledge leaves the intervals open, which reproduces the standard lower-bound
lemmas: a Hom-free extended collection forces every link >= 1, hence value
>= 1; if on top of that no chain is cyclically Ext^1-connected some link
is >= 2, hence value >= 2.  A nonzero H^2(omega^{-1}) on a surface of line
bundles caps the length-0 chains at 2.

The first page, a sum over the live chains, is `firstpage`'s: it lists
them along `_live_links`, and a `pseudoheight` job compiles none of it.
"""

import itertools
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


def _live_links(n, link):
    """Each link read once: succ[i] = the live A links (j, weight) in order of j."""
    _check_n(n)
    objects = range(1, n + 1)
    succ = {i: [] for i in objects}
    close = {}  # (a_0, a_p) -> the weight of the live closing link
    for i, j in itertools.combinations_with_replacement(objects, 2):
        if i < j and (w := link("A", i, j)) is not None:
            succ[i].append((j, w))
        if (w := link("N", i, j)) is not None:
            close[i, j] = w
    return succ, close


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
    deductions bound it (`intervals.se_intervals`, after a
    clash has raised SpecError), filed under the link's `model.link_key`.
    """
    _check_n(spec.n)  # the cap is reported before any clash
    se_interval = None
    if not spec.is_exact:  # only three-valued knowledge compiles its rules
        from .intervals import se_intervals
        from .qualitative import Deductions
        reader = Deductions(spec)
        message = reader.clash()
        if message is not None:
            raise SpecError(message)
        se_interval = se_intervals(reader)

    def link(kind, i, j):
        src, dst, shift = link_key(spec, kind, i, j)
        if se_interval is None:
            se = rel_height(spec.space(kind, i, j)) - shift
            iv = (se, se)
        else:
            iv = se_interval(src, dst)
        return None if iv[0] == INF else iv

    return link


_NO_PATH = (INF, INF, None)  # above the key of every live path


def qualitative_ph_bounds(spec):
    """Anticanonical pseudoheight interval: one min-plus pass over the links.

    A chain's ends are the sums of its links' ends, each A link less 1.  For
    each a_0, going down from object n, each object j keeps the least lower
    end and the least key (upper end, p, chain) over the live paths from j
    that close with a live N(a_0, a_p).  The witness attains the upper
    bound; ties prefer shorter chains (a length-0 witness lets the height
    shortcut fire), then lexicographic order, and it is None when the upper
    bound is +inf.  Exact data pins the interval ([inf, inf] if every chain
    is dead).
    """
    succ, close = _live_links(spec.n, _links(spec))
    lower, best = INF, _NO_PATH
    for a0 in range(1, spec.n + 1):
        low, key = {}, {}
        for j in range(spec.n, a0 - 1, -1):
            if (a0, j) in close:
                lo, hi = close[a0, j]
                low[j], key[j] = lo, (hi, 0, (j,))
            for k, (lo, hi) in succ[j]:
                if k in low:
                    up, p, chain = key[k]
                    low[j] = min(low.get(j, INF), low[k] + lo - 1)
                    key[j] = min(key.get(j, _NO_PATH), (up + hi - 1, p + 1, (j,) + chain))
        lower, best = min(lower, low.get(a0, INF)), min(best, key.get(a0, _NO_PATH))
    upper, _, witness = best
    return PhBounds(lower, upper, witness if upper < INF else None)


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
