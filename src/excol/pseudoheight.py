"""Chain combinatorics: relative heights, pseudoheight, qualitative bounds.

A chain is a strictly increasing tuple of object indices a_0 < ... < a_p.
Its value is se(E_a0, E_a1) + ... + se(E_ap, S^{-1} E_a0) - p, where
se(F, F') is the minimal degree with Ext(F, F') nonzero; the pseudoheight is
the minimum over all 2^n - 1 chains.  Chains with an everywhere-zero link
contribute +inf and are skipped.  The anticanonical variants subtract dim_x.

One walk computes the minimum over se-intervals.  Exact dims pin every
interval.  Partial (three-valued) knowledge leaves them open, which
reproduces the standard lower-bound lemmas: a Hom-free extended collection
forces every link >= 1, hence value >= 1; if on top of that no chain is
cyclically Ext^1-connected some link is >= 2, hence value >= 2.  A nonzero
H^2(omega^{-1}) on a surface of line bundles caps the length-0 chains at 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import (
    INF,
    NONZERO,
    ZERO,
    QualitativeExtTable,
    SpecError,
    hom_vanishing_from_degrees,
)

MAX_N = 24  # 2^n chains; every worked example has n <= 11


def rel_height(dims):
    """Minimal degree with positive dimension; +inf for the zero space."""
    nonzero = [d for d, m in dims.items() if m > 0]
    return min(nonzero) if nonzero else INF


def iter_chains(n):
    """All strictly increasing index chains, shortest first, then lex."""
    if n > MAX_N:
        raise SpecError(f"chain enumeration capped at n <= {MAX_N}, got {n}")
    for length in range(1, n + 1):
        yield from itertools.combinations(range(1, n + 1), length)


def chain_links(chain):
    """Links of a chain: consecutive pairs plus the twisted closing pair.

    Yields ("A", i, j) or ("N", i, j); the closing link is the twisted space
    N(a_0, a_p) = Ext(E_{a_p}, S^{-1} E_{a_0}).
    """
    for s in range(len(chain) - 1):
        yield ("A", chain[s], chain[s + 1])
    yield ("N", chain[0], chain[-1])


# -- the chain engine ----------------------------------------------------------


@dataclass
class PhBounds:
    """Anticanonical pseudoheight interval with the chain attaining the cap."""

    lower: float
    upper: float
    witness_chain: tuple | None = None

    @property
    def pinned(self):
        return self.lower == self.upper


def effective_table(spec, table=None):
    """Merge explicit statuses, degree deductions, induced exact facts.

    Exact dims induce pinned statuses (in anticanonical degrees); explicit
    statuses clashing with them have already been rejected by validate, and
    clash again here.  The degree criterion and the H^2(omega^{-1}) cap are
    applied when the flags make them available.  Deductions are monotone:
    nothing is ever retracted.
    """
    if table is None:
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


def _link_intervals(spec, table):
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
    table = effective_table(spec, table)
    pairs = list(itertools.combinations_with_replacement(range(1, spec.n + 1), 2))
    return (
        {(i, j): table.se_interval(i, j) for i, j in pairs if i < j},
        {(i, j): table.se_interval(j, spec.n + i) for i, j in pairs},
    )


def qualitative_ph_bounds(spec, table=None):
    """Anticanonical pseudoheight interval: the one walk over the chains.

    The witness chain attains the upper bound; length-0 witnesses are
    preferred so the height shortcut can fire on a pinned interval.  Exact
    data gives a pinned interval (or [inf, inf] when every chain is dead).
    """
    a_iv, n_iv = _link_intervals(spec, table)
    dead = (INF, INF)
    lower = INF
    upper = INF
    witness = None
    for chain in iter_chains(spec.n):
        lo_total, hi_total = n_iv.get((chain[0], chain[-1]), dead)
        if lo_total == INF:
            continue  # a link is known entirely zero: chain contributes nothing
        for pair in zip(chain, chain[1:]):
            lo, hi = a_iv.get(pair, dead)
            if lo == INF:
                break
            lo_total += lo
            hi_total += hi
        else:
            p = len(chain) - 1
            lower = min(lower, lo_total - p)
            if hi_total - p < upper:
                upper = hi_total - p
                witness = chain
    return PhBounds(lower, upper, witness)


@dataclass
class PseudoheightResult:
    value: float  # int or +inf
    witness: tuple | None
    dim_x: int

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
    return PseudoheightResult(
        bounds.lower + spec.dim_x, bounds.witness_chain, spec.dim_x
    )


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


def cyclically_ext1_connected(spec, table=None):
    """Three-valued: is some chain linked by nonzero Ext^1 all around?

    Returns (True, witness) when a chain has every link NONZERO in degree 1,
    (False, None) when every chain has a link ZERO in degree 1, and
    (None, None) otherwise.
    """
    table = effective_table(spec, table)
    found_unknown = False
    for chain in iter_chains(spec.n):
        statuses = [
            link_status(spec, table, kind, i, j, 1)
            for kind, i, j in chain_links(chain)
        ]
        if all(st == NONZERO for st in statuses):
            return (True, chain)
        if not any(st == ZERO for st in statuses):
            found_unknown = True
    return (None, None) if found_unknown else (False, None)
