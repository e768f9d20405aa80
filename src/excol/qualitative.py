"""Three-valued Ext knowledge: the `qualitative` record and the flags' deductions.

A document may state, per (src, dst, deg) of the anticanonically extended
collection, that an Ext space is ZERO or NONZERO (`QualitativeExtTable`); on
a surface of line bundles its flags deduce more (`Deductions`), and the
chain walks read the two merged (`merged_table`).  Only the jobs that read
such knowledge compile this module: `model.parse` for a document with a
`qualitative` section, `pseudoheight` for a spec without exact dims, and
`validate` for a spec with statuses or flags.

The degree criterion can deduce up to 2n^2 ZERO Homs, but a deduction can
clash only with a stated status, so `Deductions` reads the criterion one key
at a time; only the chain walks, which cap n, list every deduction.
"""

from .model import INF, NONZERO, UNKNOWN, ZERO, Record, SpecError, _list, _require, is_int


class QualitativeExtTable(Record):
    """Three-valued Ext knowledge on the anticanonically extended collection.

    Keys are (src, dst, deg) with src in 1..n and dst in 1..2n; dst = n + i
    stands for E_i (x) omega^{-1}.  Degrees outside degree_window (a pair
    (lo, hi) or None) are ZERO when a window is declared, UNKNOWN otherwise.
    """

    def __init__(self, n, statuses=None, degree_window=None):
        self.n = n
        self.statuses = {} if statuses is None else statuses
        self.degree_window = degree_window

    def status(self, src, dst, deg):
        got = self.statuses.get((src, dst, deg))
        if got is not None:
            return got
        if self.degree_window is not None:
            lo, hi = self.degree_window
            if deg < lo or deg > hi:
                return ZERO
        return UNKNOWN

    def se_interval(self, src, dst):
        """Interval [lo, hi] for the minimal degree with nonzero Ext.

        lo = first degree not known ZERO (or +inf when everything is ZERO),
        hi = first degree known NONZERO (or +inf).  Without a degree window
        the lower end is -inf: finitely many statuses cannot bound first
        possible nonvanishing from below.
        """
        if self.degree_window is None:
            declared = sorted(d for (s, t, d) in self.statuses if s == src and t == dst)
            hi = INF
            for d in declared:
                if self.statuses[(src, dst, d)] == NONZERO:
                    hi = d
                    break
            return (-INF, hi)
        lo_deg, hi_deg = self.degree_window
        lo = INF
        hi = INF
        for d in range(lo_deg, hi_deg + 1):
            st = self.status(src, dst, d)
            if st != ZERO and lo == INF:
                lo = d
            if st == NONZERO:
                hi = d
                break
        return (lo, hi)


def parse_qualitative(rec, n):
    """The table of a document's `qualitative` record on n objects."""
    window = rec.get("degree_window")
    if window is not None:
        ok = isinstance(window, list) and len(window) == 2 and all(map(is_int, window))
        _require(ok and window[0] <= window[1], "bad degree_window {!r}", window)
        window = tuple(window)
    statuses = {}
    for row in _list(rec.get("statuses", []), "statuses"):
        try:
            src, dst, deg, st = row["src"], row["dst"], row["deg"], row["status"]
        except (KeyError, TypeError):
            raise SpecError(f"bad qualitative row {row!r}") from None
        _require(st in (ZERO, NONZERO), "bad status {!r}", st)
        _require(all(map(is_int, (src, dst, deg))), "bad qualitative row {!r}", row)
        _require(1 <= src <= n and 1 <= dst <= 2 * n, "bad pair in {!r}", row)
        key = (src, dst, deg)
        _require(statuses.get(key, st) == st, "conflicting statuses at {}", key)
        if window is not None and st == NONZERO:
            ok = window[0] <= deg <= window[1]
            _require(ok, "NONZERO status at {} outside degree window", key)
        statuses[key] = st
    return QualitativeExtTable(n, statuses, window)


# -- degree bookkeeping (surface lemmas) -------------------------------------


def extend_degrees(degrees, k_squared):
    """Canonical degrees of the anticanonically extended collection.

    Twisting by omega^{-1} shifts the canonical degree down by K^2.
    """
    return list(degrees) + [d - k_squared for d in degrees]


def hom_vanishes(extended_degrees, src, dst):
    """The degree criterion: whether Hom(E_src, E_dst) = 0 is deduced.

    On a surface with ample canonical class, a nonzero map between
    non-isomorphic line bundles forces the canonical degree to go up, so
    deg(src) >= deg(dst) kills all Homs.  src must be an object and dst
    another object of the extended collection.
    """
    n = len(extended_degrees) // 2
    return (1 <= src <= n and 1 <= dst <= 2 * n and dst != src
            and extended_degrees[src - 1] >= extended_degrees[dst - 1])


def hom_vanishing_updates(extended_degrees, n):
    """The degree criterion's ZERO deductions for degree-0 Ext, in key order."""
    if len(extended_degrees) != 2 * n:
        raise SpecError("need one degree per object of the extended collection")
    return {
        (src, dst, 0): ZERO
        for src in range(1, n + 1)
        for dst in range(1, 2 * n + 1)
        if hom_vanishes(extended_degrees, src, dst)
    }


class Deductions:
    """The statuses that the flags and canonical degrees deduce, read per key.

    On a surface of line bundles: with ample canonical class, canonical
    degrees and K^2, the degree criterion (`hom_vanishes`) gives ZERO Homs;
    with a nonzero H^2(omega^{-1}), NONZERO at (i, n + i, 2) caps the
    length-0 chains at 2.  Missing flags or degrees deduce nothing.
    """

    def __init__(self, spec):
        flags, n = spec.flags, spec.n
        surface = flags.get("is_surface") and flags.get("line_bundles")
        degrees, k_squared = spec.canonical_degrees, flags.get("k_squared")
        self.n, self.degrees = n, None  # degrees: of the extended collection
        if surface and flags.get("ample_canonical") and None not in (degrees, k_squared):
            self.degrees = extend_degrees(degrees, k_squared)
            _require(len(self.degrees) == 2 * n,
                     "need one degree per object of the extended collection")
        h2 = surface and flags.get("h2_anticanonical_nonzero")
        self.nonzero = [(i, n + i, 2) for i in range(1, n + 1)] if h2 else []

    def status(self, key):
        """The deduced status at key, or None."""
        src, dst, deg = key
        if deg == 0 and self.degrees is not None and hom_vanishes(self.degrees, src, dst):
            return ZERO
        if deg == 2 and self.nonzero and 1 <= src == dst - self.n <= self.n:
            return NONZERO
        return None

    def clash(self, table):
        """The message of the first deduction clashing with the table, or None.

        The deductions merge in the order of `updates`, ZEROs before
        NONZEROs.  A deduction clashes only with a stated status, or as a
        NONZERO outside the degree window, first at (1, n + 1, 2), so only
        the stated keys are read.
        """
        clashes = [(new == NONZERO, key) for key, old in table.statuses.items()
                   if (new := self.status(key)) not in (None, old)]
        lo, hi = table.degree_window or (2, 2)
        if self.nonzero and not lo <= 2 <= hi:
            clashes.append((True, self.nonzero[0]))
        if not clashes:
            return None
        key = min(clashes)[1]
        old, new = table.statuses.get(key), self.status(key)
        if old in (None, new):
            return f"NONZERO status at {key} outside degree window"
        return f"qualitative conflict at {key}: {old} vs {new}"

    def updates(self):
        """Every deduced status: the ZEROs, then the NONZEROs, each in key order."""
        zeros = {} if self.degrees is None else hom_vanishing_updates(self.degrees, self.n)
        return zeros | dict.fromkeys(self.nonzero, NONZERO)


def merged_table(spec):
    """The stated statuses merged with the flags' deductions.

    A deduction clashing with a status raises SpecError; nothing is retracted.
    """
    table, deduced = spec.qualitative or QualitativeExtTable(spec.n), Deductions(spec)
    message = deduced.clash(table)
    if message is not None:
        raise SpecError(message)
    return QualitativeExtTable(table.n, table.statuses | deduced.updates(), table.degree_window)
