"""Three-valued Ext knowledge: the `qualitative` record and its one reader.

A document may state, per (src, dst, deg) of the anticanonically extended
collection, that an Ext space is ZERO or NONZERO (`QualitativeExtTable`); on
a surface of line bundles its flags deduce more.  `Deductions` holds both
and is the one place a status is read: the chain walks read each link's
se-interval through it (`intervals.se_intervals`, which only
`pseudoheight._links` loads), and `validate` the status at each key it
checks (`validation._check_qualitative`).  Only the jobs that
read such knowledge compile this module: `model.parse` for a document with
a `qualitative` section, `pseudoheight` for a spec without exact dims, and
`validate` for a spec with statuses or flags.

The degree criterion can deduce up to 2n^2 ZERO Homs and the h2 flag n
NONZEROs, but a deduction can clash only with a stated status, so no
reader lists the deductions: `Deductions` reads them one key at a time.
"""

from .model import NONZERO, UNKNOWN, ZERO, Record, SpecError, _known, _list, _require, is_int


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


def parse_qualitative(rec, n):
    """The table of a document's `qualitative` record on n objects."""
    _known(rec, {"degree_window", "statuses"}, "unknown qualitative keys {}")
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
        _known(row, {"src", "dst", "deg", "status"})
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


class Deductions:
    """Three-valued Ext knowledge read per key: the stated table and the deductions.

    On a surface of line bundles the flags deduce more: with ample
    canonical class, canonical degrees and K^2, the degree criterion
    (`hom_vanishes`) gives ZERO Homs; with a nonzero H^2(omega^{-1}),
    NONZERO at (i, n + i, 2) caps the length-0 chains at 2.  Missing flags
    or degrees deduce nothing.  Where a deduction and a stated status
    differ, `status` gives the deduction and `clash` reports the difference.
    """

    def __init__(self, spec):
        flags, n = spec.flags, spec.n
        surface = flags.get("is_surface") and flags.get("line_bundles")
        degrees, k_squared = spec.canonical_degrees, flags.get("k_squared")
        self.n, self.degrees = n, None  # degrees: of the extended collection
        self.table = spec.qualitative or QualitativeExtTable(n)
        if surface and flags.get("ample_canonical") and None not in (degrees, k_squared):
            # twisting by omega^{-1} shifts the canonical degree down by K^2
            self.degrees = list(degrees) + [d - k_squared for d in degrees]
            _require(len(self.degrees) == 2 * n,
                     "need one degree per object of the extended collection")
        self.h2 = bool(surface and flags.get("h2_anticanonical_nonzero") and n > 0)

    def status(self, key):
        """The status at key: deduced, else stated, else the degree window's."""
        src, dst, deg = key
        if deg == 0 and self.degrees is not None and hom_vanishes(self.degrees, src, dst):
            return ZERO
        if deg == 2 and self.h2 and 1 <= src == dst - self.n <= self.n:
            return NONZERO
        return self.table.status(src, dst, deg)

    def clash(self):
        """The message of the first deduction clashing with the table, or None.

        The deductions are taken ZEROs before NONZEROs, each in key order.
        A deduction clashes only with a stated status, or as a NONZERO
        outside the degree window, first at (1, n + 1, 2), so only the
        stated keys are read.
        """
        table = self.table
        clashes = [(new == NONZERO, key) for key, old in table.statuses.items()
                   if (new := self.status(key)) != old]
        lo, hi = table.degree_window or (2, 2)
        if self.h2 and not lo <= 2 <= hi:
            clashes.append((True, (1, self.n + 1, 2)))
        if not clashes:
            return None
        key = min(clashes)[1]
        old, new = table.statuses.get(key), self.status(key)
        if old in (None, new):
            return f"NONZERO status at {key} outside degree window"
        return f"qualitative conflict at {key}: {old} vs {new}"

    def nonzeros(self):
        """The deduced NONZERO keys (i, n + i, 2), in key order, one at a time."""
        return ((i, self.n + i, 2) for i in range(1, self.n + 1)) if self.h2 else iter(())
