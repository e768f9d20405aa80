"""Link se-intervals from three-valued Ext knowledge.

Only the chain walks' link reader (`pseudoheight._links`) reads them, for a
document without exact dims, so `validate`, which reads the same
`qualitative.Deductions` one key at a time, compiles none of this module.
"""

from .model import INF, NONZERO, ZERO


def se_intervals(reader):
    """se_interval(src, dst): [lo, hi] for the minimal degree with nonzero Ext(src, dst).

    Read off `reader`, a `qualitative.Deductions`.  hi is the first degree
    of the window known NONZERO (+inf if none): stated, or deduced at
    degree 2.  lo is the first degree of the window not known ZERO (+inf
    when every degree is ZERO), found by stepping over the known ZEROs
    only, so a wide window costs no more than a narrow one.  Without a
    window lo is -inf: finitely many statuses cannot bound the first
    possible nonvanishing from below.
    """
    stated_nonzero = {}  # (src, dst) -> the degrees stated NONZERO
    for (src, dst, deg), st in reader.table.statuses.items():
        if st == NONZERO:
            stated_nonzero.setdefault((src, dst), []).append(deg)

    def se_interval(src, dst):
        lo, top = reader.table.degree_window or (-INF, INF)
        known = [d for d in stated_nonzero.get((src, dst), []) + [2]
                 if lo <= d <= top and reader.status((src, dst, d)) == NONZERO]
        while lo <= top and reader.status((src, dst, lo)) == ZERO:  # no window: -inf is UNKNOWN
            lo += 1
        return (lo if lo <= top else INF, min(known, default=INF))

    return se_interval
