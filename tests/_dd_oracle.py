"""Reference d . d = 0 check on the assembled complex.

The engine verifies d . d = 0 as the A-infinity relations of the product
tables (`relations.failing_relations`), before any matrix is built.  This is
the check it replaced: square each assembled d_t as a sparse matrix product
and name the source terms of the nonzero columns.  It shares nothing with
the relation checker except the assembled blocks, so the tests use it as
an oracle.  It reads `cx.differential(t)` for every degree, as a matrix
(`d_matrix`), so it assembles whatever the engine has not read yet.
"""

from _matrices import d_matrix
from excol.nhh import DifferentialError


def check_square_zero(cx):
    """Raise DifferentialError unless d_{t+1} . d_t = 0 for every t.

    Returns the number of degrees t where both d_t and d_{t+1} are nonzero,
    so a caller can see that the check composed something.
    """
    composed = 0
    for t in sorted(cx.t_dims):
        first, second = d_matrix(cx, t), d_matrix(cx, t + 1)
        composed += bool(first.entries and second.entries)
        sq = second.compose(first)
        if sq.is_zero():
            continue
        bad_cols = sorted({c for (_, c) in sq.entries})
        offenders = []
        for tm in cx.by_t[t]:
            off = cx.term_offset(tm)
            if any(off <= c < off + tm.dim for c in bad_cols):
                offenders.append(f"chain {tm.chain} degrees {tm.degs}")
            if len(offenders) >= 4:
                break
        raise DifferentialError(
            "d.d != 0 at total degree "
            f"{t}; inconsistent structure constants on: " + "; ".join(offenders)
        )
    return composed
