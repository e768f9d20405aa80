"""Fullness verdicts for exceptional collections.

Two one-sided tests.  Positive height means the orthogonal complement still
carries the unit of Hochschild cohomology, so the collection cannot be full.
Conversely a degree-0 cocycle xi of the normal complex whose evaluation
pairing against the canonical degree-0 map out of the Serre twist of some
object is nonzero certifies fullness.  The pairing is the arity p+2 product
against that canonical generator; it is part of the input, since computing
it amounts to knowing the higher product structure at that arity.
`full_check` takes only the complex: the candidate and its pairings are its
spec's `fullness_data`, and the candidate's depth and the pairings'
vanishing on coboundaries are read off the complex's one filtered reduction
(`nhh.NormalComplex.reduction`) through degree 0, not the pages.

For the standard collection O, O(1), ..., O(n-1) on projective (n-1)-space
everything is explicit: the degree-0 page is cut out of n-fold tensors of
the linear forms by cyclic-adjacent symmetrizations, the surviving line is
the fully antisymmetric tensor, and the pairing is exterior contraction
(a determinant); `documents.beilinson_fixture` puts this exact certificate
in its spec.
"""

from collections import namedtuple

from .model import SpecError

NOT_FULL = "NOT_FULL"
FULL = "FULL"
INCONCLUSIVE = "INCONCLUSIVE"


FullnessVerdict = namedtuple("FullnessVerdict", "status evidence")


def not_full_check(h):
    """NOT_FULL from a positive proven lower bound on the height.

    An entirely vanishing normal cohomology (degenerate input) yields no
    verdict: that is missing data, not a theorem.
    """
    if h.lo != float("inf") and h.lo > 0:
        return FullnessVerdict(NOT_FULL, f"height lower bound {int(h.lo)} > 0")
    return None


def _cochain_vector(cx, cochain):
    """(vector, t, p) of a checked cochain in T^t's coordinates; t, p None without terms."""
    vec, t, p, fld = {}, None, None, cx.field
    for chain, degs, values in cochain.terms:
        term = cx.term_lookup[tuple(chain), tuple(degs)]
        t, p, off = term.t, term.p, cx.term_offset(term)
        for idx, val in values.items():
            v = fld.of(val)
            if not fld.is_zero(v):
                vec[off + idx] = fld.add(vec.get(off + idx, fld.zero), v)
    return vec, t, p


def _dot(fld, u, v):
    """The sum of u[k] * v[k] over the coordinates of two sparse vectors."""
    total = fld.zero
    for k in u.keys() & v.keys():
        total = fld.add(total, fld.mul(u[k], v[k]))
    return total


def full_check(cx):
    """Fullness certificate from the spec's degree-0 cocycle and pairings.

    The candidate xi and the per-object pairings are the spec's
    `fullness_data`, checked against the dims first as `model.parse` checks
    them (`certificate.check_certificate`).  Verifies that a nonzero xi has
    total degree 0 and sits at the deepest surviving column of the limit
    page (the deepest level among the reduction's cocycles of T^0), that
    every differential block vanishes on it, and that some pairing
    evaluates to a nonzero scalar.  A pairing must be a functional
    on T^0 that vanishes on coboundaries, so its value depends only on the
    class of xi; it is checked against the reduced columns of d_{-1}, the
    coboundary basis of the reduction through degree 0, which is all it reads.
    """
    data = cx.spec.fullness_data
    if data is None or data.xi is None or not data.pairings:
        return FullnessVerdict(INCONCLUSIVE, "no candidate cocycle and pairing supplied")
    from .certificate import check_certificate  # a certificate set in code, too
    check_certificate(cx.spec, data)
    fld = cx.field

    vec, t, p = _cochain_vector(cx, data.xi)
    if not vec:
        return FullnessVerdict(INCONCLUSIVE, "zero candidate")
    if t != 0:
        raise SpecError(f"candidate has total degree {t}, want 0")
    mps = cx.coordinate_mp(0)
    deepest = min((mps[c] for c in cx.reduction(0).cycles[0]), default=0)
    if -deepest > p:
        raise SpecError(
            f"candidate sits at chain length {p} but the limit page survives "
            f"at length {-deepest}"
        )

    if cx.apply(0, vec):
        return FullnessVerdict(
            INCONCLUSIVE, "candidate is not a cocycle of the assembled differential"
        )

    coboundaries = cx.reduction(0).image.get(-1, {}).values()
    for i, functional in sorted(data.pairings.items()):
        fvec = _cochain_vector(cx, functional)[0]
        if any(not fld.is_zero(_dot(fld, fvec, b)) for b in coboundaries):
            raise SpecError(f"pairing for object {i} does not vanish on coboundaries")
        total = _dot(fld, vec, fvec)
        if not fld.is_zero(total):
            return FullnessVerdict(
                FULL,
                f"evaluation against object {i} gives {fld.to_str(total)} != 0",
            )
    return FullnessVerdict(INCONCLUSIVE, "all evaluation pairings vanish")
