"""Fullness verdicts for exceptional collections.

Two one-sided tests.  Positive height means the orthogonal complement still
carries the unit of Hochschild cohomology, so the collection cannot be full.
Conversely a degree-0 cocycle xi of the normal complex whose evaluation
pairing against the canonical degree-0 map out of the Serre twist of some
object is nonzero certifies fullness.  The pairing is the arity p+2 product
against that canonical generator; it is part of the input, since computing
it amounts to knowing the higher product structure at that arity.

For the standard collection O, O(1), ..., O(n-1) on projective (n-1)-space
everything is explicit: the degree-0 page is cut out of n-fold tensors of
the linear forms by cyclic-adjacent symmetrizations, the surviving line is
the fully antisymmetric tensor, and the pairing is exterior contraction
(a determinant); `fixtures.beilinson_fixture` builds this exact certificate.
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


def _cochain_vector(cx, cochain, expect_t=None):
    """Embed a cochain into total-complex coordinates, checking bidegree."""
    vec = {}
    fld = cx.field
    seen_t = set()
    seen_p = set()
    for chain, degs, values in cochain.terms:
        term = cx.term_lookup.get((tuple(chain), tuple(degs)))
        if term is None:
            raise SpecError(f"cochain names a zero term: chain {chain} degs {degs}")
        seen_t.add(term.t)
        seen_p.add(term.p)
        off = cx.term_offset(term)
        for idx, val in values.items():
            if not (0 <= idx < term.dim):
                raise SpecError(f"cochain index {idx} out of range on {chain}")
            v = fld.of(val)
            if not fld.is_zero(v):
                vec[off + idx] = fld.add(vec.get(off + idx, fld.zero), v)
    if len(seen_t) > 1:
        raise SpecError(f"cochain mixes total degrees {sorted(seen_t)}")
    if len(seen_p) > 1:
        raise SpecError(f"cochain mixes chain lengths {sorted(seen_p)}")
    if expect_t is not None and seen_t - {expect_t}:
        raise SpecError(f"cochain has total degrees {sorted(seen_t)}, want {expect_t}")
    t = next(iter(seen_t)) if seen_t else expect_t
    return vec, t, next(iter(seen_p), None)


def full_check(spec, xi=None, pairing=None, cx=None):
    """Fullness certificate from a degree-0 cocycle and evaluation pairing.

    Verifies that xi sits at the deepest surviving column of the limit page,
    that every differential block vanishes on it, and that some per-object
    pairing evaluates to a nonzero scalar.  A pairing must be a functional
    on T^0 that vanishes on coboundaries, so its value depends only on the
    class of xi.
    """
    # here, not at the top: a qualitative verdict needs neither
    from .exactlin import Matrix
    from .nhh import assemble_differential, spectral_sequence
    if xi is None or pairing is None:
        data = spec.fullness_data
        if data is None or data.xi is None or not data.pairings:
            return FullnessVerdict(
                INCONCLUSIVE, "no candidate cocycle and pairing supplied"
            )
        xi = xi or data.xi
        pairing = pairing or data.pairings
    if cx is None:
        cx = assemble_differential(spec)
    fld = cx.field

    vec, t, p = _cochain_vector(cx, xi)
    if not vec:
        return FullnessVerdict(INCONCLUSIVE, "zero candidate")
    if t != 0:
        raise SpecError(f"candidate has total degree {t}, want 0")
    ss = spectral_sequence(cx)
    deeper = [
        mp for (mp, q), d in ss.infinity.items() if q + mp == 0 and d > 0 and -mp > p
    ]
    if deeper:
        raise SpecError(
            f"candidate sits at chain length {p} but the limit page survives "
            f"at length {-min(deeper)}"
        )

    d0 = cx.differential(0)
    image = d0.apply(vec)
    if image:
        return FullnessVerdict(
            INCONCLUSIVE, "candidate is not a cocycle of the assembled differential"
        )

    d_in = cx.differential(-1)
    for i, functional in sorted(pairing.items()):
        for chain, _, _ in functional.terms:
            if chain[0] != i:
                raise SpecError(
                    f"pairing for object {i} names a chain starting at {chain[0]}"
                )
        fvec, _, _ = _cochain_vector(cx, functional, expect_t=0)
        row = Matrix(1, d_in.rows, {(0, c): v for c, v in fvec.items()}, fld)
        if not row.compose(d_in).is_zero():
            raise SpecError(f"pairing for object {i} does not vanish on coboundaries")
        total = fld.zero
        for coord, val in vec.items():
            fval = fvec.get(coord)
            if fval is not None:
                total = fld.add(total, fld.mul(val, fval))
        if not fld.is_zero(total):
            return FullnessVerdict(
                FULL,
                f"evaluation against object {i} gives {fld.to_str(total)} != 0",
            )
    return FullnessVerdict(INCONCLUSIVE, "all evaluation pairings vanish")
