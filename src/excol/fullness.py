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
(a determinant), giving an end-to-end exact certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import products as pr
from .exactlin import Matrix
from .model import Cochain, CollectionSpec, FullnessData, SpecError
from .nhh import assemble_differential, spectral_sequence

NOT_FULL = "NOT_FULL"
FULL = "FULL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class FullnessVerdict:
    status: str
    evidence: str


def not_full_check(h):
    """NOT_FULL from a positive proven lower bound on the height.

    An entirely vanishing normal cohomology (degenerate input) yields no
    verdict: that is missing data, not a theorem.
    """
    if h.lo != float("inf") and h.lo > 0:
        return FullnessVerdict(NOT_FULL, f"height lower bound {int(h.lo)} > 0")
    return None


def _cochain_vector(cx, cochain, expect_t=None, expect_p=None):
    """Embed a cochain into total-complex coordinates, checking bidegree."""
    vec = {}
    fld = cx.field
    seen_t = set()
    seen_p = set()
    for chain, degs, values in cochain.terms:
        term = None
        for tm in cx.terms:
            if tm.chain == tuple(chain) and tm.degs == tuple(degs):
                term = tm
                break
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
    if expect_p is not None and seen_p - {expect_p}:
        raise SpecError(f"cochain spreads over chain lengths {sorted(seen_p)}")
    t = next(iter(seen_t)) if seen_t else expect_t
    return vec, t, (max(seen_p) if seen_p else expect_p)


def full_check(spec, xi=None, pairing=None, cx=None):
    """Fullness certificate from a degree-0 cocycle and evaluation pairing.

    Verifies that xi sits at the deepest surviving column of the limit page,
    that every differential block vanishes on it, and that some per-object
    pairing evaluates to a nonzero scalar.  A pairing must be a functional
    on T^0 that vanishes on coboundaries, so its value depends only on the
    class of xi.
    """
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


# -- the projective-space certificate ----------------------------------------


def _monomials(nvars, degree):
    """Exponent tuples of the degree-d monomials, x_1-major order."""
    if degree == 0:
        return [(0,) * nvars]
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


def _monomial_index(nvars):
    cache = {}

    def index(degree, expo):
        if degree not in cache:
            cache[degree] = {m: k for k, m in enumerate(_monomials(nvars, degree))}
        return cache[degree][expo]

    return index


def _multiply_table(nvars, deg_a, deg_b):
    """Structure constants of S^a V (x) S^b V -> S^{a+b} V on monomials."""
    idx = _monomial_index(nvars)
    table = {}
    mons_a = _monomials(nvars, deg_a)
    mons_b = _monomials(nvars, deg_b)
    for ia, ma in enumerate(mons_a):
        for ib, mb in enumerate(mons_b):
            prod = tuple(x + y for x, y in zip(ma, mb))
            table[(ia, ib)] = {idx(deg_a + deg_b, prod): Fraction(1)}
    return table


def beilinson_fixture(n):
    """The collection O, ..., O(n-1) on P^{n-1} with its fullness certificate.

    Ext(E_i, E_j) is the degree-(j-i) part of the polynomial algebra on the
    n linear forms, concentrated in degree 0; the Serre-twisted spaces sit in
    degree n-1 with symmetric powers S^{i+n-j} V; every product is polynomial
    multiplication.  Returns (spec, pairing, xi).
    """
    if not 2 <= n <= 6:
        raise SpecError(f"projective-space fixture needs 2 <= n <= 6, got {n}")
    nvars = n
    a_dims = {}
    n_dims = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i < j:
                a_dims[(i, j)] = {0: len(_monomials(nvars, j - i))}
            n_dims[(i, j)] = {n - 1: len(_monomials(nvars, i + n - j))}
    products = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for l in range(j + 1, n + 1):
                key = pr.key_aa((i, j, l), (0, 0))
                products[key] = _multiply_table(nvars, j - i, l - j)
    for i in range(1, n + 1):  # twist source
        for j1 in range(i, n + 1):
            for j2 in range(j1 + 1, n + 1):
                key = pr.key_an(i, (j1, j2), (0, n - 1))
                products[key] = _multiply_table(nvars, j2 - j1, i + n - j2)
    for j in range(1, n + 1):  # object carrying the twisted factor
        for i1 in range(1, j + 1):
            for i2 in range(i1 + 1, j + 1):
                key = pr.key_na(j, (i1, i2), (n - 1, 0))
                products[key] = _multiply_table(nvars, i1 + n - j, i2 - i1)

    full_chain = tuple(range(1, n + 1))
    degs = (0,) * (n - 1) + (n - 1,)
    # both xi and the pairing live on n-fold tensors of the linear forms
    stride = {}
    acc = 1
    for pos in range(n - 1, -1, -1):
        stride[pos] = acc
        acc *= nvars
    xi_values = {}
    pairing_values = {}
    for perm in itertools.permutations(range(n)):
        sign = _permutation_sign(perm)
        idx = sum(perm[pos] * stride[pos] for pos in range(n))
        xi_values[idx] = Fraction(sign)
        pairing_values[idx] = Fraction(sign)
    xi = Cochain([(full_chain, degs, xi_values)])
    pairing = {1: Cochain([(full_chain, degs, pairing_values)])}

    spec = CollectionSpec(
        n=n,
        dim_x=n - 1,
        field_name="Q",
        a_dims=a_dims,
        n_dims=n_dims,
        products=products,
        labels=[f"O({k})" for k in range(n)],
        metadata={"name": f"beilinson_p{n - 1}"},
        fullness_data=FullnessData(xi=xi, pairings=pairing),
    )
    return spec, pairing, xi


def _permutation_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def antisymmetrizer_line(nvars):
    """The fully antisymmetric tensor in V^(x)n coordinates (oracle helper)."""
    stride = [nvars ** (nvars - 1 - i) for i in range(nvars)]
    vec = {}
    for perm in itertools.permutations(range(nvars)):
        idx = sum(perm[i] * stride[i] for i in range(nvars))
        vec[idx] = Fraction(_permutation_sign(perm))
    return vec
