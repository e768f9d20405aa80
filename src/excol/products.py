"""Structure-constant tables, the signs of product blocks, the A-infinity relations.

Only documents and specs that carry product tables load this module:
`model.parse` reads their product records here, and `model.validate` and
the assembly in `nhh` check their relations here.

A product block collapses consecutive tensor factors of a chain word.  Three
kinds occur:

  AA  composition of consecutive morphisms between collection objects,
  AN  composition of trailing morphisms into the Serre-twisted factor,
  NA  the cyclic wrap: the Serre-twisted factor composed with leading
      morphisms transported through the inverse Serre functor.

Words carry bar-complex Koszul signs computed from reduced degrees; the one
sign rule is `block_sign`, read by both the assembled differential and the
relation check.  Any consistent convention yields the same cohomology, but
structure constants supplied for higher products must satisfy the relations
in this one.

Relations.  Read a word cyclically (its morphism letters, the twisted
letter, the first letter again), so that every product window is a cyclic
run.  A present inner table landing on a letter that a present outer table
consumes gives, spliced, a cyclic run W (the twisted letter may sit anywhere
in it) and the outer target o.  The relation R(W, o) is the sum of
eps * outer . (1 (x) inner (x) 1) over all such pairs: a map from the letters
of W to o, with no identity factors.  eps is the sign of the two blocks on
the bare word of W: its letters in word order, plus a degree-0 twisted
letter when W has none.

Why the relations are d . d = 0.  A pair of blocks leaving a term s, the
second applied after the first, reaches a term t and is nested (the second
consumes the first's output) or disjoint.
  1. The nested pairs of one (s, t) block consume the same letters W of s
     and end on the same letter o: they are R(W, o) (x) id.
  2. Disjoint pairs cancel: B then B' and B' then B reach t with opposite
     signs.
  3. The letters of s outside W change the signs of all pairs of R(W, o) by
     one common factor: they enter a block's exponent only through sums of
     their reduced degrees, with a coefficient that, summed over a pair's
     two blocks, is the same for every pair of the relation.
So each (s, t) block of d . d is +-R(W, o) (x) id, and checking every
relation of the present tables checks d . d = 0, and also the relations
whose window occurs in no term.  `tests/test_products.py` checks facts 1 to
3 on every word with p <= 6 and arity <= 4, over all degree parities.
"""

from operator import contains

from .model import SpecError, _frac, _int_tuple, _list, _require, is_int

AA = "AA"
AN = "AN"
NA = "NA"


def key_aa(chain, degs):
    return (AA, None, tuple(chain), tuple(degs))


def key_an(twist_src, chain, degs):
    return (AN, twist_src, tuple(chain), tuple(degs))


def key_na(from_obj, chain, degs):
    return (NA, from_obj, tuple(chain), tuple(degs))


def arity_of(key):
    kind, _, chain, degs = key
    return len(degs)


def check_key_shape(key, n):
    """Raise ValueError unless key names a product window on objects 1..n.

    The tuples, kind, arity, integer entries, object range and chain length
    are checked first, since `source_spaces` needs them; every other condition
    (an increasing chain, the twisted letter's place) is the window rule,
    checked as the round trip through `window_key`.
    """
    kind, aux, chain, degs = key
    if not (isinstance(chain, tuple) and isinstance(degs, tuple)):
        raise ValueError(f"product {key}: chain and degrees must be tuples")
    arity = len(degs)
    if kind not in (AA, AN, NA):
        raise ValueError(f"unknown product kind {kind!r}")
    if arity < 2:
        raise ValueError(f"product arity must be >= 2, got {arity}")
    objects = chain if kind == AA else (*chain, aux)
    if not all(is_int(x) for x in (*objects, *degs)):
        raise ValueError(f"product {key}: objects and degrees must be integers")
    if any(not (1 <= c <= n) for c in objects):
        raise ValueError(f"product {key} names an object outside 1..{n}")
    if len(chain) != arity + (kind == AA):
        raise ValueError(f"{kind} chain {chain} does not match arity {arity}")
    if window_key(source_spaces(key)) != key:
        raise ValueError(f"product {key} is not a window of consecutive letters")


def source_spaces(key):
    """The factor spaces consumed by the block, in word order.

    Yields ("A", i, j, deg) or ("N", i, j, deg) tuples.
    """
    kind, aux, chain, degs = key
    if kind == AA:
        return [("A", chain[t], chain[t + 1], degs[t]) for t in range(len(degs))]
    if kind == AN:
        out = [("A", chain[t], chain[t + 1], degs[t]) for t in range(len(chain) - 1)]
        out.append(("N", aux, chain[-1], degs[-1]))
        return out
    out = [("N", chain[0], aux, degs[0])]
    out.extend(
        ("A", chain[t], chain[t + 1], degs[t + 1]) for t in range(len(chain) - 1)
    )
    return out


def window_key(letters):
    """The key of the product consuming these consecutive letters, or None.

    The inverse of `source_spaces`.  A window is a run of morphism letters
    A(c_0, c_1), ..., A(c_{k-1}, c_k) of length >= 2 (AA), the run closed on
    the right by the twisted letter N(tw, c_k) with tw <= c_0 (AN), or the
    twisted letter N(c_0, to) with c_k <= to followed by the run (NA).  Two
    twisted letters, a twisted letter inside the run, a gap between letters
    or a single letter is no window.
    """
    if len(letters) < 2:
        return None
    kind, run = AA, letters
    if letters[-1][0] == "N":
        kind, run = AN, letters[:-1]
    elif letters[0][0] == "N":
        kind, run = NA, letters[1:]
    chain = [run[0][1]]
    for x in run:
        if x[0] != "A" or x[1] != chain[-1] or x[2] <= x[1]:
            return None
        chain.append(x[2])
    degs = tuple(x[3] for x in letters)
    if kind == AA:
        return (AA, None, tuple(chain), degs)
    if kind == AN:
        _, tw, frm, _ = letters[-1]
        ok = frm == chain[-1] and tw <= chain[0]
        return (AN, tw, tuple(chain), degs) if ok else None
    _, start, to, _ = letters[0]
    ok = start == chain[0] and chain[-1] <= to
    return (NA, to, tuple(chain), degs) if ok else None


def target_space(key):
    """The space the block lands in, as ("A"|"N", i, j, deg)."""
    kind, aux, chain, degs = key
    deg = sum(degs) + 2 - len(degs)
    if kind == AA:
        return ("A", chain[0], chain[-1], deg)
    if kind == AN:
        return ("N", aux, chain[0], deg)
    return ("N", chain[-1], aux, deg)


# -- reading a product record -----------------------------------------------


def product_problems(key, table, space_dim, n):
    """(problems, entries on basis vectors) of one product.

    The problems are messages, [] when there is none: a malformed key (whose
    entries are then None), or a source or target space that is zero, is the
    only problem reported; otherwise each index outside its space is one.
    """
    try:
        check_key_shape(key, n)
    except ValueError as exc:
        return [str(exc)], None
    srcs = source_spaces(key)
    dims = [space_dim(*s) for s in srcs]
    tk, ti, tj, tdeg = target_space(key)
    tdim = space_dim(tk, ti, tj, tdeg)
    ranges, targets = [range(d) for d in dims], range(tdim)
    on_basis, problems = {}, []
    for src, row in table.items():
        if len(src) == len(dims) and all(map(contains, ranges, src)):
            on_basis[src] = row
        else:
            problems.append(f"product {key} has dangling source {src}")
        if not all(map(targets.__contains__, row)):
            problems.append(f"product {key} has dangling target in {row}")
    if 0 in dims:
        k, i, j, d = srcs[dims.index(0)]
        return [f"product {key} references the zero space {k}({i},{j})^{d}"], on_basis
    if tdim == 0:
        return [f"product {key} lands in the zero space {tk}({ti},{tj})^{tdeg}"], on_basis
    return problems, on_basis


def parse_product(rec, n, space_dim, arity_two):
    """(key, table) of one product record, zero coefficients dropped.

    Each check builds its message only when it fails.
    """
    _require(isinstance(rec, dict), "bad product record {!r}", rec)
    kind = rec.get("kind")
    _require(kind in (AA, AN, NA), "bad product kind {!r}", kind)
    chain = _int_tuple(rec.get("chain", []), "product chain")
    degs = _int_tuple(rec.get("degs", []), "product degs")
    if kind == AA:
        key = key_aa(chain, degs)
    elif kind == AN:
        _require(is_int(rec.get("twist_src")), "AN needs twist_src: {!r}", rec)
        key = key_an(rec["twist_src"], chain, degs)
    else:
        _require(is_int(rec.get("from")), "NA product needs 'from': {!r}", rec)
        key = key_na(rec["from"], chain, degs)
    arity = arity_of(key)
    if arity_two:
        _require(arity == 2, "products must have arity 2, got {}", arity)
    else:
        _require(arity >= 3, "higher products must have arity >= 3")
        _require(rec.get("arity") == arity, "arity field mismatch in {!r}", rec)
    table = {}
    for entry in _list(rec.get("entries", []), "entries"):
        if not (isinstance(entry, list) and len(entry) == arity + 2):
            raise SpecError(f"bad entry {entry!r} (want {arity} source indices, out, value)")
        *src, out, val = entry
        for x in entry[:-1]:  # is_int, plain ints taking the short way
            if x.__class__ is not int and not is_int(x):
                raise SpecError(f"bad entry indices {entry!r}")
        row = table.setdefault(tuple(src), {})
        if out in row:
            raise SpecError(f"duplicate entry {entry!r}")
        row[out] = _frac(val)
    problems, _ = product_problems(key, table, space_dim, n)
    if problems:
        raise SpecError(problems[0])
    rows = ((src, {o: v for o, v in row.items() if v != 0}) for src, row in table.items())
    return key, {src: row for src, row in rows if row}


# -- Koszul signs -----------------------------------------------------------
#
# A word over the chain a_0 < ... < a_p is (x_0, ..., x_{p-1}, nu) with
# x_r in Ext(E_{a_r}, E_{a_r+1}) and nu in the Serre-twisted factor.
# reduced(x_r) = deg - 1, reduced(nu) = deg.


def block_sign(key, a_degs, n_deg, position):
    """The sign (+1 or -1) of the block applying `key` inside a word.

    a_degs are the degrees of the word's morphism letters, n_deg that of its
    twisted letter, and position is where the block's output lands among the
    kept letters; only AA blocks, on letters position .. position + k - 1,
    read it.  AN composes the last k - 1 letters into the twisted one.  NA,
    the cyclic wrap, is three moves: rotate the twisted letter to the front,
    apply the product there, rotate the output back past the kept letters.
    """
    k, p = arity_of(key), len(a_degs)
    red = [d - 1 for d in a_degs]
    if key[0] == AA:
        exp = sum(red[:position])
        exp += sum((k - 1 - t) * red[position + t] for t in range(k))
    elif key[0] == AN:
        exp = sum(red[: p - k + 1]) + sum((k - s) * red[p - k + s] for s in range(1, k))
    else:
        out_deg = n_deg + sum(a_degs[: k - 1]) + 2 - k
        exp = n_deg * sum(red) + (k - 1) * n_deg
        exp += sum((k - 2 - t) * red[t] for t in range(k - 2))
        exp += out_deg * sum(red[k - 1 :])
    return -1 if exp & 1 else 1


# -- A-infinity relations ----------------------------------------------------


def _bare_word(letters):
    """(a_degs, n_deg, shift): the bare word of letters in cyclic order.

    The twisted letter moves to the end, so cyclic index j is word position
    (j - shift) % len(letters); a run without one gets a twisted letter of
    degree 0 and shift 0.
    """
    degs = [x[3] for x in letters]
    for i, x in enumerate(letters):
        if x[0] == "N":
            return degs[i + 1 :] + degs[:i], degs[i], i + 1
    return degs, 0, 0


def relations(tables):
    """Every relation among the present tables (see the module docstring).

    Maps (window, output) to the relation's pairs [(sign, inner, outer, j)],
    the inner output being letter j of the outer product.
    """
    consumers = {}
    for key in tables:
        for j, x in enumerate(source_spaces(key)):
            consumers.setdefault(x, []).append((key, j))
    out = {}
    for inner in tables:
        s1 = source_spaces(inner)
        for outer, j in consumers.get(target_space(inner), ()):
            s2 = source_spaces(outer)
            window = tuple(s2[:j] + s1 + s2[j + 1 :])
            a_degs, n_deg, shift = _bare_word(window)
            pos = len(a_degs) + 1 - len(s1)  # where an AN or NA output lands
            if inner[0] == AA:
                pos = (j - shift) % len(window)
            # the outer block consumes the whole word left by the inner one
            a2, n2, _ = _bare_word(s2)
            sign = block_sign(inner, a_degs, n_deg, pos) * block_sign(outer, a2, n2, 0)
            pairs = out.setdefault((window, target_space(outer)), [])
            pairs.append((sign, inner, outer, j))
    return out


def relation_map(tables, pairs, fld):
    """A relation as {window basis indices: {output index: value}}, zeros dropped.

    Field elements are Python numbers (ints for F_p), so the sums are formed
    exactly and reduced by the field once, at the end.
    """
    acc = {}  # window basis indices + (output index,) -> value
    for sign, inner, outer, j in pairs:
        rows = {}
        for src, row in tables[outer].items():
            cells = [(src[j + 1 :] + (o,), fld.of(c)) for o, c in row.items()]
            rows.setdefault(src[j], []).append((src[:j], cells))
        for src, row in tables[inner].items():
            for mid, c in row.items():
                c = sign * fld.of(c)
                for head, cells in rows.get(mid, ()):
                    head += src
                    for tail, c2 in cells:
                        k = head + tail
                        acc[k] = acc.get(k, 0) + c * c2
    out = {}
    for k, v in acc.items():
        if not fld.is_zero(v):
            out.setdefault(k[:-1], {})[k[-1]] = fld.of(v)
    return out


def failing_relations(tables, fld):
    """The (window, output) of every relation whose map is not zero over fld."""
    rels = relations(tables).items()
    return [rel for rel, pairs in rels if relation_map(tables, pairs, fld)]


def describe(window):
    """A window named by the objects it touches and its degrees in word order."""
    a_degs, n_deg, shift = _bare_word(window)
    objects = tuple(sorted({c for x in window for c in x[1:3]}))
    degs = tuple(a_degs + [n_deg] if shift else a_degs)
    return f"chain {objects} degrees {degs}"
