"""The Koszul signs of product blocks and the A-infinity relations.

Only the jobs that check or assemble the differential load this module:
`validate` (`validation`) and `nhh`, for a spec with product tables.  The
tables' keys and the window rule are in `products`.

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

from .products import AA, AN, source_spaces, target_space


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
    k, p = len(key[3]), len(a_degs)
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
