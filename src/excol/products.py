"""Structure-constant tables: their keys, the window rule, the record reader.

Only code that handles product tables loads this module: `model.parse`
reads their records here, `validate` checks their shapes here, the
assembly (`nhh`) and the relation check (`relations`) read their keys here,
and `fixtures` keys Beilinson's tables by the parser-free `window_key`.

A product block collapses consecutive tensor factors of a chain word.  Three
kinds occur:

  AA  composition of consecutive morphisms between collection objects,
  AN  composition of trailing morphisms into the Serre-twisted factor,
  NA  the cyclic wrap: the Serre-twisted factor composed with leading
      morphisms transported through the inverse Serre functor.

The signs of the blocks and the A-infinity relations among the tables are
in `relations`.
"""

from operator import contains

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
    from .model import is_int  # only the readers of records need the parser
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
    from .model import SpecError, _frac, _int_tuple, _list, _require, is_int
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
