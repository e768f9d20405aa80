"""Structure-constant tables and the sign conventions of the bar differential.

A product block collapses consecutive tensor factors of a chain word.  Three
kinds occur:

  AA  composition of consecutive morphisms between collection objects,
  AN  composition of trailing morphisms into the Serre-twisted factor,
  NA  the cyclic wrap: the Serre-twisted factor composed with leading
      morphisms transported through the inverse Serre functor.

Words carry bar-complex Koszul signs computed from reduced degrees: a
morphism factor of internal degree d counts d - 1, the twisted factor counts
its full degree.  Any consistent convention yields the same cohomology; the
one fixed here is verified operationally by the d . d = 0 check at complex
build time, so structure constants supplied for higher products must satisfy
the relations in exactly this convention.
"""

from __future__ import annotations

AA = "AA"
AN = "AN"
NA = "NA"


def key_aa(chain, degs):
    return (AA, None, tuple(chain), tuple(degs))


def key_an(twist_src, chain, degs):
    return (AN, twist_src, tuple(chain), tuple(degs))


def key_na(from_obj, chain, degs):
    return (NA, from_obj, tuple(chain), tuple(degs))


def is_int(value):
    """An integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


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


def normalize_table(table):
    """Drop zero coefficients; reject malformed entries."""
    out = {}
    for src, row in table.items():
        cleaned = {o: v for o, v in row.items() if v != 0}
        if cleaned:
            out[tuple(src)] = cleaned
    return out


# -- Koszul signs -----------------------------------------------------------
#
# A word over the chain a_0 < ... < a_p is (x_0, ..., x_{p-1}, nu) with
# x_r in Ext(E_{a_r}, E_{a_r+1}) and nu in the Serre-twisted factor.
# reduced(x_r) = deg - 1, reduced(nu) = deg.


def _parity(x):
    return x & 1


def sign_aa(a_degs, n_deg, r, k):
    """Sign of the block applying the arity-k product to letters r..r+k-1."""
    exp = sum(d - 1 for d in a_degs[:r])
    exp += sum((k - 1 - t) * (a_degs[r + t] - 1) for t in range(k))
    return -1 if _parity(exp) else 1


def sign_an(a_degs, n_deg, k):
    """Sign of the block composing the last k-1 letters into the twisted one."""
    p = len(a_degs)
    exp = sum(d - 1 for d in a_degs[: p - k + 1])
    exp += sum((k - s) * (a_degs[p - k + s] - 1) for s in range(1, k))
    return -1 if _parity(exp) else 1


def sign_na(a_degs, n_deg, k):
    """Sign of the cyclic wrap consuming the twisted factor and k-1 letters.

    Built from three moves: rotate the twisted factor to the front, apply the
    product there, rotate the output back past the surviving letters.
    """
    p = len(a_degs)
    out_deg = n_deg + sum(a_degs[: k - 1]) + 2 - k
    exp = n_deg * sum(d - 1 for d in a_degs)
    exp += (k - 1) * n_deg + sum((k - 2 - t) * (a_degs[t] - 1) for t in range(k - 2))
    exp += out_deg * sum(d - 1 for d in a_degs[k - 1 :])
    return -1 if _parity(exp) else 1
