"""The `fullness` record: a candidate xi and pairings, checked against the dims.

`model.parse` checks a certificate as it checks product records, so every
command refuses a malformed one, and `fullness.full_check` checks one set
in code; only a document with a `fullness` section and `full_check` load
this module.
"""

import math

from .model import Cochain, FullnessData, SpecError, _frac, _int_tuple, _list, _require, is_int


def _parse_cochain(rec):
    _require(isinstance(rec, dict) and "terms" in rec, "bad cochain {!r}", rec)
    terms = []
    for t in _list(rec["terms"], "cochain terms"):
        try:
            chain, degs, values = t["chain"], t["degs"], t["values"]
        except (KeyError, TypeError):
            raise SpecError(f"bad cochain term {t!r}") from None
        vals = {}
        for pair in _list(values, "cochain values"):
            ok = isinstance(pair, list) and len(pair) == 2 and is_int(pair[0])
            _require(ok and pair[0] not in vals, "{} cochain value {!r}",
                     "duplicate index in" if ok else "bad", pair)
            vals[pair[0]] = _frac(pair[1])
        terms.append((_int_tuple(chain, "chain"), _int_tuple(degs, "degs"), vals))
    return Cochain(terms)


def parse_fullness(rec, spec):
    """The `FullnessData` of a document's `fullness` record, checked against spec's dims."""
    fullness = FullnessData(_parse_cochain(rec["xi"]) if "xi" in rec else None)
    for prec in _list(rec.get("pairings", []), "pairings"):
        ok = isinstance(prec, dict) and is_int(prec.get("obj"))
        _require(ok and prec["obj"] not in fullness.pairings, "{}: {!r}",
                 "duplicate pairing obj" if ok else "pairing needs obj", prec)
        fullness.pairings[prec["obj"]] = _parse_cochain(prec)
    check_certificate(spec, fullness)
    return fullness


def _total_degree(spec, cochain):
    """The total degree its terms share (None without terms), each a nonzero term of T."""
    ts, ps = set(), set()
    for chain, degs, values in cochain.terms:
        dims = [spec.space_dim("A", i, j, d) for i, j, d in zip(chain, chain[1:], degs)]
        sized = len(degs) == len(chain) > 0
        if sized:  # the twisted factor Ext(E_a_p, S^{-1} E_a_0), last
            dims.append(spec.space_dim("N", chain[0], chain[-1], degs[-1]))
        _require(sized and all(dims), "cochain names a zero term: chain {} degs {}", chain, degs)
        size = math.prod(dims)
        bad = next((i for i in values if not 0 <= i < size), None)
        _require(bad is None, "cochain index {} out of range on {}", bad, chain)
        ts.add(sum(degs) - len(chain) + 1)
        ps.add(len(chain) - 1)
    _require(len(ts) <= 1, "cochain mixes total degrees {}", sorted(ts))
    _require(len(ps) <= 1, "cochain mixes chain lengths {}", sorted(ps))
    return next(iter(ts), None)


def check_certificate(spec, data):
    """SpecError unless the complex holds every term and index the certificate names.

    A pairing sits in degree 0 on chains that start at its object; xi's
    degree is `full_check`'s to judge, since a zero xi is no error.
    """
    if data.xi is not None:
        _total_degree(spec, data.xi)
    for i, functional in sorted(data.pairings.items()):
        t = _total_degree(spec, functional)
        _require(t in (None, 0), "cochain has total degrees [{}], want 0", t)
        start = next((c[0] for c, _, _ in functional.terms if c[0] != i), None)
        _require(start is None, "pairing for object {} names a chain starting at {}", i, start)
