"""The Beilinson document builder and the canonical writer.

`beilinson_fixture(n)` builds the collection O, ..., O(n-1) on P^{n-1}
exactly, from symmetric-power dimensions and monomial multiplication; the
stored fixtures `beilinson_p1` to `beilinson_p3` are its documents for
n = 2, 3, 4, as `serialize` writes them.  The document is written with the
record writers of `to_document`, and its product keys come from the window
rule (`products.window_key`).  No command loads this module: `fixture
<name>` prints the stored document (`fixtures`).
"""

import itertools
import json

from .model import SpecError, parse
from .products import window_key


def _monomials(nvars, degree):
    """Exponent tuples of the degree-d monomials, x_1-major order."""
    return [
        tuple(c.count(v) for v in range(nvars))
        for c in itertools.combinations_with_replacement(range(nvars), degree)
    ]


def _multiply_table(nvars, deg_a, deg_b):
    """Structure constants of S^a V (x) S^b V -> S^{a+b} V on monomials."""
    index = {m: k for k, m in enumerate(_monomials(nvars, deg_a + deg_b))}
    mons_b = _monomials(nvars, deg_b)
    return {
        (ia, ib): {index[tuple(x + y for x, y in zip(ma, mb))]: 1}
        for ia, ma in enumerate(_monomials(nvars, deg_a))
        for ib, mb in enumerate(mons_b)
    }


def beilinson_fixture(n):
    """The collection O, ..., O(n-1) on P^{n-1} with its fullness certificate.

    Ext(E_i, E_j) is the degree-(j-i) part of the polynomial algebra on the
    n linear forms, concentrated in degree 0; the Serre-twisted spaces sit in
    degree n-1 with symmetric powers S^{i+n-j} V; every product is polynomial
    multiplication.  The certificate (`spec.fullness_data`) takes the
    antisymmetrizer on n-fold tensors of the linear forms as both the
    candidate xi and the pairing against object 1.  The spec is the parse of
    the one document `_beilinson_document` writes.
    """
    if not 2 <= n <= 6:
        raise SpecError(f"projective-space fixture needs 2 <= n <= 6, got {n}")
    return parse(_beilinson_document(n))


def antisymmetrizer_line(nvars):
    """The fully antisymmetric tensor in V^(x)n coordinates (oracle helper)."""
    stride = [nvars ** (nvars - 1 - i) for i in range(nvars)]
    vec = {}
    for perm in itertools.permutations(range(nvars)):
        idx = sum(perm[i] * stride[i] for i in range(nvars))
        # the sign of a permutation is the parity of its inversions
        vec[idx] = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
    return vec


def _beilinson_document(n):
    """The canonical document of `beilinson_fixture(n)`, its product tables
    keyed by the window rule."""
    a_dims, n_dims = {}, {}
    powers = {}  # letter -> the symmetric power of V it is
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i < j:
                a_dims[(i, j)] = {0: len(_monomials(n, j - i))}
                powers[("A", i, j, 0)] = j - i
            n_dims[(i, j)] = {n - 1: len(_monomials(n, i + n - j))}
            powers[("N", i, j, n - 1)] = i + n - j
    products = {}
    for x, y in itertools.product(powers, repeat=2):
        key = window_key((x, y))
        if key is not None:
            products[key] = _multiply_table(n, powers[x], powers[y])
    degs = (0,) * (n - 1) + (n - 1,)
    terms = [(tuple(range(1, n + 1)), degs, antisymmetrizer_line(n))]
    return {
        "n": n,
        "dim_x": n - 1,
        "field": "Q",
        "objects": [{"label": f"O({k})"} for k in range(n)],
        "ext": _graded_records(a_dims, ("src", "dst")),
        "serre_ext": _graded_records(n_dims, ("twist_src", "from")),
        "products": _product_records(products, with_arity=False),
        "metadata": {"name": f"beilinson_p{n - 1}"},
        "fullness": {
            "xi": _cochain_record(terms),
            "pairings": [dict(_cochain_record(terms), obj=1)],
        },
    }


# -- writing a document ------------------------------------------------------


def _graded_records(dims, key_fields):
    fsrc, fdst = key_fields
    out = []
    for (a, b), space in sorted(dims.items()):
        for deg, dim in sorted(space.items()):
            out.append({fsrc: a, fdst: b, "deg": deg, "dim": dim})
    return out


def _product_records(tables, with_arity):
    recs = []
    for key in sorted(tables, key=lambda k: (k[0], k[1] or 0, k[2], k[3])):
        kind, aux, chain, degs = key
        rec = {"kind": kind, "chain": list(chain), "degs": list(degs)}
        if kind != "AA":  # the twisted letter's other object
            rec["twist_src" if kind == "AN" else "from"] = aux
        if with_arity:
            rec["arity"] = len(degs)
        entries = []
        for src, row in sorted(tables[key].items()):
            for out, val in sorted(row.items()):
                entries.append(list(src) + [out, str(val)])
        rec["entries"] = entries
        recs.append(rec)
    return recs


def _cochain_record(terms):
    terms = sorted(terms, key=lambda t: (tuple(t[0]), tuple(t[1])))
    return {"terms": [
        {
            "chain": list(chain),
            "degs": list(degs),
            "values": [[i, str(v)] for i, v in sorted(vals.items())],
        }
        for chain, degs, vals in terms
    ]}


def to_document(spec):
    """Canonical dict tree for a spec."""
    doc = {"n": spec.n, "dim_x": spec.dim_x, "field": spec.field_name}
    if spec.labels is not None:
        objs = []
        for i, label in enumerate(spec.labels):
            o = {"label": label}
            if spec.canonical_degrees is not None:
                o["canonical_degree"] = spec.canonical_degrees[i]
            objs.append(o)
        doc["objects"] = objs
    if spec.a_dims:
        doc["ext"] = _graded_records(spec.a_dims, ("src", "dst"))
    if spec.n_dims:
        doc["serre_ext"] = _graded_records(spec.n_dims, ("twist_src", "from"))
    if spec.products:
        doc["products"] = _product_records(spec.products, with_arity=False)
    if spec.higher:
        doc["higher_products"] = _product_records(spec.higher, with_arity=True)
    if spec.qualitative is not None:
        q = {}
        if spec.qualitative.degree_window is not None:
            q["degree_window"] = list(spec.qualitative.degree_window)
        q["statuses"] = [
            {"src": s, "dst": t, "deg": d, "status": st}
            for (s, t, d), st in sorted(spec.qualitative.statuses.items())
        ]
        doc["qualitative"] = q
    if spec.flags:
        doc["flags"] = dict(sorted(spec.flags.items()))
    if spec.metadata:
        doc["metadata"] = spec.metadata
    if spec.fullness_data is not None:
        rec = {}
        if spec.fullness_data.xi is not None:
            rec["xi"] = _cochain_record(spec.fullness_data.xi.terms)
        if spec.fullness_data.pairings:
            rec["pairings"] = [
                dict(_cochain_record(c.terms), obj=i)
                for i, c in sorted(spec.fullness_data.pairings.items())
            ]
        doc["fullness"] = rec
    return doc


def serialize(spec):
    """Canonical JSON text: serialize . parse is the identity on canonical documents."""
    return json.dumps(to_document(spec), sort_keys=True, indent=1) + "\n"
