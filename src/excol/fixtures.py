"""Shipped fixture corpus.

Projective-space fixtures are generated exactly from symmetric-power
dimensions and monomial multiplication.  The surface fixtures encode facts
proved elsewhere in the literature; every encoded vanishing is labelled with
its source in the metadata block, since the Ext data of those surfaces is an
assumption of the run, not something this tool computes.

Surface models keep only the spaces and products that the published
arguments constrain; everything else is zero.  That is enough to reproduce
the known heights, and the assumptions list is the contract.

The canonical writer (`to_document`, `serialize`) is here too, since the
`fixture` command is the only one that prints a document.
"""

import itertools
import json

from . import FIXTURE_NAMES


def _point_document():
    return {
        "n": 1,
        "dim_x": 0,
        "field": "Q",
        "objects": [{"label": "O", "canonical_degree": 0}],
        "serre_ext": [{"twist_src": 1, "from": 1, "deg": 0, "dim": 1}],
        "fullness": {
            "xi": {"terms": [{"chain": [1], "degs": [0], "values": [[0, "1"]]}]},
            "pairings": [
                {
                    "obj": 1,
                    "terms": [{"chain": [1], "degs": [0], "values": [[0, "1"]]}],
                }
            ],
        },
        "metadata": {
            "name": "point",
            "notes": "single exceptional object generating the derived "
            "category of a point",
        },
    }


def _surface_document(degrees, k_squared, statuses=None, flags=None, **sections):
    """A surface collection of line bundles L1, L2, ... with the given
    canonical degrees, on a surface with ample K and H^2(-K) != 0.

    `statuses` are the qualitative Ext facts over the degree window [0, 2],
    `flags` extends the surface flags, and `sections` are the other
    top-level sections of the document.
    """
    doc = {
        "n": len(degrees),
        "dim_x": 2,
        "field": "Q",
        "objects": [
            {"label": f"L{i}", "canonical_degree": d} for i, d in enumerate(degrees, 1)
        ],
        "flags": {
            "is_surface": True,
            "ample_canonical": True,
            "line_bundles": True,
            "h2_anticanonical_nonzero": True,
            "k_squared": k_squared,
            **(flags or {}),
        },
        **sections,
    }
    if statuses is not None:
        doc["qualitative"] = {"degree_window": [0, 2], "statuses": statuses}
    return doc


def _burniat_document():
    statuses = []
    # no Ext^1 between distinct bundles of the collection
    for i in range(1, 7):
        for j in range(i + 1, 7):
            statuses.append({"src": i, "dst": j, "deg": 1, "status": "ZERO"})
    # H^1 of the anticanonical bundle vanishes
    for i in range(1, 7):
        statuses.append({"src": i, "dst": 6 + i, "deg": 1, "status": "ZERO"})
    return _surface_document(
        [3, 3, 2, 2, 2, 0],
        6,
        statuses,
        metadata={
            "name": "burniat",
            "assumptions": [
                {
                    "fact": "Ext^1(E_i, E_j) = 0 for all i < j",
                    "source": "Alexeev-Orlov, Derived categories of Burniat "
                    "surfaces, Lemma 4.8",
                },
                {
                    "fact": "H^1 of the anticanonical bundle vanishes",
                    "source": "cohomology of Burniat surfaces (p_g = q = 0, "
                    "K^2 = 6)",
                },
                {
                    "fact": "H^2 of the anticanonical bundle is nonzero",
                    "source": "Serre duality against the bicanonical system",
                },
                {
                    "fact": "degree-0 vanishing from non-increasing canonical "
                    "degrees 3,3,2,2,2,0 ; -3,-3,-4,-4,-4,-6",
                    "source": "ample-canonical degree argument",
                },
            ],
        },
    )


def _beauville_i1_document():
    statuses = []
    # no Ext^1 from any object to any anticanonical twist
    for u in range(1, 5):
        for v in range(1, 5):
            statuses.append({"src": u, "dst": 4 + v, "deg": 1, "status": "ZERO"})
    return _surface_document(
        [0, -2, -2, -4],
        8,
        statuses,
        metadata={
            "name": "beauville_I1",
            "assumptions": [
                {
                    "fact": "no Ext^1 from the collection to its "
                    "anticanonical twists",
                    "source": "Galkin-Shinder, Exceptional collections of "
                    "line bundles on the Beauville surface, character "
                    "matrices of Prop. 3.7",
                },
                {
                    "fact": "H^2 of the anticanonical bundle is nonzero",
                    "source": "bicanonical system of a fake quadric",
                },
            ],
        },
    )


def _beauville_i0_document():
    ext = [
        {"src": 1, "dst": 2, "deg": 1, "dim": 1},
        {"src": 2, "dst": 3, "deg": 1, "dim": 1},
        {"src": 3, "dst": 4, "deg": 1, "dim": 1},
        {"src": 1, "dst": 3, "deg": 2, "dim": 1},
        {"src": 2, "dst": 4, "deg": 2, "dim": 1},
        {"src": 1, "dst": 4, "deg": 2, "dim": 1},
    ]
    serre_ext = [
        {"twist_src": i, "from": i, "deg": 4, "dim": 9} for i in range(1, 5)
    ] + [
        {"twist_src": 1, "from": 4, "deg": 3, "dim": 1},
        {"twist_src": 1, "from": 3, "deg": 4, "dim": 1},
        {"twist_src": 2, "from": 4, "deg": 4, "dim": 1},
    ]
    products = [
        {
            "kind": "AA",
            "chain": [1, 2, 3],
            "degs": [1, 1],
            "entries": [[0, 0, 0, "1"]],
        },
        {
            "kind": "AA",
            "chain": [2, 3, 4],
            "degs": [1, 1],
            "entries": [[0, 0, 0, "1"]],
        },
        {
            "kind": "AN",
            "twist_src": 1,
            "chain": [3, 4],
            "degs": [1, 3],
            "entries": [[0, 0, 0, "1"]],
        },
        {
            "kind": "NA",
            "from": 4,
            "chain": [1, 2],
            "degs": [3, 1],
            "entries": [[0, 0, 0, "1"]],
        },
    ]
    statuses = [
        {"src": 1, "dst": 2, "deg": 1, "status": "NONZERO"},
        {"src": 2, "dst": 3, "deg": 1, "status": "NONZERO"},
        {"src": 3, "dst": 4, "deg": 1, "status": "NONZERO"},
        {"src": 4, "dst": 5, "deg": 1, "status": "NONZERO"},
    ]
    return _surface_document(
        [0, -2, -4, -6],
        8,
        statuses,
        flags={"higher_products_complete": False},
        ext=ext,
        serre_ext=serre_ext,
        products=products,
        metadata={
            "name": "beauville_I0",
            "assumptions": [
                {
                    "fact": "the collection is linked by nonzero Ext^1 along "
                    "1 -> 2 -> 3 -> 4 and back through the twist of E_1",
                    "source": "Galkin-Shinder, character matrices of Prop. 3.7",
                },
                {
                    "fact": "the composition Ext^1(E_1,E_2) (x) Ext^1(E_2,E_3) "
                    "-> Ext^2(E_1,E_3) is nonzero",
                    "source": "Galkin-Shinder character computation",
                },
                {
                    "fact": "minimal model: one-dimensional witnesses for the "
                    "constrained Ext spaces, all unconstrained spaces zero",
                    "source": "modelling choice; only the stated facts enter "
                    "the height argument",
                },
                {
                    "fact": "H^2 of the anticanonical bundle has dimension 9",
                    "source": "Riemann-Roch on a fake quadric (K^2 = 8, "
                    "chi(O) = 1)",
                },
            ],
        },
    )


def _godeaux_document():
    serre_ext = [
        {"twist_src": i, "from": i, "deg": 4, "dim": 2} for i in range(1, 12)
    ] + [{"twist_src": 2, "from": 3, "deg": 4, "dim": 2}]
    return _surface_document(
        [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0],
        1,
        flags={"higher_products_complete": False},
        ext=[{"src": 2, "dst": 3, "deg": 0, "dim": 1}],
        serre_ext=serre_ext,
        products=[
            {
                "kind": "AN",
                "twist_src": 2,
                "chain": [2, 3],
                "degs": [0, 4],
                "entries": [[0, 0, 0, "1"], [0, 1, 1, "1"]],
            }
        ],
        metadata={
            "name": "godeaux",
            "assumptions": [
                {
                    "fact": "Hom(E_2, E_3) = k and all other forward Homs "
                    "vanish",
                    "source": "Boehning-Graf von Bothmer-Sosna, Lemma 10.2",
                },
                {
                    "fact": "Ext^2(E_3, E_2(-K)) = k^2 while degrees 0 and 1 "
                    "vanish",
                    "source": "divisor-class computation via Lemmas 8.2 and "
                    "10.2 of Boehning-Graf von Bothmer-Sosna",
                },
                {
                    "fact": "composition Hom(E_2,E_3) (x) Ext^2(E_3,E_2(-K)) "
                    "-> Ext^2(E_2,E_2(-K)) is a monomorphism",
                    "source": "ample-canonical degree argument",
                },
                {
                    "fact": "the chains (1,3),(1,7),(2,7),(4,7),(5,7),(6,7) "
                    "contribute nothing in total degree 3",
                    "source": "Boehning-Graf von Bothmer explicit computation",
                },
                {
                    "fact": "H^1(anticanonical) = 0 and H^2(anticanonical) = "
                    "k^2",
                    "source": "Riemann-Roch on the Godeaux surface (K^2 = 1)",
                },
                {
                    "fact": "the wrapped composition into Ext^2(E_3,E_3(-K)) "
                    "is not encoded (zero in this model); the height "
                    "conclusion does not depend on it",
                    "source": "modelling choice",
                },
            ],
        },
    )


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
    multiplication.  Returns (spec, pairing, xi).
    """
    from . import products as pr
    from .model import Cochain, CollectionSpec, FullnessData, SpecError
    if not 2 <= n <= 6:
        raise SpecError(f"projective-space fixture needs 2 <= n <= 6, got {n}")
    nvars = n
    a_dims, n_dims = {}, {}
    powers = {}  # letter -> the symmetric power of V it is
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if i < j:
                a_dims[(i, j)] = {0: len(_monomials(nvars, j - i))}
                powers[("A", i, j, 0)] = j - i
            n_dims[(i, j)] = {n - 1: len(_monomials(nvars, i + n - j))}
            powers[("N", i, j, n - 1)] = i + n - j
    products = {}
    for x, y in itertools.product(powers, repeat=2):
        key = pr.window_key((x, y))
        if key is not None:
            products[key] = _multiply_table(nvars, powers[x], powers[y])

    full_chain = tuple(range(1, n + 1))
    degs = (0,) * (n - 1) + (n - 1,)
    # both xi and the pairing are the antisymmetrizer on n-fold tensors of
    # the linear forms
    xi = Cochain([(full_chain, degs, antisymmetrizer_line(nvars))])
    pairing = {1: Cochain([(full_chain, degs, antisymmetrizer_line(nvars))])}

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
    return to_document(beilinson_fixture(n)[0])


_BUILDERS = {
    "beilinson_p1": lambda: _beilinson_document(2),
    "beilinson_p2": lambda: _beilinson_document(3),
    "beilinson_p3": lambda: _beilinson_document(4),
    "burniat": _burniat_document,
    "beauville_I0": _beauville_i0_document,
    "beauville_I1": _beauville_i1_document,
    "godeaux": _godeaux_document,
    "point": _point_document,
}


def fixture_document(name):
    if name not in _BUILDERS:
        raise KeyError(f"unknown fixture {name!r}")
    return _BUILDERS[name]()


def fixture_spec(name):
    from .model import parse
    return parse(fixture_document(name))


def write_all(directory):
    """Canonically serialize the whole corpus into a directory."""
    import os
    os.makedirs(directory, exist_ok=True)
    for name in FIXTURE_NAMES:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize(fixture_spec(name)))
    return [os.path.join(directory, f"{name}.json") for name in FIXTURE_NAMES]


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


def _cochain_record(cochain):
    terms = sorted(cochain.terms, key=lambda t: (tuple(t[0]), tuple(t[1])))
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
            rec["xi"] = _cochain_record(spec.fullness_data.xi)
        if spec.fullness_data.pairings:
            rec["pairings"] = [
                dict(_cochain_record(c), obj=i)
                for i, c in sorted(spec.fullness_data.pairings.items())
            ]
        doc["fullness"] = rec
    return doc


def serialize(spec):
    """Canonical JSON text: serialize . parse is the identity on canonical documents."""
    return json.dumps(to_document(spec), sort_keys=True, indent=1) + "\n"
