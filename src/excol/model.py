"""Data model for exceptional-collection inputs.

A collection document records, for objects E_1, ..., E_n on a variety of
dimension dim_x:

  * graded dimensions of Ext(E_i, E_j) for i < j          ("ext"),
  * graded dimensions of Ext(E_j, S^{-1} E_i) for i <= j  ("serre_ext"),
    where S^{-1} F = F (x) omega^{-1} [-dim_x] is the inverse Serre functor,
  * structure constants of the composition products and, optionally, of
    higher products                                        ("products",
    "higher_products"),
  * optional three-valued Ext-vanishing knowledge on the anticanonically
    extended collection                                    ("qualitative"),
  * optional labels, canonical degrees, geometric flags, and fullness
    certificate data.

Ext(E_i, E_i) = k.id is implicit and never stored; documents mentioning a
backwards Ext space are rejected.  Unspecified spaces are zero, unspecified
products are zero maps.  The canonical writer is `documents.serialize`:
sorted keys, sorted entry lists, rationals as "p/q" strings, so serialize .
parse is the identity on canonical documents.  Product records are read by
`products`, which only a document with products loads, the `qualitative`
record by `qualitative` and the `fullness` record by `certificate`, each
only for a document with one; the checks that `validate` runs live in
`validation`, which no other job loads.
"""

import json

from .fields import QQ, ExactLinError, field_by_name

ZERO = "ZERO"
NONZERO = "NONZERO"
UNKNOWN = "UNKNOWN"

INF = float("inf")

KNOWN_FLAGS = {
    "is_surface",
    "ample_canonical",
    "line_bundles",
    "h2_anticanonical_nonzero",
    "higher_products_complete",
    "k_squared",
}


class SpecError(ValueError):
    """Malformed collection document."""


def is_int(value):
    """An integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _frac(value):
    """A JSON coefficient as an element of Q (`fields.QQ` decides which)."""
    if isinstance(value, bool):
        raise SpecError(f"bad rational {value!r}")
    try:
        return QQ.of(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"bad rational {value!r}") from exc


class Record:
    """A mutable record: equal to a record of its class with equal attributes."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Cochain(Record):
    """An element of (or functional on) a sum of chain-tensor spaces.

    terms: list of (chain, degs, {basis_index: rational}); degs lists the
    internal degrees of the word factors, twisted factor last.
    """

    def __init__(self, terms):
        self.terms = terms


class FullnessData(Record):
    def __init__(self, xi=None, pairings=None):
        self.xi = xi  # Cochain or None
        self.pairings = {} if pairings is None else pairings  # object index -> Cochain


class CollectionSpec(Record):
    def __init__(
        self, n, dim_x, field_name="Q", a_dims=None, n_dims=None, tables=None,
        qualitative=None, labels=None, canonical_degrees=None, flags=None,
        metadata=None, fullness_data=None,
    ):
        self.n = n
        self.dim_x = dim_x
        self.field_name = field_name
        self.a_dims = {} if a_dims is None else a_dims  # (i, j) -> {deg: dim}, i < j
        self.n_dims = {} if n_dims is None else n_dims  # (i, j) -> {deg: dim}, i <= j
        # product key -> table, every arity; the arity is len(key[3])
        self.tables = {} if tables is None else tables
        self.qualitative = qualitative  # QualitativeExtTable or None
        self.labels = labels
        self.canonical_degrees = canonical_degrees
        self.flags = {} if flags is None else flags
        self.metadata = {} if metadata is None else metadata
        self.fullness_data = fullness_data  # FullnessData or None

    def a_space(self, i, j):
        return self.a_dims.get((i, j), {})

    def n_space(self, i, j):
        return self.n_dims.get((i, j), {})

    def space(self, kind, i, j):
        return self.a_space(i, j) if kind == "A" else self.n_space(i, j)

    def space_dim(self, kind, i, j, deg):
        return self.space(kind, i, j).get(deg, 0)

    @property
    def is_exact(self):
        """Exact dims are the primary data whenever any are supplied."""
        return bool(self.a_dims or self.n_dims) or self.qualitative is None

    @property
    def max_arity(self):
        return max((len(k[3]) for k in self.tables), default=2)

    @property
    def higher_complete(self):
        """Whether absent higher products are known zero (vs merely unknown)."""
        return bool(self.flags.get("higher_products_complete", True))


# -- parsing ----------------------------------------------------------------


def _require(cond, msg, *args):
    """Raise SpecError unless cond; the message is formatted from args only then."""
    if not cond:
        raise SpecError(msg.format(*args))


def _list(value, what):
    _require(isinstance(value, list), "{} must be a list, got {!r}", what, value)
    return value


def _int_tuple(value, what):
    ok = isinstance(value, list) and all(map(is_int, value))
    _require(ok, "{} must be a list of integers, got {!r}", what, value)
    return tuple(value)


def check_field_name(name):
    """Accept "Q" or "F<p>" with p prime; anything else is a SpecError."""
    _require(isinstance(name, str), "bad field {!r}", name)
    try:
        field_by_name(name)
    except ExactLinError as exc:
        raise SpecError(f"bad field {name!r}: {exc}") from None


def check_coefficients(spec):
    """Refuse a product coefficient or cochain value the spec's field cannot hold."""
    fld = field_by_name(spec.field_name)
    values = [c for table in spec.tables.values() for row in table.values() for c in row.values()]
    fd = spec.fullness_data or FullnessData()
    for cochain in filter(None, (fd.xi, *fd.pairings.values())):
        values += [v for _, _, vals in cochain.terms for v in vals.values()]
    for value in values:
        try:
            fld.of(value)
        except ExactLinError as exc:
            raise SpecError(f"coefficient {value} in field {fld.name}: {exc}") from None


def _parse_graded(records, n, key_fields, lo_le_hi):
    """Shared reader for ext / serre_ext lists."""
    out = {}
    fsrc, fdst = key_fields
    for rec in records:
        _require(isinstance(rec, dict), "bad record {!r}", rec)
        try:
            a, b, deg, dim = rec[fsrc], rec[fdst], rec["deg"], rec["dim"]
        except KeyError as exc:
            raise SpecError(f"missing key {exc} in {rec!r}") from None
        _require(all(map(is_int, (a, b, deg, dim))), "non-integer field in {!r}", rec)
        _require(1 <= a <= n and 1 <= b <= n, "object index out of range in {!r}", rec)
        _require(dim >= 1, "dims must be >= 1, got {}", dim)
        if lo_le_hi:
            _require(a <= b, "twist source must be <= source object in {!r}", rec)
        else:
            _require(a < b, "no backwards or diagonal Ext allowed: {!r}", rec)
        space = out.setdefault((a, b), {})
        _require(deg not in space, "duplicate degree in {!r}", rec)
        space[deg] = dim
    return out


TOP_KEYS = {
    "n",
    "dim_x",
    "field",
    "objects",
    "ext",
    "serre_ext",
    "products",
    "higher_products",
    "qualitative",
    "flags",
    "metadata",
    "fullness",
}


def parse(document):
    """Parse a document (JSON text, UTF-8 bytes or dict tree) into a CollectionSpec.

    Text that cannot be read as a document is a SpecError: invalid UTF-8,
    malformed JSON, nesting too deep for the decoder, or an integer literal
    beyond Python's limit on the digits it converts.
    """
    if isinstance(document, (str, bytes)):
        try:
            if isinstance(document, bytes):
                document = document.decode("utf-8")
            document = json.loads(document)
        except (ValueError, RecursionError) as exc:
            raise SpecError(f"malformed JSON: {exc}") from None
    _require(isinstance(document, dict), "document must be a JSON object")
    unknown = set(document) - TOP_KEYS
    _require(not unknown, "unknown top-level keys {}", sorted(unknown))
    n = document.get("n")
    dim_x = document.get("dim_x")
    _require(is_int(n) and n >= 1, "n must be a count >= 1, got {!r}", n)
    _require(is_int(dim_x) and dim_x >= 0, "dim_x must be >= 0, got {!r}", dim_x)
    field_name = document.get("field", "Q")
    check_field_name(field_name)
    for key in ("ext", "serre_ext", "products", "higher_products", "objects"):
        _require(isinstance(document.get(key, []), list), "{} must be a list", key)
    for key in ("qualitative", "flags", "metadata", "fullness"):
        _require(isinstance(document.get(key, {}), dict), "{} must be an object", key)

    # built first: the product records are checked against its dims
    spec = CollectionSpec(n, dim_x, field_name)
    spec.a_dims = _parse_graded(document.get("ext", ()), n, ("src", "dst"), False)
    spec.n_dims = _parse_graded(
        document.get("serre_ext", ()), n, ("twist_src", "from"), True
    )

    if document.get("products") or document.get("higher_products"):
        from . import products as pr  # compiled only for a document with products
        for name, what in (("products", "product"), ("higher_products", "higher product")):
            for rec in document.get(name, ()):
                key, table = pr.parse_product(rec, n, spec.space_dim, name == "products")
                _require(key not in spec.tables, "duplicate {} {}", what, key)
                if table:
                    spec.tables[key] = table

    if "qualitative" in document:
        from .qualitative import parse_qualitative  # only a qualitative document
        spec.qualitative = parse_qualitative(document["qualitative"], n)

    if "objects" in document:
        objs = document["objects"]
        _require(len(objs) == n, "objects must list n items")
        _require(all(isinstance(o, dict) for o in objs), "objects must be objects")
        for o in objs:
            unknown = set(o) - {"label", "canonical_degree"}
            _require(not unknown, "unknown object keys {} in {!r}", sorted(unknown), o)
            _require(isinstance(o.get("label", ""), str), "label must be a string: {!r}", o)
        spec.labels = [o.get("label", f"E{i + 1}") for i, o in enumerate(objs)]
        if any("canonical_degree" in o for o in objs):
            _require(
                all("canonical_degree" in o for o in objs),
                "canonical_degree must be given for all objects or none",
            )
            spec.canonical_degrees = [o["canonical_degree"] for o in objs]
            _require(all(map(is_int, spec.canonical_degrees)), "bad canonical degrees")

    flags = spec.flags = dict(document.get("flags", {}))
    unknown = set(flags) - KNOWN_FLAGS
    _require(not unknown, "unknown flags {}", sorted(unknown))
    for key, value in flags.items():
        kind = "an integer" if key == "k_squared" else "true or false"
        typed = is_int(value) if key == "k_squared" else isinstance(value, bool)
        _require(typed, "flag {} must be {}, got {!r}", key, kind, value)
    spec.metadata = dict(document.get("metadata", {}))

    if "fullness" in document:
        from .certificate import parse_fullness  # only a document with a certificate
        spec.fullness_data = parse_fullness(document["fullness"], spec)

    check_coefficients(spec)
    return spec


def validate(spec):
    """Run all consistency checks (`validation.validate`): a ValidationReport."""
    from .validation import validate
    return validate(spec)


# -- chain links ---------------------------------------------------------------


def link_key(spec, kind, i, j):
    """The link's (src, dst) in a QualitativeExtTable, and its degree shift.

    Ext(E_i, E_j) is (i, j); Ext(E_j, S^{-1} E_i) is (j, n + i), whose dims
    sit dim_x above the anticanonical degrees of the table.
    """
    return (i, j, 0) if kind == "A" else (j, spec.n + i, spec.dim_x)
