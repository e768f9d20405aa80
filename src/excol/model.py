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
products are zero maps.  The canonical writer is `fixtures.serialize`:
sorted keys, sorted entry lists, rationals as "p/q" strings, so serialize .
parse is the identity on canonical documents.  Product records are read by
`products`, which only a document with products loads.
"""

import json
from collections import namedtuple

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


class QualitativeExtTable(Record):
    """Three-valued Ext knowledge on the anticanonically extended collection.

    Keys are (src, dst, deg) with src in 1..n and dst in 1..2n; dst = n + i
    stands for E_i (x) omega^{-1}.  Degrees outside degree_window (a pair
    (lo, hi) or None) are ZERO when a window is declared, UNKNOWN otherwise.
    """

    def __init__(self, n, statuses=None, degree_window=None):
        self.n = n
        self.statuses = {} if statuses is None else statuses
        self.degree_window = degree_window

    def status(self, src, dst, deg):
        got = self.statuses.get((src, dst, deg))
        if got is not None:
            return got
        if self.degree_window is not None:
            lo, hi = self.degree_window
            if deg < lo or deg > hi:
                return ZERO
        return UNKNOWN

    def se_interval(self, src, dst):
        """Interval [lo, hi] for the minimal degree with nonzero Ext.

        lo = first degree not known ZERO (or +inf when everything is ZERO),
        hi = first degree known NONZERO (or +inf).  Without a degree window
        the lower end is -inf: finitely many statuses cannot bound first
        possible nonvanishing from below.
        """
        if self.degree_window is None:
            declared = sorted(d for (s, t, d) in self.statuses if s == src and t == dst)
            hi = INF
            for d in declared:
                if self.statuses[(src, dst, d)] == NONZERO:
                    hi = d
                    break
            return (-INF, hi)
        lo_deg, hi_deg = self.degree_window
        lo = INF
        hi = INF
        for d in range(lo_deg, hi_deg + 1):
            st = self.status(src, dst, d)
            if st != ZERO and lo == INF:
                lo = d
            if st == NONZERO:
                hi = d
                break
        return (lo, hi)

    def merged_with(self, updates):
        """New table with extra ZERO/NONZERO facts; conflicts raise SpecError."""
        statuses = dict(self.statuses)
        for key, st in updates.items():
            old = statuses.get(key)
            if old is not None and old != st:
                raise SpecError(f"qualitative conflict at {key}: {old} vs {st}")
            if self.degree_window is not None and st == NONZERO:
                lo, hi = self.degree_window
                if key[2] < lo or key[2] > hi:
                    raise SpecError(
                        f"NONZERO status at {key} outside degree window"
                    )
            statuses[key] = st
        return QualitativeExtTable(self.n, statuses, self.degree_window)


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
        self, n, dim_x, field_name="Q", a_dims=None, n_dims=None, products=None,
        higher=None, qualitative=None, labels=None, canonical_degrees=None,
        flags=None, metadata=None, fullness_data=None,
    ):
        self.n = n
        self.dim_x = dim_x
        self.field_name = field_name
        self.a_dims = {} if a_dims is None else a_dims  # (i, j) -> {deg: dim}, i < j
        self.n_dims = {} if n_dims is None else n_dims  # (i, j) -> {deg: dim}, i <= j
        self.products = {} if products is None else products  # arity-2 key -> table
        self.higher = {} if higher is None else higher  # arity >= 3 key -> table
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

    def product_table(self, key):
        if len(key[3]) == 2:  # the arity: one degree per source letter
            return self.products.get(key)
        return self.higher.get(key)

    @property
    def is_exact(self):
        """Exact dims are the primary data whenever any are supplied."""
        return bool(self.a_dims or self.n_dims) or self.qualitative is None

    @property
    def max_arity(self):
        if not self.higher:
            return 2
        return max(len(k[3]) for k in self.higher)

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
    tables = (*spec.products.values(), *spec.higher.values())
    values = [c for table in tables for row in table.values() for c in row.values()]
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


def _parse_qualitative(rec, n):
    window = rec.get("degree_window")
    if window is not None:
        ok = isinstance(window, list) and len(window) == 2 and all(map(is_int, window))
        _require(ok and window[0] <= window[1], "bad degree_window {!r}", window)
        window = tuple(window)
    statuses = {}
    for row in _list(rec.get("statuses", []), "statuses"):
        try:
            src, dst, deg, st = row["src"], row["dst"], row["deg"], row["status"]
        except (KeyError, TypeError):
            raise SpecError(f"bad qualitative row {row!r}") from None
        _require(st in (ZERO, NONZERO), "bad status {!r}", st)
        _require(all(map(is_int, (src, dst, deg))), "bad qualitative row {!r}", row)
        _require(1 <= src <= n and 1 <= dst <= 2 * n, "bad pair in {!r}", row)
        key = (src, dst, deg)
        _require(statuses.get(key, st) == st, "conflicting statuses at {}", key)
        if window is not None and st == NONZERO:
            ok = window[0] <= deg <= window[1]
            _require(ok, "NONZERO status at {} outside degree window", key)
        statuses[key] = st
    return QualitativeExtTable(n, statuses, window)


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

    prods, higher = spec.products, spec.higher
    if document.get("products") or document.get("higher_products"):
        from . import products as pr  # compiled only for a document with products
        for name, tables in (("products", prods), ("higher_products", higher)):
            for rec in document.get(name, ()):
                key, table = pr.parse_product(rec, n, spec.space_dim, tables is prods)
                what = "product" if tables is prods else "higher product"
                _require(key not in tables, "duplicate {} {}", what, key)
                if table:
                    tables[key] = table

    if "qualitative" in document:
        spec.qualitative = _parse_qualitative(document["qualitative"], n)

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
        rec = document["fullness"]
        fullness = FullnessData(_parse_cochain(rec["xi"]) if "xi" in rec else None)
        for prec in _list(rec.get("pairings", []), "pairings"):
            ok = isinstance(prec, dict) and is_int(prec.get("obj"))
            _require(ok and prec["obj"] not in fullness.pairings, "{}: {!r}",
                     "duplicate pairing obj" if ok else "pairing needs obj", prec)
            fullness.pairings[prec["obj"]] = _parse_cochain(prec)
        spec.fullness_data = fullness

    check_coefficients(spec)
    return spec


# -- degree bookkeeping (surface lemmas) -------------------------------------


def extend_degrees(degrees, k_squared):
    """Canonical degrees of the anticanonically extended collection.

    Twisting by omega^{-1} shifts the canonical degree down by K^2.
    """
    return list(degrees) + [d - k_squared for d in degrees]


def hom_vanishing_updates(extended_degrees, n):
    """ZERO deductions for degree-0 Ext from non-increasing canonical degree.

    On a surface with ample canonical class, a nonzero map between
    non-isomorphic line bundles forces the canonical degree to go up, so
    deg(src) >= deg(dst) kills all Homs.  Only ZERO facts are produced.
    """
    if len(extended_degrees) != 2 * n:
        raise SpecError("need one degree per object of the extended collection")
    updates = {}
    for src in range(1, n + 1):
        for dst in range(1, 2 * n + 1):
            if dst == src:
                continue
            if extended_degrees[src - 1] >= extended_degrees[dst - 1]:
                updates[(src, dst, 0)] = ZERO
    return updates


def qualitative_deductions(spec):
    """The statuses that the flags and canonical degrees deduce, or {}.

    On a surface of line bundles: with ample canonical class, canonical
    degrees and K^2, the degree criterion gives ZEROs; with a nonzero
    H^2(omega^{-1}), NONZERO at (i, n + i, 2) caps the length-0 chains at 2.
    Missing flags or degrees deduce nothing.
    """
    flags = spec.flags
    if not (flags.get("is_surface") and flags.get("line_bundles")):
        return {}
    updates = {}
    degrees, k_squared = spec.canonical_degrees, flags.get("k_squared")
    if flags.get("ample_canonical") and degrees is not None and k_squared is not None:
        updates = hom_vanishing_updates(extend_degrees(degrees, k_squared), spec.n)
    if flags.get("h2_anticanonical_nonzero"):
        updates.update({(i, spec.n + i, 2): NONZERO for i in range(1, spec.n + 1)})
    return updates


def merged_table(spec):
    """The stated statuses merged with the flags' deductions.

    A deduction clashing with a status raises SpecError; nothing is retracted.
    """
    return (spec.qualitative or QualitativeExtTable(spec.n)).merged_with(
        qualitative_deductions(spec)
    )


# -- chain links ---------------------------------------------------------------


def link_key(spec, kind, i, j):
    """The link's (src, dst) in a QualitativeExtTable, and its degree shift.

    Ext(E_i, E_j) is (i, j); Ext(E_j, S^{-1} E_i) is (j, n + i), whose dims
    sit dim_x above the anticanonical degrees of the table.
    """
    return (i, j, 0) if kind == "A" else (j, spec.n + i, spec.dim_x)


def is_link_key(spec, src, dst):
    """Whether (src, dst) is the `link_key` of a link, not a backward pair."""
    return src < dst <= spec.n or spec.n < dst <= spec.n + src


# -- validation --------------------------------------------------------------


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


class ValidationReport(Record):
    def __init__(self, checks):
        self.checks = checks  # list of CheckResult

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _check_structure(spec):
    problems = []
    for (i, j), space in spec.a_dims.items():
        if not (1 <= i < j <= spec.n):
            problems.append(f"bad Ext pair ({i},{j})")
        if any(d < 1 for d in space.values()):
            problems.append(f"non-positive dim in Ext({i},{j})")
    for (i, j), space in spec.n_dims.items():
        if not (1 <= i <= j <= spec.n):
            problems.append(f"bad twisted pair ({i},{j})")
        if any(d < 1 for d in space.values()):
            problems.append(f"non-positive dim in twisted Ext({i},{j})")
    return problems


def _check_qualitative(spec):
    """The statuses agree with the flags' deductions and with exact dims.

    The statuses and the deductions are merged as the engine merges them
    (`merged_table`), and a clash is reported with the engine's message.  On
    exact data, where the engine reads the dims alone, every link's merged
    status (stated, deduced or a window ZERO) must then match its dims at
    each degree where the dims are nonzero or a status is stated.
    """
    try:
        table = merged_table(spec)
    except SpecError as exc:
        return [str(exc)]
    if not spec.is_exact:
        return []
    dims_at = {}  # (src, dst, deg) -> the exact dim of the link filed there
    for kind, spaces in (("A", spec.a_dims), ("N", spec.n_dims)):
        for (i, j), dims in spaces.items():
            src, dst, shift = link_key(spec, kind, i, j)
            dims_at.update(((src, dst, d - shift), m) for d, m in dims.items())
    keys = dims_at.keys() | {k for k in table.statuses if is_link_key(spec, *k[:2])}
    problems = []
    for key in sorted(keys):
        st, dim = table.status(*key), dims_at.get(key, 0)
        if st == (ZERO if dim > 0 else NONZERO):
            problems.append(f"status {st} at {key} but exact dim {dim}")
    return problems


def validate(spec):
    """Run all consistency checks, returning a ValidationReport.

    Never raises on bad algebra: failures are carried in the report.  The
    A-infinity relations are checked over the spec's field, as the engine
    checks them (`products.failing_relations`):
    those of three letters are associativity, the longer ones involve a
    higher product and are checked once the structure checks pass.
    """
    checks = []

    def report(name, problems, limit=None):
        detail = "; ".join(problems[:limit])
        if limit and len(problems) > limit:
            detail += "..."
        checks.append(CheckResult(name, not problems, detail))
        return not problems

    structure_ok = report("exceptionality", _check_structure(spec))
    tables = {**spec.products, **spec.higher}
    messages, sound = [], {}
    if tables:  # products.py is compiled only for a spec with product tables
        from . import products as pr
        checked = {
            key: pr.product_problems(key, table, spec.space_dim, spec.n)
            for key, table in tables.items()
        }
        messages = [msg for msgs, _ in checked.values() for msg in msgs]
        # the relations of the well-shaped products, on the basis vectors only
        sound = {key: ok for key, (_, ok) in checked.items() if ok is not None}
    structure_ok = report("degree_additivity", messages) and structure_ok
    try:
        fld = field_by_name(spec.field_name)
        failing = [w for w, _ in pr.failing_relations(sound, fld)] if sound else []
    except ExactLinError as exc:  # a spec built in code: parse refuses these
        report("associativity", [f"over field {spec.field_name!r}: {exc}"])
    else:
        # a window failing on two outputs is named once
        named = dict.fromkeys(
            (len(w) == 3, f"fails on {pr.describe(w)}") for w in failing
        )
        report("associativity", [msg for short, msg in named if short], 5)
        if spec.higher and structure_ok:
            report("a_infinity", [msg for short, msg in named if not short], 5)
    report("qualitative_consistency", _check_qualitative(spec), 5)
    return ValidationReport(checks)
