"""Validation: the consistency checks that `excol validate` reports.

Only `validate` compiles this module, through `model.validate`, and it loads
the product code (`products`, `relations`) only for a spec with product
tables and the three-valued rules (`qualitative`) only for a spec with
statuses or flags.  Each check reports its problems instead of raising.
"""

import itertools
from collections import namedtuple

from .fields import ExactLinError, field_by_name
from .model import NONZERO, ZERO, Record, SpecError, link_key

CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


class ValidationReport(Record):
    def __init__(self, checks):
        self.checks = checks  # list of CheckResult

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def is_link_key(spec, src, dst):
    """Whether (src, dst) is the `link_key` of a link, not a backward pair."""
    return src < dst <= spec.n or spec.n < dst <= spec.n + src


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

    A status clashing with a deduction is reported with the engine's message
    (`qualitative.Deductions.clash`).  On exact data, where the engine reads
    the dims alone, every link's merged status (stated, deduced or a window
    ZERO) must then match its dims at each degree where the dims are nonzero,
    a status is stated or a NONZERO is deduced; the deductions are read at
    those keys alone.  The problems are yielded in key order, so a report
    that keeps the first few reads only as many deduced NONZEROs as it needs.
    """
    if spec.qualitative is None and not spec.flags:
        return  # nothing stated and nothing deduced
    from .qualitative import Deductions, QualitativeExtTable
    table = spec.qualitative or QualitativeExtTable(spec.n)
    try:
        deduced = Deductions(spec)
    except SpecError as exc:
        yield str(exc)
        return
    message = deduced.clash(table)
    if message is not None:
        yield message
        return
    if not spec.is_exact:
        return
    import heapq  # loaded only on exact data, where the walk merges in the NONZEROs
    dims_at = {}  # (src, dst, deg) -> the exact dim of the link filed there
    for kind, spaces in (("A", spec.a_dims), ("N", spec.n_dims)):
        for (i, j), dims in spaces.items():
            src, dst, shift = link_key(spec, kind, i, j)
            dims_at.update(((src, dst, d - shift), m) for d, m in dims.items())
    keys = dims_at.keys() | {k for k in table.statuses if is_link_key(spec, *k[:2])}
    walk = heapq.merge(sorted(keys), deduced.nonzeros())
    for key, _ in itertools.groupby(walk):
        st, dim = deduced.status(key) or table.status(*key), dims_at.get(key, 0)
        if st == (ZERO if dim > 0 else NONZERO):
            yield f"status {st} at {key} but exact dim {dim}"


def validate(spec):
    """Run all consistency checks, returning a ValidationReport.

    Never raises on bad algebra: failures are carried in the report.  The
    A-infinity relations are checked over the spec's field, as the engine
    checks them (`relations.failing_relations`):
    those of three letters are associativity, the longer ones involve a
    higher product and are checked once the structure checks pass.
    """
    checks = []

    def report(name, problems, limit=None):
        problems = list(itertools.islice(problems, limit and limit + 1))
        detail = "; ".join(problems[:limit])
        if limit and len(problems) > limit:
            detail += "..."
        checks.append(CheckResult(name, not problems, detail))
        return not problems

    structure_ok = report("exceptionality", _check_structure(spec))
    tables = {**spec.products, **spec.higher}
    messages, sound = [], {}
    if tables:  # the product code is compiled only for a spec with product tables
        from . import products as pr
        from . import relations as rel
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
        failing = [w for w, _ in rel.failing_relations(sound, fld)] if sound else []
    except ExactLinError as exc:  # a spec built in code: parse refuses these
        report("associativity", [f"over field {spec.field_name!r}: {exc}"])
    else:
        # a window failing on two outputs is named once
        named = dict.fromkeys(
            (len(w) == 3, f"fails on {rel.describe(w)}") for w in failing
        )
        report("associativity", [msg for short, msg in named if short], 5)
        if spec.higher and structure_ok:
            report("a_infinity", [msg for short, msg in named if not short], 5)
    report("qualitative_consistency", _check_qualitative(spec), 5)
    return ValidationReport(checks)
