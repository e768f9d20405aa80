"""Command-line driver.

    excol <command> [<input>] [--json] [--list] [--max-page R] [--anticanonical]
          [--hoh d0,d1,...] [--field Q|Fp]

Commands: validate, pseudoheight, e1, ss, height, report, fullness, fixture.
Inputs name a collection document on disk, a file under the directory in
EXCOL_FIXTURES, or a built-in fixture; only `fixture` runs without one (or
with `--list`) and then lists the built-in fixtures.  Options may come in
any order, before, between or after the two positionals; a valued flag is
written `--flag value` or `--flag=value`, and its value is taken as given,
even when it starts with `-`.  Option names are matched whole, never by
prefix.  `-h` or `--help` prints the usage and exits 0; any other misuse
prints the usage and an error to stderr and exits 2.  JSON output is
canonical (sorted keys), so identical runs are byte-identical.  Exit codes:
0 success, 1 validation or engine failure, 2 usage, I/O or format error.
"""

import json
import os
import sys

_ENGINE_ERRORS = ["model.SpecError", "nhh.DifferentialError", "exactlin.ExactLinError"]


class CliFormatError(Exception):
    """Exit code 2: unusable input."""


class UsageError(CliFormatError):
    """Exit code 2: a command line outside the grammar."""


def _load_document(path):
    candidates = [path, path + ".json"]
    env_dir = os.environ.get("EXCOL_FIXTURES")
    base = os.path.basename(path)
    base_noext = base[:-5] if base.endswith(".json") else base
    if env_dir:
        candidates += [
            os.path.join(env_dir, base),
            os.path.join(env_dir, base_noext + ".json"),
        ]
    for cand in candidates:
        if os.path.isfile(cand):
            try:
                with open(cand, "rb") as fh:
                    return fh.read()
            except OSError as exc:
                raise CliFormatError(f"cannot read {cand}: {exc}") from exc
    from . import fixtures
    try:
        return fixtures.fixture_document(base_noext)
    except KeyError:
        raise CliFormatError(
            f"no such input: {path} (not a file, not in EXCOL_FIXTURES, "
            f"not a built-in fixture)"
        ) from None


def _load_spec(args):
    from . import model
    doc = _load_document(args.input)
    try:
        spec = model.parse(doc)
    except model.SpecError as exc:
        raise CliFormatError(f"bad collection document: {exc}") from exc
    if args.field:
        try:
            model.check_field_name(args.field)
            spec.field_name = args.field
            model.check_coefficients(spec)
        except model.SpecError as exc:
            raise CliFormatError(str(exc)) from None
    return spec


def _jval(v):
    if v in (float("inf"), float("-inf")):
        return str(v)
    return int(v) if isinstance(v, float) else v


def _emit(payload, as_json, lines):
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def _grid_lines(title, table):
    if not table:
        return [f"{title}: empty"]
    mps = sorted({mp for mp, _ in table})
    qs = sorted({q for _, q in table}, reverse=True)
    width = max(4, max(len(str(d)) for d in table.values()) + 2)
    out = [f"{title} (rows q, columns -p):"]
    header = "      " + "".join(str(mp).rjust(width) for mp in mps)
    out.append(header)
    for q in qs:
        cells = []
        for mp in mps:
            d = table.get((mp, q))
            cells.append((str(d) if d else ".").rjust(width))
        out.append(f"  q={q:<3}" + "".join(cells))
    return out


def _table_json(table):
    return [[mp, q, d] for (mp, q), d in sorted(table.items())]


def _nhh_json(dims):
    return {str(t): d for t, d in sorted(dims.items())}


def cmd_validate(args):
    from .model import validate
    report = validate(_load_spec(args))
    lines = []
    payload = {"checks": [], "ok": report.ok}
    for check in report.checks:
        status = "ok" if check.passed else "FAIL"
        suffix = f": {check.detail}" if check.detail else ""
        lines.append(f"{status:4s} {check.name}{suffix}")
        payload["checks"].append(
            {"name": check.name, "passed": check.passed, "detail": check.detail}
        )
    lines.append("all checks passed" if report.ok else "validation failed")
    _emit(payload, args.json, lines)
    return 0 if report.ok else 1


def _analysis(args):
    from .heights import Analysis
    return Analysis(_load_spec(args))


def _witness(a):
    chain = a.bounds.witness_chain
    return list(chain) if chain else None


def _interval(a):
    """Keys and line of an open (qualitative) pseudoheight interval."""
    lo, hi = _jval(a.bounds.lower), _jval(a.bounds.upper)
    payload = {"ph_ac_lower": lo, "ph_ac_upper": hi, "witness": _witness(a)}
    return payload, f"anticanonical pseudoheight interval: [{lo}, {hi}]"


def cmd_pseudoheight(args):
    a = _analysis(args)
    if a.spec.is_exact:
        payload = {"ph": _jval(a.ph), "ph_ac": _jval(a.ph_ac), "witness": _witness(a)}
        lines = [
            f"pseudoheight: {payload['ph']}",
            f"anticanonical pseudoheight: {payload['ph_ac']}",
            f"witness chain: {a.bounds.witness_chain}",
        ]
        if args.anticanonical:
            lines = lines[1:] + lines[:1]
    else:
        payload, line = _interval(a)
        lines = [line, f"upper bound witness chain: {a.bounds.witness_chain}"]
    _emit(payload, args.json, lines)
    return 0


def cmd_e1(args):
    from .nhh import build_e1
    table, _ = build_e1(_load_spec(args))
    nonzero_t = [mp + q for (mp, q), d in table.items() if d]
    payload = {
        "entries": _table_json(table),
        "min_total_degree": _jval(min(nonzero_t, default=float("inf"))),
    }
    lines = _grid_lines("first page", table)
    lines.append(f"minimal total degree: {payload['min_total_degree']}")
    _emit(payload, args.json, lines)
    return 0


def cmd_ss(args):
    from .nhh import spectral_sequence
    ss = spectral_sequence(_analysis(args).complex, max_page=args.max_page)
    payload = {
        "pages": {str(r): _table_json(t) for r, t in sorted(ss.pages.items())},
        "stable_page": ss.stable_page,
        "infinity": _table_json(ss.infinity),
    }
    lines = []
    shown = args.max_page or ss.stable_page
    for r in sorted(ss.pages):
        if r > shown:
            break
        lines += _grid_lines(f"page {r}", ss.pages[r])
    lines.append(f"stabilizes at page {ss.stable_page}")
    lines += _grid_lines("limit page", ss.infinity)
    _emit(payload, args.json, lines)
    return 0


def cmd_height(args):
    a = _analysis(args)
    h = a.height
    if a.spec.is_exact:
        payload = {"ph": _jval(a.ph), "ph_ac": _jval(a.ph_ac)}
        payload["nhh"] = _nhh_json(a.cohomology)
        lines = [
            f"pseudoheight: {payload['ph']} (witness {a.bounds.witness_chain})",
            f"height: {h}",
            "normal cohomology dims: "
            + ", ".join(f"{t}: {d}" for t, d in payload["nhh"].items()),
        ]
        if h.nhh_vanishes:
            lines.append(
                "warning: normal cohomology vanishes entirely; "
                "see the fullness command"
            )
    else:
        payload, line = _interval(a)
        lines = [line, f"height: {h}"]
    payload.update(he_lo=_jval(h.lo), he_hi=_jval(h.hi))
    _emit(payload, args.json, lines)
    return 0


def cmd_report(args):
    a = _analysis(args)
    hoh = None
    if args.hoh:
        try:
            hoh = [int(x) for x in args.hoh.split(",")]
            if min(hoh) < 0:
                raise ValueError
        except ValueError:
            raise CliFormatError(f"bad --hoh list {args.hoh!r}") from None
    rep = a.report(hoh)
    payload = {
        "ph": _jval(rep.ph),
        "ph_ac": _jval(rep.ph_ac),
        "he_lo": _jval(rep.height.lo),
        "he_hi": _jval(rep.height.hi),
        "he_ac_lo": _jval(rep.height_ac.lo),
        "he_ac_hi": _jval(rep.height_ac.hi),
        "used_shortcut": rep.used_shortcut,
        "iso_range": _jval(rep.iso_range),
        "mono_degree": _jval(rep.mono_degree),
        "deformation_equivalent": rep.deformation_equivalent,
        "witness": _witness(a),
    }
    if rep.nhh_dims is not None:
        payload["nhh"] = _nhh_json(rep.nhh_dims)
    if rep.hoh_x_dims is not None:
        payload["hoh_x"] = rep.hoh_x_dims
        payload["hoh_a"] = rep.hoh_a_dims
    if rep.ph is None:
        ph_line = _interval(a)[1]
    else:
        ph_line = f"pseudoheight: {_jval(rep.ph)} (anticanonical {_jval(rep.ph_ac)})"
    lines = [
        ph_line,
        f"height: {rep.height} (anticanonical {rep.height_ac})",
        f"shortcut used: {rep.used_shortcut}",
        f"restriction map: isomorphism for k <= {_jval(rep.iso_range)}, "
        f"monomorphism at k = {_jval(rep.mono_degree)}",
        f"deformation spaces agree: {rep.deformation_equivalent}",
    ]
    if rep.hoh_a_dims is not None:
        shown = [
            f"HOH^{k}(complement) = {d}"
            for k, d in enumerate(rep.hoh_a_dims)
            if d is not None
        ]
        lines.append("; ".join(shown) if shown else "no complement dims implied")
    _emit(payload, args.json, lines)
    return 0


def cmd_fullness(args):
    verdict = _analysis(args).fullness
    payload = {"status": verdict.status, "evidence": verdict.evidence}
    _emit(payload, args.json, [f"{verdict.status}: {verdict.evidence}"])
    return 0


def cmd_fixture(args):
    if args.list or args.input is None:
        from . import FIXTURE_NAMES
        _emit({"fixtures": FIXTURE_NAMES}, args.json, FIXTURE_NAMES)
        return 0
    from . import fixtures
    try:
        spec = fixtures.fixture_spec(args.input)
    except KeyError:
        raise CliFormatError(f"unknown fixture {args.input!r}") from None
    from .model import serialize
    sys.stdout.write(serialize(spec))
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "pseudoheight": cmd_pseudoheight,
    "e1": cmd_e1,
    "ss": cmd_ss,
    "height": cmd_height,
    "report": cmd_report,
    "fullness": cmd_fullness,
    "fixture": cmd_fixture,
}


USAGE = (
    f"usage: excol {{{','.join(COMMANDS)}}} [<input>]\n"
    "             [--json] [--list] [--max-page R] [--anticanonical]\n"
    "             [--hoh d0,d1,...] [--field Q|Fp]"
)
SWITCHES = ("--json", "--anticanonical", "--list")
VALUED = ("--max-page", "--hoh", "--field")


class Args:
    """A parsed command line; every option not given keeps its default."""

    command = input = max_page = hoh = field = None
    json = anticanonical = list = False


def parse_args(argv):
    """Read excol's fixed grammar; returns Args, or None for -h/--help."""
    args, positionals, rest = Args(), [], iter(argv)
    for arg in rest:
        if arg in ("-h", "--help"):
            return None
        if arg == "-" or not arg.startswith("-"):
            positionals.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name in SWITCHES and not eq:
            setattr(args, name[2:], True)
        elif name in VALUED:
            value = value if eq else next(rest, None)
            if value is None:
                raise UsageError(f"{name} needs a value")
            setattr(args, name[2:].replace("-", "_"), value)
        else:
            raise UsageError(f"unknown option {arg!r}")
    if not positionals:
        raise UsageError("a command is required")
    if len(positionals) > 2:
        raise UsageError(f"unexpected argument {positionals[2]!r}")
    args.command, args.input = (positionals + [None])[:2]
    if args.command not in COMMANDS:
        raise UsageError(f"unknown command {args.command!r}")
    if args.command != "fixture" and args.input is None:
        raise UsageError("an input document is required")
    if args.max_page is not None:
        try:
            args.max_page = int(args.max_page)
        except ValueError:
            raise UsageError(f"--max-page needs an integer, not {args.max_page!r}") from None
        if args.max_page < 1:
            raise UsageError("--max-page must be >= 1")
    return args


def _engine_errors():
    """The errors that exit 1; a submodule not loaded cannot have raised one."""
    loaded = vars(sys.modules[__package__])
    found = (path.split(".") for path in _ENGINE_ERRORS)
    return tuple(getattr(loaded[mod], cls) for mod, cls in found if mod in loaded)


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"{USAGE}\nerror: {exc}", file=sys.stderr)
        return 2
    if args is None:
        print(USAGE)
        return 0
    try:
        return COMMANDS[args.command](args)
    except CliFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _engine_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
