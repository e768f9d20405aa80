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
prefix, and a command refuses an option it does not read (`READ_BY`).
`-h` or `--help` prints the usage and exits 0; any other misuse
prints the usage and an error to stderr and exits 2.  JSON output is
canonical (sorted keys), so identical runs are byte-identical.  Exit codes:
0 success, 1 validation or engine failure, 2 usage, I/O or format error.
This module reads the command line and the document and runs `validate`
and `fixture`; the six engine commands print through `views`.
"""

import json
import os
import sys

_ENGINE_ERRORS = ["model.SpecError", "nhh.DifferentialError", "fields.ExactLinError"]


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


def _emit(payload, as_json, lines):
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


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
    sys.stdout.write(fixtures.serialize(spec))
    return 0


def run_view(args):
    """An engine command: `views` formats its answer, loaded only for these."""
    spec = _load_spec(args)
    from . import views
    payload, lines = getattr(views, f"cmd_{args.command}")(spec, args)
    _emit(payload, args.json, lines)
    return 0


VIEWS = ("pseudoheight", "e1", "ss", "height", "report", "fullness")
COMMANDS = {"validate": cmd_validate, **dict.fromkeys(VIEWS, run_view)}
COMMANDS["fixture"] = cmd_fixture


USAGE = (
    f"usage: excol {{{','.join(COMMANDS)}}} [<input>]\n"
    "             [--json] [--list] [--max-page R] [--anticanonical]\n"
    "             [--hoh d0,d1,...] [--field Q|Fp]"
)
SWITCHES = ("--json", "--anticanonical", "--list")
VALUED = ("--max-page", "--hoh", "--field")
# option -> the commands that read it; every other command refuses it
READ_BY = {
    "--json": tuple(COMMANDS),
    "--field": ("validate", *VIEWS),
    "--max-page": ("ss",),
    "--hoh": ("report",),
    "--anticanonical": ("pseudoheight",),
    "--list": ("fixture",),
}


class Args:
    """A parsed command line; every option not given keeps its default."""

    command = input = max_page = hoh = field = None
    json = anticanonical = list = False


def parse_args(argv):
    """Read excol's fixed grammar; returns Args, or None for -h/--help."""
    args, positionals, given, rest = Args(), [], [], iter(argv)
    for arg in rest:
        if arg in ("-h", "--help"):
            return None
        if arg == "-" or not arg.startswith("-"):
            positionals.append(arg)
            continue
        name, eq, value = arg.partition("=")
        given.append(name)
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
    for name in given:
        if args.command not in READ_BY[name]:
            raise UsageError(f"{args.command} does not read {name}")
    if args.command != "fixture" and args.input is None:
        raise UsageError("an input document is required")
    if args.max_page is not None:
        try:
            args.max_page = int(args.max_page)
        except ValueError:
            raise UsageError(f"--max-page needs an integer, not {args.max_page!r}") from None
        if args.max_page < 1:
            raise UsageError("--max-page must be >= 1")
    if args.hoh:
        try:
            hoh = [int(x) for x in args.hoh.split(",")]
            if min(hoh) < 0:
                raise ValueError
        except ValueError:
            raise UsageError(f"bad --hoh list {args.hoh!r}") from None
        args.hoh = hoh
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
