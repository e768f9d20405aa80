"""Command-line driver: `excol <command> [<input>] [options]`, as `USAGE` spells out.

An input is a document on disk, a file under EXCOL_FIXTURES or a built-in
fixture; `fixture` without one (or with `--list`) lists the fixtures.  The
grammar is fixed (`parse_args`): options in any order, names matched whole,
and a command refuses an option it does not read (`READ_BY`).  JSON output
is canonical.  Exit codes: 0 success, 1 failed validation or `fields.EngineError`,
2 usage, I/O or format error (`CliFormatError`, output write errors too),
whether or not stderr can be written.  `main(argv)` returns the code; a
process runs `entry()`, which flushes the output and ends with `os._exit`.
"""

import importlib
import os
import sys


class CliFormatError(Exception):
    """Exit code 2: unusable input."""


class UsageError(CliFormatError):
    """Exit code 2: a command line outside the grammar."""


def _load_document(path):
    name = path.removeprefix("fixtures/").removesuffix(".json")
    candidates = [path, path + ".json"]
    env_dir = os.environ.get("EXCOL_FIXTURES")
    if env_dir and not os.path.dirname(name):  # a bare name, as for the built-ins
        candidates += [os.path.join(env_dir, os.path.basename(path)),
                       os.path.join(env_dir, name + ".json")]
    for cand in filter(os.path.isfile, candidates):
        try:
            with open(cand, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise CliFormatError(f"cannot read {cand}: {exc}") from exc
    from . import fixtures
    try:
        return fixtures.fixture_document(name)
    except KeyError:
        raise CliFormatError(f"no such input: {path} (not a file, not in "
                             "EXCOL_FIXTURES, not a built-in fixture)") from None


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
        import json  # here only, so that `fixture <name>` loads no JSON codec
        lines = [json.dumps(payload, sort_keys=True, separators=(",", ":"))]
    _write("".join(f"{line}\n" for line in lines))


def _write(text):
    try:
        print(text, end="")  # prints nothing when stdout is closed (None)
    except OSError as exc:
        raise CliFormatError(f"cannot write output: {exc}") from None


def cmd_validate(args):
    from .model import validate
    report = validate(_load_spec(args))
    lines = []
    payload = {"checks": [], "ok": report.ok}
    for check in report.checks:
        status = "ok" if check.passed else "FAIL"
        suffix = f": {check.detail}" if check.detail else ""
        lines.append(f"{status:4s} {check.name}{suffix}")
        payload["checks"].append(dict(name=check.name, passed=check.passed, detail=check.detail))
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
        _write(fixtures.fixture_document(args.input))  # stored in canonical form
    except KeyError:
        raise CliFormatError(f"unknown fixture {args.input!r}") from None
    return 0


def run_view(args):
    """An engine command: the module `VIEWS` names formats its answer."""
    spec = _load_spec(args)
    views = importlib.import_module(f".{VIEWS[args.command]}", __package__)
    payload, lines = getattr(views, f"cmd_{args.command}")(spec, args)
    _emit(payload, args.json, lines)
    return 0


# engine command -> the module that formats its answer, loaded only for it
VIEWS = {"pseudoheight": "views", "e1": "views", "ss": "analysis_views",
         "height": "analysis_views", "report": "analysis_views", "fullness": "analysis_views"}
COMMANDS = {"validate": cmd_validate, **dict.fromkeys(VIEWS, run_view), "fixture": cmd_fixture}


USAGE = (
    f"usage: excol {{{','.join(COMMANDS)}}} [<input>]\n"
    "             [--json] [--list] [--max-page R] [--anticanonical]\n"
    "             [--hoh d0,d1,...] [--field Q|Fp]"
)
VALUED = ("--max-page", "--hoh", "--field")
# option -> the commands that read it; every other command refuses it.  An
# option outside VALUED is a switch
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
        if name in VALUED:
            value = value if eq else next(rest, None)
            if value is None:
                raise UsageError(f"{name} needs a value")
            setattr(args, name[2:].replace("-", "_"), value)
        elif name in READ_BY and not eq:  # a switch
            setattr(args, name[2:], True)
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
    if args.command == "fixture" and args.input and args.json and not args.list:
        raise UsageError("fixture does not read --json without --list")
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


def _fail(code, message):
    """Report on stderr and return the exit code, which a failed write there keeps."""
    try:
        sys.stderr.write(f"{message}\n")
        sys.stderr.flush()
    except (AttributeError, OSError):  # stderr is None (never opened) or closed
        pass
    return code


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            _write(USAGE + "\n")
            return 0
        return COMMANDS[args.command](args)
    except UsageError as exc:
        return _fail(2, f"{USAGE}\nerror: {exc}")
    except CliFormatError as exc:
        return _fail(2, f"error: {exc}")
    # `fields.EngineError` exits 1; a job that never loaded `fields` raised none
    except getattr(sys.modules.get(f"{__package__}.fields"), "EngineError", ()) as exc:
        return _fail(1, f"error: {exc}")


def entry():
    """Run `main` as a process: flush its output, then end at once."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = _fail(2, f"error: cannot write output: {exc}")
    os._exit(code)
