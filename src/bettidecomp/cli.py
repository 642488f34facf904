"""Command-line interface.

Every library capability is exposed as a subcommand with deterministic
output and a three-way exit-code contract:

    0   success / member / pass
    1   checked negative (not in the cone, bound violated, residual nonzero)
    2   usage or parse error, a refused window or series, or out of memory

Diagrams are read from a file path or stdin (``-``); the input format is
sniffed (JSON starts with ``{``) unless ``--input-format`` forces it.
``--format json|table`` selects the output flavour and defaults to json
when stdout is a pipe, table on a terminal.  ``BS_DECOMP_MAX_ENUM`` caps
only the maximal chains that ``chains`` lists (default 1000000): a
positive integer of any number of digits, any other value a usage error.
``chains --count-only`` prints the hook-length count, enumerates nothing
and reads no cap.
``facets``, ``verify-fan`` and ``membership`` refuse a window of more
pure diagrams than the library builds a table for (``poset._MAX_DIAGRAMS``),
and ``hilbert`` and ``bounds`` a series of more coefficients than
``core._MAX_SERIES_LENGTH``.

Each command's options are declared once, in ``_COMMANDS``.  A well-formed
command line, each flag given once and exactly, is matched against that
table directly, compiled once per command (``_matcher``).  argparse, whose
parser is built from the same table on first need, serves only the rest:
help, usage errors and the spellings the match leaves out (abbreviated
flags, ``--flag=value``, ``--``), so help and error text stay argparse's
own.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys

from . import io as dio
from .core import BettiDiagram, _parse_int, hk_residuals, pure_diagram, window_of
from .decompose import greedy_decompose
from .errors import BettiError, NotInCone, ParseError, WindowTooLarge
from .functionals import (
    _facet_columns,
    _rows,
    derived_window,
    expand_in_chain,
    membership_by_inequalities,
    verify_fan_convexity,
)
from .hilbert import hilbert_series, multiplicity_bounds
from .poset import Tableau, Window, _count_of, _decimal, _sorted_walk, chain_from_tableau, count_maximal_chains

_USAGE_ERROR = 2
_NEGATIVE = 1
_CHAIN_BATCH = 4096


def _max_enum() -> str:
    """The cap on the chains ``chains`` lists: its decimal digits, no
    leading zero.  Compared as text with the count's digits, never made an
    int, so a cap of any length is read, whatever the interpreter's
    int-to-str limit."""
    raw = os.environ.get("BS_DECOMP_MAX_ENUM", "")
    if not raw:
        return "1000000"
    digits = raw.lstrip("0")
    if not raw.isascii() or not raw.isdigit() or not digits:
        raise BettiError(f"BS_DECOMP_MAX_ENUM must be a positive integer, got {raw!r}")
    return digits


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        source = "standard input" if path == "-" else path
        raise ParseError(f"{source} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_diagram(path: str, forced: str) -> BettiDiagram:
    text = _read_text(path)
    fmt = forced
    if fmt == "auto":
        fmt = "json" if text.lstrip().startswith("{") else "table"
    return dio.parse_diagram(text, fmt)


def _out_format(args) -> str:
    if args.format:
        return args.format
    return "table" if sys.stdout.isatty() else "json"


def _human(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_human(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(value, list):
        lines = []
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_human(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
        return "\n".join(lines) if lines else f"{pad}[]"
    return f"{pad}{value}"


def _print_struct(obj, fmt: str) -> None:
    if fmt == "json":
        print(dio.emit_report(obj))
    else:
        print(_human(dio.encode(obj)))


def _print_diagram(b: BettiDiagram, fmt: str) -> None:
    sys.stdout.write(dio.emit_diagram(b, fmt))
    if fmt == "json":
        sys.stdout.write("\n")


def _nonnegative(text: str) -> int:
    if not text.isascii() or not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _integer(text: str) -> int:
    """ASCII '-?[0-9]+' only, like the table parser: int() would also take
    Unicode digits, underscores and a leading '+'."""
    try:
        return _parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_pure(args, fmt):
    try:
        degrees = [_parse_int(x.strip()) for x in args.degrees.split(",") if x.strip() != ""]
    except ValueError:
        print("error: --degrees must be comma-separated integers", file=sys.stderr)
        return _USAGE_ERROR
    p = pure_diagram(degrees, args.n)
    _print_diagram(p.betti, fmt)
    return 0


def _cmd_decompose(args, fmt):
    b = _load_diagram(args.diagram, args.input_format)
    try:
        dec = greedy_decompose(b)
    except NotInCone as exc:
        report = {
            "error": "not_in_cone",
            "reason": exc.reason,
            "partial": [[c, list(p.degrees)] for c, p in (exc.partial or ())],
            "residual": exc.residual,
        }
        _print_struct(report, fmt)
        return _NEGATIVE
    if fmt == "json":
        print(dio.emit_decomposition(dec))
    else:
        for c, p in dec.terms:
            print(f"{dio.format_rational(c)} * pi{tuple(p.degrees)}")
    return 0


def _cmd_expand(args, fmt):
    b = _load_diagram(args.diagram, args.input_format)
    try:
        rows = json.loads(_read_text(args.tableau))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid tableau JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    M, N = window_of(b)
    # a numbering valid at any s_min is valid at 0: its survivors carry the
    # numbers of the drops that continue the chain down to pi(N)
    chain = chain_from_tableau(Tableau(rows), Window(b.n, M, N, 0))
    coords = expand_in_chain(b, chain)
    payload = [
        [dio.format_rational(c), list(p.degrees)]
        for c, p in zip(coords, chain.elements)
    ]
    _print_struct(payload, fmt)
    return 0


class _Texts(dict):
    """Degree sequence -> its JSON text, the repr of its list of ints,
    stored on the first lookup."""

    def __missing__(self, seq):
        text = self[seq] = repr(list(seq))
        return text


def _cmd_chains(args, fmt):
    w = Window(args.n, args.M, args.N, args.s)
    if args.count_only:
        # in pieces: the count may pass the interpreter's int-to-str limit
        print(_decimal(count_maximal_chains(w)))
        return 0
    # the cap and the count compared as digits, since either may pass the
    # int-to-str limit: the longer text, or the later of two as long, is
    # the larger; refused before any chain is walked
    cap, count = _max_enum(), count_maximal_chains(w)
    digits = _decimal(count)
    if (len(digits), digits) > (len(cap), cap):
        raise WindowTooLarge(f"window has {_count_of(count)} maximal chains, more than {cap}")
    chains = _sorted_walk(w)
    # written a batch at a time, so a listing of a million chains is never
    # held encoded; the bytes are those _print_struct prints for the list of
    # maximal_chains.  Each degree sequence is encoded once per listing,
    # into a dict local to it (_Texts) and read by plain lookups.
    texts = _Texts()
    sep = "["
    while batch := [seqs for seqs, _, _ in itertools.islice(chains, _CHAIN_BATCH)]:
        if fmt == "json":
            # one join per chain and one per batch: "[c1], [c2], ..."
            sys.stdout.write(sep + "[" + "], [".join([", ".join(map(texts.__getitem__, seqs)) for seqs in batch]) + "]")
            sep = ", "
        else:
            print(_human([list(map(list, seqs)) for seqs in batch]))
    if fmt == "json":
        print("]")
    return 0


def _cmd_facets(args, fmt):
    w = Window(args.n, args.M, args.N, args.s)
    # written from the hyperplane records' grids, building no facet object:
    # the bytes json.dumps(..., sort_keys=True) and _human make of the
    # entries {case, grid, kind, removed} as dicts, since the repr of a list
    # of ints is its JSON text; each member's value is read as its plain
    # _value_ attribute, which the value property reaches only through a
    # Python-level descriptor
    cols, records = w.n + 1, _facet_columns(w).records
    if fmt == "json":
        # a grid's text is one format call on a template of the window's
        # shape, the text the repr of its rows as lists makes
        grid = ("[[" + "], [".join([", ".join(["{}"] * cols)] * w.rows) + "]]").format
        print("[" + ", ".join([
            f'{{"case": "{case._value_}", "grid": {grid(*cells)}, "kind": "{kind._value_}", '
            f'"removed": {list(anchor[1].degrees)!r}}}'
            for cells, kind, case, anchor in records
        ]) + "]")
    else:
        print(_human([
            {"case": case._value_, "grid": _rows(cells, cols), "kind": kind._value_, "removed": list(anchor[1].degrees)}
            for cells, kind, case, anchor in records
        ]))
    return 0


def _cmd_verify_fan(args, fmt):
    w = Window(args.n, args.M, args.N, args.s)
    report = verify_fan_convexity(w)
    if fmt == "json":
        # the text emit_report makes of the report, written from its fields
        # in sorted key order: an int's and a bool's JSON text written
        # directly, and only a counterexample through the generic encoder
        counterexample = report.counterexample
        print(
            f'{{"counterexample": {"null" if counterexample is None else dio.emit_report(counterexample)}, '
            f'"diagrams_checked": {report.diagrams_checked}, "facets_checked": {report.facets_checked}, '
            f'"passed": {"true" if report.passed else "false"}, '
            f'"window": {{"M": {w.M}, "N": {w.N}, "n": {w.n}, "s_min": {w.s_min}}}}}'
        )
    else:
        _print_struct(report, fmt)
    return 0 if report.passed else _NEGATIVE


def _cmd_hilbert(args, fmt):
    b = _load_diagram(args.diagram, args.input_format)
    h = hilbert_series(b)
    payload = {
        "denominator_power": h.n,
        "numerator": h.numerator,
        "coefficients": h.expand(args.truncate),
    }
    _print_struct(payload, fmt)
    return 0


def _cmd_bounds(args, fmt):
    b = _load_diagram(args.diagram, args.input_format)
    report = multiplicity_bounds(b, args.truncate)
    _print_struct(report, fmt)
    return 0 if report.passed else _NEGATIVE


def _cmd_check_hk(args, fmt):
    b = _load_diagram(args.diagram, args.input_format)
    residuals = hk_residuals(b, args.s)
    payload = {
        "s": args.s,
        "residuals": residuals,
        "satisfied": not any(residuals),
    }
    _print_struct(payload, fmt)
    return 0 if not any(residuals) else _NEGATIVE


def _cmd_membership(args, fmt):
    b = _load_diagram(args.diagram, args.input_format)
    w = derived_window(b)
    result = membership_by_inequalities(b, w)
    payload = {
        "window": w,
        "member": result.member,
    }
    if not result.member:
        payload["certificate"] = {
            "kind": result.violated.kind,
            "case": result.violated.functional.case,
            "removed": list(result.violated.removed.degrees),
            "grid": result.violated.functional.grid(),
            "value": result.value,
        }
    _print_struct(payload, fmt)
    return 0 if result.member else _NEGATIVE


# Every option is declared once, as the flag (or positional name) and the
# keyword arguments of its add_argument call: _build_parser adds them and
# _parse matches argv against them.
_FORMAT = (
    "--format",
    {"choices": ["json", "table"], "help": "output format (default: json on pipes, table on terminals)"},
)
# a subcommand's --format is set only when given, over the top-level one
_SUB_FORMAT = (_FORMAT[0], {**_FORMAT[1], "default": argparse.SUPPRESS})
_DIAGRAM = (
    ("diagram", {"help": "path to a diagram file, or - for stdin"}),
    (
        "--input-format",
        {"choices": ["auto", "json", "table"], "default": "auto", "help": "force the input format (default: sniff)"},
    ),
)
_WINDOW = (
    ("--n", {"type": _integer, "required": True, "help": "ambient variable count"}),
    ("--M", {"type": _integer, "required": True, "help": "lowest degree row"}),
    ("--N", {"type": _integer, "required": True, "help": "highest degree row"}),
    ("--s", {"type": _integer, "default": 0, "help": "minimal codimension (default 0)"}),
)
# name: (handler, help, options after its --format), in the order help lists them
_COMMANDS = {
    "pure": (
        _cmd_pure,
        "print the pure diagram of a degree sequence",
        (
            ("--degrees", {"required": True, "help": "comma-separated strictly increasing integers"}),
            ("--n", {"type": _integer, "required": True}),
        ),
    ),
    "decompose": (_cmd_decompose, "greedy chain decomposition of a diagram", _DIAGRAM),
    "expand": (
        _cmd_expand,
        "coordinates of a diagram in a chain basis",
        (*_DIAGRAM, ("--tableau", {"required": True, "help": "JSON file with the numbering matrix"})),
    ),
    "chains": (
        _cmd_chains,
        "enumerate the maximal chains of a window",
        (*_WINDOW, ("--count-only", {"action": "store_true", "help": "print the hook-length count, list no chain"})),
    ),
    "facets": (
        _cmd_facets,
        "boundary hyperplanes of the fan of a window, one per distinct integer "
        "coefficient vector: positive multiples repeat",
        _WINDOW,
    ),
    "verify-fan": (_cmd_verify_fan, "check convexity of the fan of a window", _WINDOW),
    "hilbert": (
        _cmd_hilbert,
        "Hilbert series coefficients of a diagram",
        (*_DIAGRAM, ("--truncate", {"type": _nonnegative, "default": 10, "help": "expansion depth (default 10)"})),
    ),
    "bounds": (
        _cmd_bounds,
        "shift bounds and the multiplicity inequality",
        (*_DIAGRAM, ("--truncate", {"type": _nonnegative, "default": None, "help": "series comparison depth"})),
    ),
    "check-hk": (
        _cmd_check_hk,
        "Herzog-Kuhl residual vector",
        (*_DIAGRAM, ("--s", {"type": _nonnegative, "required": True, "help": "number of equations to check"})),
    ),
    "membership": (_cmd_membership, "cone membership with violation certificate", _DIAGRAM),
}


def _options(name: str) -> tuple:
    """A command's declared options, its own --format first."""
    return (_SUB_FORMAT, *_COMMANDS[name][2])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process, and only when _parse leaves argv to argparse:
    # parse_args returns a fresh namespace per call, and argparse looks up
    # sys.stdout/sys.stderr only when it prints
    parser = argparse.ArgumentParser(
        prog="bettidecomp",
        description="Exact decomposition of Betti diagrams into chains of pure diagrams.",
    )
    parser.add_argument(_FORMAT[0], **_FORMAT[1])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kwargs in _options(name):
            p.add_argument(flag, **kwargs)
    return parser


def _is_value(token: str) -> bool:
    # what argparse reads as a value in every supported Python: a token
    # that does not start with '-', '-' itself, or an ASCII negative integer
    return not token.startswith("-") or token == "-" or (token[1:].isascii() and token[1:].isdigit())


# a degree list whose first degree is negative, such as -1,2, is a value of
# --degrees; argparse would read it as a flag
_DEGREE_LIST = re.compile(r"-?[0-9]+(,-?[0-9]+)*")


def _joined_degrees(argv: list) -> list:
    """argv for argparse: after ``pure`` and before ``--``, each
    ``--degrees``, or a prefix of it that argparse reads as it (``--d`` up:
    ``pure``'s other flags are ``--n``, ``--format`` and ``--help``),
    followed by a degree list joined to it as ``FLAG=V``."""
    out, k = [], 0
    while k < len(argv):
        token = argv[k]
        if token == "--":
            return out + argv[k:]
        degrees_flag = token.startswith("--d") and "--degrees".startswith(token)
        if degrees_flag and "pure" in out and k + 1 < len(argv) and _DEGREE_LIST.fullmatch(argv[k + 1]):
            token = f"{token}={argv[k + 1]}"
            k += 1
        out.append(token)
        k += 1
    return out


@functools.cache
def _matcher(name: str) -> tuple:
    """A command's options as ``_parse`` matches them, built once per
    command: (flags, positionals, required, defaults), with each flag's
    (dest, store_true, converter, choices), the positionals' in order, the
    dests that must be given, and the values of absent options as
    argparse sets them (a suppressed default sets none).  Shared by every
    call: read it, never change it."""
    flags, positionals, required, defaults = {}, [], set(), {}
    for flag, kwargs in _options(name):
        dest, store_true = flag.lstrip("-").replace("-", "_"), kwargs.get("action") == "store_true"
        spec = (dest, store_true, kwargs.get("type"), kwargs.get("choices"))
        if not flag.startswith("-"):
            positionals.append(spec)
            required.add(dest)
            continue
        flags[flag] = spec
        if kwargs.get("required"):
            required.add(dest)
        else:
            default = kwargs.get("default", False if store_true else None)
            if default is not argparse.SUPPRESS:
                defaults[dest] = default
    return flags, tuple(positionals), frozenset(required), defaults


def _parse(argv):
    """The namespace ``_build_parser().parse_args(argv)`` returns, or None
    unless argv is ``[--format F] command`` and the command's own flags,
    each given once and exactly, with a value its converter and choices
    accept, every required one among them.  Help, abbreviations,
    ``--flag=value``, ``--`` and every usage error are argparse's."""
    fmt = None
    if argv[:1] == ["--format"]:
        if len(argv) < 2 or argv[1] not in _FORMAT[1]["choices"]:
            return None
        fmt = argv[1]
        argv = argv[2:]
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags, positionals, required, defaults = _matcher(argv[0])
    given = {}
    positional = iter(positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        spec = flags.get(token)
        if spec is not None:
            dest, store_true, convert, choices = spec
            if store_true:
                value = True
            else:
                value = next(tokens, None)
                if value is None or not (_is_value(value) or (dest == "degrees" and _DEGREE_LIST.fullmatch(value))):
                    return None
        elif _is_value(token):
            spec = next(positional, None)
            if spec is None:
                # one positional too many
                return None
            dest, _, convert, choices = spec
            value = token
        else:
            # an unknown flag
            return None
        if dest in given:
            # a repeated flag
            return None
        if convert is not None:
            try:
                value = convert(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
    if not required <= given.keys():
        return None
    return argparse.Namespace(**{"format": fmt, "command": argv[0], **defaults, **given})


def run(argv) -> int:
    # as parse_args reads it
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(_joined_degrees(argv))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else _USAGE_ERROR
    fmt = _out_format(args)
    handler = _COMMANDS[args.command][0]
    try:
        return handler(args, fmt)
    except (OSError, BettiError) as exc:
        # the one cap a caller can raise is the chains listing's
        chains_cap = isinstance(exc, WindowTooLarge) and args.command == "chains"
        print(f"error: {exc}" + (" (raise BS_DECOMP_MAX_ENUM to allow more)" if chains_cap else ""), file=sys.stderr)
        return _USAGE_ERROR
    except MemoryError:
        # exit 1 is for checked negatives only
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return _USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
