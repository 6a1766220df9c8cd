"""Command-line front end.

Every subcommand is a thin shim over one library operation: it reads diagram
files (``-`` for standard input), calls the operation, and writes either a
canonical diagram or a stable key:value report to standard output.

Exit codes: 0 success, 1 parse diagnostics, 2 an operation rejected its
input, 3 search exhausted without a result.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Optional, get_type_hints

from . import analysis, homology
from .bridge import (
    KirbyDiagram,
    dehn_to_joint_pairs,
    joint_pair_to_dehn,
    kirby_to_round1,
    round1_to_kirby,
)
from .model import DehnDiagram, LinkingMatrix, RoundDiagram, SurgeryError, _Diagram
from .moves import MOVES, MoveDescriptor, apply_move, bounded_equivalence_search
from .textio import Diagnostic, ParseError, parse, print_diagram

_RANGE_RE = re.compile(r"(-?[0-9]+)\.\.(-?[0-9]+)\Z")
#: Text int() reads as an integer, unless it has more digits than it allows.
_INT_TEXT_RE = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")

#: --kind accepts the enum value and the move function's name, in any case.
_KIND_ALIASES = {
    alias: kind for kind, spec in MOVES.items() for alias in (kind.value.lower(), spec.fn.__name__)
}
#: Synonyms accepted in --args; every other key is a MoveDescriptor field.
_ARG_SYNONYMS = {"i": "pair", "j": "pair2", "a": "component", "c": "component", "b": "component2", "k1": "k"}
#: --args values converted with int(): the MoveDescriptor fields typed Optional[int].
_INT_FIELDS = {name for name, hint in get_type_hints(MoveDescriptor).items() if hint == Optional[int]}


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    """A document's text, decoded as UTF-8 the same way from a file and from
    standard input: LF ends a line, and CR is whitespace to parse().  Bytes
    that are not UTF-8 are a ParseError at the first bad byte, its column
    counted in bytes."""
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = data[: exc.start].split(b"\n")
        raise ParseError([Diagnostic(len(lines), len(lines[-1]) + 1, "not valid UTF-8")]) from None


def _load(path: str, want: type | None = None):
    try:
        doc = parse(_read(path))
    except ParseError as exc:
        for d in exc.diagnostics:
            print(f"{path}:{d}", file=sys.stderr)
        raise _CliError("input does not parse", 1) from exc
    if want is not None and not isinstance(doc.diagram, want):
        raise _CliError(f"{path}: expected a {want.__name__} document, got {doc.kind}", 2)
    return doc.diagram


def _longest_int(value: object) -> int:
    """The integer of largest magnitude in a result, found through tuples,
    lists, dataclass fields, diagram keys and linking matrix entries."""
    longest, stack = 0, [value]
    while stack:
        v = stack.pop()
        if isinstance(v, int):
            longest = max(longest, abs(v))
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, _Diagram):
            stack.append(v.key())
        elif isinstance(v, LinkingMatrix):
            stack.extend(v.items())
        elif is_dataclass(v):
            stack.extend(getattr(v, f.name) for f in fields(v))
    return longest


def _digits(n: int) -> int:
    """The number of decimal digits of n >= 0, counted without str()."""
    digits = max(1, int((n.bit_length() - 1) * 0.30102999566398120))  # never more than the count
    while n >= 10**digits:
        digits += 1
    return digits


def _text(what: str, value: object) -> str:
    """The output text of a result: a diagram in canonical form, anything
    else by str().  str() refuses an integer of more than
    sys.get_int_max_str_digits() digits, and the parser would refuse the
    text too, so such a result exits 2 naming it and the digit count."""
    try:
        return print_diagram(value) if isinstance(value, _Diagram) else str(value)
    except ValueError:
        digits, limit = _digits(_longest_int(value)), sys.get_int_max_str_digits()
        message = f"cannot print {what}: it holds an integer of {digits} digits, the limit is {limit}"
        raise _CliError(message, 2) from None


def _int(text: str, what: str, malformed: str) -> int:
    """int(text), or exit 2: with the digit limit, naming what, when text is
    an integer of more digits than sys.get_int_max_str_digits(), and with
    malformed otherwise."""
    try:
        return int(text)
    except ValueError:
        if _INT_TEXT_RE.fullmatch(text):
            raise _CliError(f"{what} has more than {sys.get_int_max_str_digits()} digits", 2) from None
        raise _CliError(malformed, 2) from None


def _int_option(text: str, name: str) -> int:
    """int(text) for the option or --args key name, or exit 2 naming it:
    with the digit limit or as not an integer (see _int)."""
    return _int(text, f"argument {name}", f"argument {name} must be an integer, got {text!r}")


def _parse_ks(text: str) -> list[int]:
    if not text:
        return []
    return [_int(part, "bad k list: an entry", f"bad k list {text!r}") for part in text.split(",")]


def _parse_range(text: str) -> range:
    m = _RANGE_RE.match(text)
    if not m:
        raise _CliError(f"bad range {text!r}, expected A..B", 2)
    lo, hi = (_int(g, "bad range: a bound", "") for g in m.groups())
    if lo > hi:
        raise _CliError(f"empty range {text!r}", 2)
    return range(lo, hi + 1)


def _parse_move(kind_text: str, args_text: str) -> MoveDescriptor:
    kind = _KIND_ALIASES.get(kind_text.lower())
    if kind is None:
        raise _CliError(f"unknown move kind {kind_text!r}", 2)
    fields: dict[str, object] = {}
    if args_text:
        for piece in args_text.split(","):
            name, sep, value = piece.partition("=")
            if not sep:
                raise _CliError(f"bad move argument {piece!r}, expected key=value", 2)
            field = _ARG_SYNONYMS.get(name.strip(), name.strip())
            if field not in MOVES[kind].fields:
                takes = ", ".join(MOVES[kind].fields)
                raise _CliError(f"{kind.value} takes no argument {name!r} (it takes {takes})", 2)
            if field in fields:
                raise _CliError(f"argument {field!r} is given twice", 2)
            value = value.strip()
            if field in _INT_FIELDS:
                value = _int_option(value, name)
            fields[field] = value
    return MoveDescriptor(kind, **fields)


def _cmd_validate(args) -> int:
    try:
        parse(_read(args.file))
    except ParseError as exc:
        for d in exc.diagnostics:
            print(f"{args.file}:{d}")
        return 1
    print("ok")
    return 0


def _cmd_to_dehn(args) -> int:
    r = _load(args.file, RoundDiagram)
    print(_text("the DEHN diagram", joint_pair_to_dehn(r)), end="")
    return 0


def _cmd_to_round(args) -> int:
    d = _load(args.file, DehnDiagram)
    result = dehn_to_joint_pairs(d, _parse_ks(args.k), int(args.pad_sign))
    print(_text("the ROUND diagram", result), end="")
    return 0


def _cmd_kirby_export(args) -> int:
    r = _load(args.file, RoundDiagram)
    print(_text("the KIRBY diagram", round1_to_kirby(r)), end="")
    return 0


def _cmd_kirby_import(args) -> int:
    k = _load(args.file, KirbyDiagram)
    print(_text("the ROUND diagram", kirby_to_round1(k)), end="")
    return 0


def _cmd_move(args) -> int:
    diagram = _load(args.file)
    move = _parse_move(args.kind, args.args)
    print(_text("the moved diagram", apply_move(diagram, move)), end="")
    return 0


def _cmd_homology(args) -> int:
    diagram = _load(args.file)
    if isinstance(diagram, RoundDiagram):
        group = homology.first_homology_round(diagram)
    elif isinstance(diagram, DehnDiagram):
        group = homology.first_homology(diagram)
    else:
        raise _CliError("homology of a KIRBY document is not defined here", 2)
    print(f"H1: {_text('H1', group)}")
    return 0


def _cmd_is_trivial(args) -> int:
    r = _load(args.file, RoundDiagram)
    print(f"trivial: {'true' if analysis.is_trivial(r) else 'false'}")
    return 0


def _cmd_split(args) -> int:
    r = _load(args.file, RoundDiagram)
    blocks = analysis.split_connected_sum(r)
    print("\n".join(_text("a summand", b) for b in blocks), end="")
    return 0


def _cmd_suture(args) -> int:
    pair = _int_option(args.pair, "--pair")
    r = _load(args.file, RoundDiagram)
    w = analysis.suture_slope(r, pair)
    slope = _text("the slope", w.slope)
    print(f"pair: {w.pair_index}")
    print(f"n: {w.n}")
    print(f"slope: {slope}")
    return 0


def _cmd_foliations(args) -> int:
    pair = _int_option(args.pair, "--pair")
    r = _load(args.file, RoundDiagram)
    n_values = _parse_range(args.range)
    result = analysis.iter_taut_foliation_family(r, pair, n_values)
    if isinstance(result, analysis.FoliationRefusal):
        print(f"refused: {result.reason}")
        return 0
    # Each line is written as its witness is made.  The slope lk - n is
    # linear in n, so if it prints at both ends of the range it prints for
    # every n: a slope too long to print exits before any line is written.
    for w in analysis.iter_taut_foliation_family(r, pair, (n_values[0], n_values[-1])):
        _text("the slope", w.slope)
    for w in result:
        print(f"foliation: n={w.n} slope={_text('the slope', w.slope)}")
    return 0


def _cmd_search(args) -> int:
    if args.file1 == args.file2 == "-":
        raise _CliError("standard input can be read only once; pass - for at most one file", 2)
    depth = _int_option(args.depth, "--depth")
    r1 = _load(args.file1, RoundDiagram)
    r2 = _load(args.file2, RoundDiagram)
    found = bounded_equivalence_search(r1, r2, depth, _parse_range(args.k_range))
    if found is None:
        print("no move sequence found within the depth bound", file=sys.stderr)
        return 3
    for move in found:
        print(move.to_line())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser.  It is built on the first call and the same
    object is returned after it, because building it costs more than most
    commands; parse_args keeps no state between calls.  Do not change it."""
    parser = argparse.ArgumentParser(
        prog="roundsurgery",
        description="Round surgery diagram calculus: conversions, moves, homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = cmd("validate", _cmd_validate, "check a diagram file, report parse diagnostics")
    p.add_argument("file")
    p = cmd("to-dehn", _cmd_to_dehn, "joint pairs -> integral Dehn diagram")
    p.add_argument("file")
    p = cmd("to-round", _cmd_to_round, "integral Dehn diagram -> joint pairs")
    p.add_argument("file")
    p.add_argument("--k", default="", help="comma-separated k, one per resulting pair")
    p.add_argument("--pad-sign", default="1", choices=("+1", "1", "-1"), help="framing of the padding unknot")
    p = cmd("kirby-export", _cmd_kirby_export, "pure round 1-surgery pair -> Kirby diagram")
    p.add_argument("file")
    p = cmd("kirby-import", _cmd_kirby_import, "Kirby diagram -> pure round 1-surgery pair")
    p.add_argument("file")
    p = cmd("move", _cmd_move, "apply one move and print the result")
    p.add_argument("file")
    p.add_argument("--kind", required=True)
    p.add_argument("--args", default="", help="comma-separated key=value move arguments")
    p = cmd("homology", _cmd_homology, "first homology of the presented manifold")
    p.add_argument("file")
    p = cmd("is-trivial", _cmd_is_trivial, "is every round 2-surgery coefficient 1/0?")
    p.add_argument("file")
    p = cmd("split", _cmd_split, "split into connected-sum summands")
    p.add_argument("file")
    p = cmd("suture", _cmd_suture, "suture slope lk - n of one pair")
    p.add_argument("file")
    p.add_argument("--pair", required=True)
    p = cmd("foliations", _cmd_foliations, "taut foliation witnesses for a range of n")
    p.add_argument("file")
    p.add_argument("--pair", required=True)
    p.add_argument("--range", required=True, help="inclusive A..B")
    p = cmd("search", _cmd_search, "bounded breadth-first move-sequence search")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--depth", required=True)
    p.add_argument("--k-range", dest="k_range", required=True, help="inclusive A..B")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (SurgeryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
