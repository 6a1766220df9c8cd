"""The diagram DSL: a line-oriented parser and a canonical printer.

Grammar (one statement per line, ``#`` starts a comment, blank lines are
ignored on input):

    document := header line*
    header   := "ROUND" | "DEHN" | "KIRBY"
    comp     := "COMP" id "knot="expr ["framing="int] ["fibred"]
    pair     := "PAIR" id id "n1="int "n2="int ["m="rat]        (ROUND)
    loose    := "LOOSE" id "m="rat                              (ROUND)
    lk       := "LK" id id int
    handle1  := "HANDLE1" id                                    (KIRBY)
    handle2  := "HANDLE2" id "framing="int ["over="id:int{,id:int}]  (KIRBY)
    rat      := int | int "/" nat          (1/0 is the infinity slope)
    expr     := name | "band(" expr ",cable(" expr "," int "))"

DEHN components carry ``framing=``; ROUND and KIRBY components must not.
In KIRBY documents every COMP is the attaching knot of exactly one HANDLE2.

Canonical form (what :func:`print_diagram` emits, and what the 30-file test
corpus is byte-frozen against): LF line endings, single spaces, no comments,
COMP lines sorted by id, PAIR lines in diagram order, LOOSE/HANDLE/LK lines
sorted, zero linking entries omitted, integral slopes printed without a
denominator.  Printing then parsing is the identity on every valid diagram
that prints, which makes the canonical text the normal form of diagram
equality: two diagrams are equal exactly when they print the same.  An
integer may have at most sys.get_int_max_str_digits() digits and a knot
expression at most 100 nested band sums (_MAX_KNOT_DEPTH).  Beyond either
limit the parser gives a diagnostic, and the printer refuses a diagram
built in code: str() raises ValueError on the integer, format_knot
SurgeryError on the knot.

Reading: one compiled pattern (_LINE_RE) runs over the whole text once,
by findall, and gives the groups of each line.  Its statement alternatives
are the canonical spellings of a COMP line, of a PAIR line with an integral
or no m, and of an LK line, almost every line of a document; such a line
becomes a statement record of its converted fields at once, in the list of
its kind that the document's builder reads.  Every other line (the header,
comments and blank lines, other spacing, CR, LOOSE and HANDLE lines, a
rational m) matches the catch-all and is split into words; a statement
among them, like a line whose fields do not convert, goes to the field
walker (_walk), which runs once, in the scan, and makes its record.  The
walker gives every syntax diagnostic but those of a HANDLE2 line's over=
list, which _build_kirby reports piece by piece.  So every statement has
one record, of its field values (None where one failed) and whether the
line got no diagnostic of its own, and the builders read records only.
One table (_FIELDS) lists the fields of each statement kind, COMP by
header, and the walker reads every kind by one rule: each field, left to
right, checks the token at its place, each missing required field is reported,
and so is the first token left over.  A diagnostic about a value points at
its first character (in over=, at its piece, or its count); one about a
token itself (wrong key, unexpected token, invalid id), at the token.  The
pattern is written by hand, apart from the table: the walker alone cut the
CLI's calls per second by half or more, and patterns derived from the table
took as many lines and parsed about 10% slower.  A test checks it against
the walker.  The semantic checks after both are shared.  Token columns are
worked out only when the walker or a diagnostic asks for them, and each
distinct knot text is parsed once per document.  A 100-pair document
parses in about 1.1 ms, against 1.8 ms when each line was split into words
and its words, rejoined, matched by one pattern per statement kind (best
of 200, one process, shared 2-vCPU Linux VM, Python 3.11).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Union

from .bridge import KirbyDiagram, TwoHandle
from .model import (
    Atom,
    BandSum,
    DehnDiagram,
    FramedComponent,
    JointPair,
    KnotExpr,
    LinkingMatrix,
    LooseKnot,
    Rational,
    RoundDiagram,
    SurgeryError,
)

AnyDiagram = Union[RoundDiagram, DehnDiagram, KirbyDiagram]

# Tokens are checked with fullmatch(); knot expressions match() them inside.
_ID_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")
_INT_RE = re.compile(r"-?[0-9]+")
_NAT_RE = re.compile(r"[0-9]+")

#: The deepest nesting of band(...) a knot expression may have.  Comparing,
#: hashing and printing a knot recurse once per level; under Python's
#: default recursion limit, comparing two equal knots gives out first, near
#: 332 levels whichever side the band sums nest on (hashing near 497).  The
#: rest is headroom for the caller's stack and for EqMove4, which nests the
#: slid knot one level deeper per slide.
_MAX_KNOT_DEPTH = 100


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    """Raised when a document does not parse; carries every diagnostic."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


@dataclass
class DiagramDocument:
    """A parsed document: its header kind and the diagram value."""

    kind: str
    diagram: AnyDiagram


# ---------------------------------------------------------------------------
# Scalar sub-parsers


def _too_long(digits: str) -> str:
    return f"integer too large: {len(digits.lstrip('-'))} digits, the limit is {sys.get_int_max_str_digits()}"


def _parse_int(token: str, line: int, col: int, diags: list[Diagnostic]) -> Optional[int]:
    if not _INT_RE.fullmatch(token):
        diags.append(Diagnostic(line, col, f"expected an integer, got {token!r}"))
        return None
    try:
        return int(token)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        diags.append(Diagnostic(line, col, _too_long(token)))
        return None


def _parse_rational(token: str, line: int, col: int, diags: list[Diagnostic]) -> Optional[Rational]:
    if "/" in token:
        num, _, den = token.partition("/")
        if not _INT_RE.fullmatch(num) or not _NAT_RE.fullmatch(den):
            diags.append(Diagnostic(line, col, f"expected INT/NAT, got {token!r}"))
            return None
        p, q = _parse_int(num, line, col, diags), _parse_int(den, line, col, diags)
        if p is None or q is None:
            return None
        try:
            return Rational(p, q)
        except SurgeryError as exc:  # the constructor states the slope rule
            diags.append(Diagnostic(line, col, str(exc)))
            return None
    value = _parse_int(token, line, col, diags)
    return None if value is None else Rational(value)


def _parse_id(token: str, line: int, col: int, diags: list[Diagnostic]) -> Optional[str]:
    if not _ID_RE.fullmatch(token):
        diags.append(Diagnostic(line, col, f"invalid identifier {token!r}"))
        return None
    return token


class _KnotSyntax(Exception):
    def __init__(self, offset: int, message: str):
        self.offset = offset
        self.message = message


def _parse_knot(text: str) -> KnotExpr:
    expr, end = _knot_expr(text, 0)
    if end != len(text):
        raise _KnotSyntax(end, "trailing characters after knot expression")
    return expr


def _knot_expr(text: str, at: int, depth: int = 0) -> tuple[KnotExpr, int]:
    if text.startswith("band(", at):
        if depth == _MAX_KNOT_DEPTH:
            raise _KnotSyntax(at, f"knot expression nested deeper than {_MAX_KNOT_DEPTH} band sums")
        left, at = _knot_expr(text, at + len("band("), depth + 1)
        at = _expect(text, at, ",cable(")
        of, at = _knot_expr(text, at, depth + 1)
        at = _expect(text, at, ",")
        m = _INT_RE.match(text, at)
        if not m:
            raise _KnotSyntax(at, "expected a framing integer")
        try:
            framing = int(m.group())
        except ValueError:
            raise _KnotSyntax(at, _too_long(m.group())) from None
        at = _expect(text, m.end(), "))")
        return BandSum(left, of, framing), at
    m = _ID_RE.match(text, at)
    if not m:
        raise _KnotSyntax(at, "expected a knot name or band(...)")
    return Atom(m.group()), m.end()


def _expect(text: str, at: int, want: str) -> int:
    if not text.startswith(want, at):
        raise _KnotSyntax(at, f"expected {want!r}")
    return at + len(want)


def _read_knot(text: str, line: int, col: int, diags: list[Diagnostic]) -> Optional[KnotExpr]:
    try:
        return _parse_knot(text)
    except _KnotSyntax as exc:
        diags.append(Diagnostic(line, col + exc.offset, exc.message))
        return None


def _no_framing(text: str, line: int, col: int, diags: list[Diagnostic]) -> None:
    # about the key, so at the token rather than its value
    diags.append(Diagnostic(line, col - len("framing="), "framing= is only allowed in DEHN documents"))


# ---------------------------------------------------------------------------
# Statement records


#: A statement: (line, kind, raw, values, ok), raw the whole line, values
#: its fields, each None where it failed, and ok whether the line got no
#: diagnostic of its own.  A plain tuple, as almost every line of a document
#: makes one.
_Stmt = tuple[int, str, str, tuple, bool]


def _tokenize(raw: str) -> list[tuple[str, int]]:
    """The tokens of one line and their 1-based columns.  str.split() splits
    on str.isspace() characters, the CR of a CRLF ending among them, so only
    whitespace lies between one token's end and the next token's start, and
    find() from that end gives the next token's column."""
    body = raw.split("#", 1)[0]
    tokens, at = [], 0
    for word in body.split():
        at = body.find(word, at)
        tokens.append((word, at + 1))
        at += len(word)
    return tokens


def _col(s: _Stmt, index: int) -> int:
    """The column of token index after s's keyword; worked out only for a
    diagnostic."""
    return _tokenize(s[2])[index + 1][1]


# The line pattern (see "Reading" above): one match per line, whose first
# group is the line.  Its statement alternatives match only lines the walker
# accepts, and spell their tokens with the walker's own expressions; a knot
# text stops at whitespace and "#", as the walker's tokens do.  Every other
# line matches the catch-all, and leaves every other group empty.  The
# groups named after a statement hold its first id.
_ID, _INT = _ID_RE.pattern, _INT_RE.pattern
_LINE_RE = re.compile(
    rf"^(COMP (?P<COMP>{_ID}) knot=([^\s#]+)(?: framing=({_INT}))?( fibred)?"
    rf"|PAIR (?P<PAIR>{_ID}) ({_ID}) n1=({_INT}) n2=({_INT})(?: m=({_INT}))?"
    rf"|LK (?P<LK>{_ID}) ({_ID}) ({_INT})"
    r"|.*)$",
    re.MULTILINE,
)


class _Field(NamedTuple):
    """One field of a statement, as _walk reads it.  A required field (one
    with a missing text) or a greedy one reads the token at its place,
    whatever it is; any other optional field reads it only if the token is
    its key or, for a key ending in "=", starts with it.  The token must
    start with key, and read gets the rest with the rest's column, so that
    a diagnostic about a value points at its first character."""

    key: str
    read: Callable[[str, int, int, list[Diagnostic]], Any]
    missing: str = ""
    greedy: bool = False


_CID = _Field("", _parse_id, "component id")
_KNOT = _Field("knot=", _read_knot, "knot=EXPR")
_FIBRED = _Field("fibred", lambda *_: True)
_NO_FRAMING = _Field("framing=", _no_framing)

#: The fields after the keyword of each statement kind, COMP by header.
_FIELDS: dict[str, tuple[_Field, ...]] = {
    "COMP ROUND": (_CID, _KNOT, _NO_FRAMING, _FIBRED),
    "COMP DEHN": (_CID, _KNOT, _Field("framing=", _parse_int, "framing=INT"), _FIBRED),
    "COMP KIRBY": (_CID, _KNOT, _NO_FRAMING),
    "PAIR": (
        _CID,
        _CID,
        _Field("n1=", _parse_int, "n1=INT"),
        _Field("n2=", _parse_int, "n2=INT"),
        _Field("m=", _parse_rational, greedy=True),
    ),
    "LOOSE": (_CID, _Field("m=", _parse_rational, "m=RAT")),
    "LK": (_CID, _CID, _Field("", _parse_int, "linking number")),
    "HANDLE1": (_Field("", _parse_id, "handle id"),),
    "HANDLE2": (
        _Field("", _parse_id, "2-handle id"),
        _Field("framing=", _parse_int, "framing=INT"),
        _Field("over=", lambda text, *_: text, greedy=True),  # checked by _build_kirby
    ),
}
#: The statement keywords.
_STATEMENTS = frozenset(name.split()[0] for name in _FIELDS)


def _walk(s: tuple[int, str, str], fields: tuple[_Field, ...], diags: list[Diagnostic]) -> tuple[list, bool]:
    """The value of each field of the statement s (its line, kind and raw
    text), and whether s got no diagnostic.  The fields are read left to
    right, each checking the token it reads; a field without a token, or
    whose token fails, is None.  Each required field without a token is
    reported at column 1, and the first token left over as unexpected."""
    line, kind, raw = s
    before, tokens, at, values = len(diags), _tokenize(raw)[1:], 0, []
    for f in fields:
        value = None
        if at == len(tokens):
            if f.missing:
                diags.append(Diagnostic(line, 1, f"{kind}: missing {f.missing}"))
        else:
            token, col = tokens[at]
            if f.missing or f.greedy or token == f.key or (f.key.endswith("=") and token.startswith(f.key)):
                at += 1
                if not token.startswith(f.key):
                    diags.append(Diagnostic(line, col, f"expected {f.key}..., got {token!r}"))
                else:
                    value = f.read(token[len(f.key):], line, col + len(f.key), diags)
        values.append(value)
    if at < len(tokens):
        token, col = tokens[at]
        diags.append(Diagnostic(line, col, f"unexpected token {token!r}"))
    return values, len(diags) == before


def parse(text: str) -> DiagramDocument:
    """Parse a document, or raise :class:`ParseError` carrying one
    positioned diagnostic per problem (lexical, syntactic and semantic)."""
    diags: list[Diagnostic] = []
    header: Optional[str] = None
    allowed: set[str] = set()  # the statement kinds the header allows
    joint: list[_Stmt] = []  # PAIR and LOOSE lines, in line order: a claim depends on the lines before it
    stmts = {"COMP": [], "PAIR": joint, "LOOSE": joint, "LK": [], "HANDLE1": [], "HANDLE2": []}
    # Most components of a document share a few knot texts (in the corpus
    # 46% of COMP lines repeat one, 79% are unknot), so each is parsed once.
    knots: dict[str, KnotExpr] = {}

    rows = _LINE_RE.findall(text)  # the groups of each line; empty ones did not match
    for line_no, (raw, cid, knot, framing, fibred, id1, id2, n1, n2, slope, a, b, v) in enumerate(rows, start=1):
        try:
            if header is None:  # the header, or a line before it
                pass
            elif a:
                stmts["LK"].append((line_no, "LK", raw, (a, b, int(v)), True))
                continue
            elif id1:
                if header == "ROUND":  # else not allowed, which the check below reports
                    values = id1, id2, int(n1), int(n2), Rational(int(slope)) if slope else None
                    joint.append((line_no, "PAIR", raw, values, True))
                    continue
            elif cid and bool(framing) == (header == "DEHN") and not (fibred and header == "KIRBY"):
                expr = knots.get(knot)
                if expr is None:
                    expr = knots[knot] = _parse_knot(knot)
                values = cid, expr, int(framing) if framing else None, bool(fibred)
                stmts["COMP"].append((line_no, "COMP", raw, values, True))
                continue
        except (_KnotSyntax, ValueError):
            pass  # the walker reports it

        words = raw.partition("#")[0].split()
        if not words:
            continue
        word = words[0]
        if header is None and word in _DOCUMENTS and len(words) == 1:
            header = word
            allowed = _DOCUMENTS[header][0]
            continue
        if header is None:
            problem = f"expected a header (one of {', '.join(_DOCUMENTS)})"
            header = "ROUND"  # keep scanning for more diagnostics
            allowed = _DOCUMENTS[header][0]
        elif word in _DOCUMENTS:
            problem = "duplicate header"
        elif word not in _STATEMENTS:
            problem = f"unknown statement {word!r}"
        elif word not in allowed:
            diags.append(Diagnostic(line_no, 1, f"{word} is not allowed in a {header} document"))
            continue
        else:
            s = (line_no, word, raw)
            values, ok = _walk(s, _FIELDS[f"COMP {header}" if word == "COMP" else word], diags)
            if word == "COMP":  # the fibred flag as a bool; KIRBY has no fibred field
                values[3:] = [values[3:] == [True]]
            stmts[word].append((*s, tuple(values), ok))
            continue
        diags.append(Diagnostic(line_no, _tokenize(raw)[0][1], problem))

    if header is None:
        diags.append(Diagnostic(1, 1, "empty document"))
        raise ParseError(diags)

    diagram = _DOCUMENTS[header][1](stmts, diags)
    if diags:
        raise ParseError(sorted(diags, key=lambda d: (d.line, d.col)))
    return DiagramDocument(header, diagram)


#: A component: (line, component, framing), framing None outside DEHN.
_Comp = tuple[int, FramedComponent, Optional[int]]


def _collect_comps(stmts: list[_Stmt], diags: list[Diagnostic]) -> tuple[dict[str, _Comp], set[str]]:
    """The components of the COMP lines by id, and the first ids of those
    that have a diagnostic of their own: lines naming those ids are not
    reported again (KIRBY adds the ids of such HANDLE2 lines).  The first id
    of such a line is None if it is not a valid id, and no line names None."""
    comps: dict[str, _Comp] = {}
    failed: set[str] = set()
    for s in stmts:
        cid, knot, framing, fibred = s[3]
        if not s[4]:
            failed.add(cid)
            continue
        if cid in comps:
            diags.append(Diagnostic(s[0], _col(s, 0), f"duplicate component {cid}"))
            continue
        comps[cid] = (s[0], FramedComponent(cid, knot, fibred), framing)
    return comps, failed


def _collect_lk(
    stmts: list[_Stmt], diags: list[Diagnostic], known: dict, failed: set[str]
) -> list[tuple[str, str, int]]:
    # The LK lines.  known maps acceptable ids to anything; only membership
    # matters.  An entry naming a failed id is dropped without a diagnostic.
    seen: dict[tuple[str, str], int] = {}
    for s in stmts:
        if not s[4]:
            continue
        a, b, v = s[3]
        if a == b:
            diags.append(Diagnostic(s[0], _col(s, 0), f"linking of {a} with itself is not allowed"))
            continue
        if a not in known or b not in known:
            for index, cid in enumerate((a, b)):
                if cid not in known and cid not in failed:
                    diags.append(Diagnostic(s[0], _col(s, index), f"unknown component {cid}"))
            continue
        key = (a, b) if a <= b else (b, a)
        if key in seen:
            kind = "symmetry conflict" if seen[key] != v else "duplicate entry"
            diags.append(Diagnostic(s[0], _col(s, 0), f"linking of {key[0]} and {key[1]} already given ({kind})"))
            continue
        seen[key] = v
    return [(a, b, v) for (a, b), v in seen.items()]


def _build_round(stmts: dict[str, list[_Stmt]], diags: list[Diagnostic]) -> RoundDiagram:
    comps, failed = _collect_comps(stmts["COMP"], diags)
    used: dict[str, int] = {}
    # A component named on a PAIR or LOOSE line that has a diagnostic of its
    # own is not reported again as unused.
    named: set[str] = set()
    pairs: list[JointPair] = []
    loose: list[LooseKnot] = []

    def claim(cid: str, s: _Stmt, index: int) -> Optional[FramedComponent]:
        """The component cid names as token index of s, now used."""
        if cid not in comps:
            if cid not in failed:
                diags.append(Diagnostic(s[0], _col(s, index), f"unknown component {cid}"))
            return None
        if cid in used:
            message = f"component {cid} already used on line {used[cid]}"
            diags.append(Diagnostic(s[0], _col(s, index), message))
            return None
        used[cid] = s[0]
        return comps[cid][1]

    for s in stmts["PAIR"]:  # the PAIR and LOOSE lines, in line order
        pair, got = s[1] == "PAIR", s[3]
        if not s[4]:
            named.update(got[: 2 if pair else 1])  # its ids, None where invalid
        elif not pair:
            c = claim(got[0], s, 0)
            if c is not None:
                loose.append(LooseKnot(c, got[1]))
        elif got[0] == got[1]:
            named.add(got[0])
            diags.append(Diagnostic(s[0], _col(s, 1), "a pair needs two distinct components"))
        else:
            id1, id2, n1, n2, m = got
            c1 = claim(id1, s, 0)
            c2 = claim(id2, s, 1)
            if c1 is not None and c2 is not None:
                pairs.append(JointPair(c1, n1, c2, n2, m))

    for cid, (line, _, _) in comps.items():
        if cid not in used and cid not in named:
            diags.append(Diagnostic(line, 1, f"component {cid} is not part of any pair or loose knot"))
    entries = _collect_lk(stmts["LK"], diags, comps, failed)
    return RoundDiagram(pairs, loose, LinkingMatrix(entries))


def _build_dehn(stmts: dict[str, list[_Stmt]], diags: list[Diagnostic]) -> DehnDiagram:
    comps, failed = _collect_comps(stmts["COMP"], diags)
    entries = _collect_lk(stmts["LK"], diags, comps, failed)
    components = [c for _, c, _ in comps.values()]
    framing = {c.id: f for _, c, f in comps.values() if f is not None}
    return DehnDiagram(components, framing, LinkingMatrix(entries))


def _build_kirby(stmts: dict[str, list[_Stmt]], diags: list[Diagnostic]) -> KirbyDiagram:
    comps, failed = _collect_comps(stmts["COMP"], diags)
    one_handles: set[str] = set()
    handle2: dict[str, tuple[int, tuple[tuple[str, int], ...]]] = {}

    for s in stmts["HANDLE1"]:
        (hid,) = s[3]
        if hid is None:  # a line with an extra token still declares its handle
            continue
        if hid in one_handles or hid in comps:
            diags.append(Diagnostic(s[0], _col(s, 0), f"duplicate id {hid}"))
            continue
        one_handles.add(hid)

    for s in stmts["HANDLE2"]:
        line, _, _, (hid, framing, over_text), ok = s
        before = len(diags)
        over: dict[str, int] = {}
        col = 0 if over_text is None else _col(s, 2) + len("over=")  # of each piece in turn
        for piece in () if over_text is None else over_text.split(","):
            hpart, sep, cpart = piece.partition(":")
            if not sep or not _ID_RE.fullmatch(hpart) or not _INT_RE.fullmatch(cpart):
                diags.append(Diagnostic(line, col, f"expected over=id:INT,..., got {piece!r}"))
            elif hpart not in one_handles:
                diags.append(Diagnostic(line, col, f"unknown 1-handle {hpart}"))
            elif hpart in over:
                diags.append(Diagnostic(line, col, f"run-over count of {hpart} already given"))
            else:
                count = _parse_int(cpart, line, col + len(hpart) + 1, diags)
                if count is not None:
                    over[hpart] = count
            col += len(piece) + 1
        if not ok or len(diags) > before:
            failed.add(hid)
            continue
        if hid in handle2:
            diags.append(Diagnostic(line, _col(s, 0), f"duplicate 2-handle {hid}"))
            continue
        if hid not in comps:
            if hid not in failed:
                diags.append(Diagnostic(line, _col(s, 0), f"2-handle {hid} has no COMP line for its knot"))
            continue
        handle2[hid] = (framing, tuple(over.items()))

    for cid, (line, _, _) in comps.items():
        if cid not in handle2 and cid not in failed:
            diags.append(Diagnostic(line, 1, f"component {cid} is not attached to any 2-handle"))

    two_handles = [
        TwoHandle(hid, comps[hid][1].knot, framing, over)
        for hid, (framing, over) in handle2.items()
    ]
    entries = _collect_lk(stmts["LK"], diags, handle2, failed)
    return KirbyDiagram(one_handles, two_handles, LinkingMatrix(entries))


#: Each header, in the order diagnostics name them, with the statement
#: kinds its documents allow and the builder of its diagram.
_DOCUMENTS = {
    "ROUND": ({"COMP", "PAIR", "LOOSE", "LK"}, _build_round),
    "DEHN": ({"COMP", "LK"}, _build_dehn),
    "KIRBY": ({"COMP", "HANDLE1", "HANDLE2", "LK"}, _build_kirby),
}


# ---------------------------------------------------------------------------
# Canonical printer


def format_knot(expr: KnotExpr) -> str:
    """The text of a knot; SurgeryError past _MAX_KNOT_DEPTH, which the
    parser would refuse."""
    return _knot_text(expr, 0)


def _knot_text(expr: KnotExpr, depth: int) -> str:
    # module level: a nested helper, built on every call, made printing a
    # document about 40% slower
    if isinstance(expr, Atom):
        return expr.label
    if depth == _MAX_KNOT_DEPTH:
        raise SurgeryError(f"knot expression nested deeper than {_MAX_KNOT_DEPTH} band sums")
    return f"band({_knot_text(expr.left, depth + 1)},cable({_knot_text(expr.of, depth + 1)},{expr.framing}))"


def _comp_line(c: FramedComponent, framing: Optional[int] = None) -> str:
    line = f"COMP {c.id} knot={format_knot(c.knot)}"
    if framing is not None:
        line += f" framing={framing}"
    if c.fibred:
        line += " fibred"
    return line


def _lk_lines(lk: LinkingMatrix) -> list[str]:
    return [f"LK {a} {b} {v}" for (a, b), v in lk.items()]


def print_diagram(d: AnyDiagram) -> str:
    """Render a diagram in canonical form (ends with a newline)."""
    if isinstance(d, RoundDiagram):
        lines = ["ROUND"]
        lines += [_comp_line(c) for c in sorted(d.components(), key=lambda c: c.id)]
        for p in d.pairs:
            line = f"PAIR {p.c1.id} {p.c2.id} n1={p.n1} n2={p.n2}"
            if p.m is not None:
                line += f" m={p.m}"
            lines.append(line)
        lines += [f"LOOSE {l.component.id} m={l.m}" for l in d.loose]
        lines += _lk_lines(d.lk)
    elif isinstance(d, DehnDiagram):
        lines = ["DEHN"]
        lines += [_comp_line(c, d.framing[c.id]) for c in d.components]
        lines += _lk_lines(d.lk)
    elif isinstance(d, KirbyDiagram):
        lines = ["KIRBY"]
        lines += [_comp_line(FramedComponent(h.id, h.knot)) for h in d.two_handles]
        lines += [f"HANDLE1 {hid}" for hid in d.one_handles]
        for h in d.two_handles:
            line = f"HANDLE2 {h.id} framing={h.framing}"
            if h.runs_over:
                line += " over=" + ",".join(f"{hid}:{count}" for hid, count in h.runs_over)
            lines.append(line)
        lines += _lk_lines(d.lk)
    else:
        raise TypeError(f"not a diagram: {d!r}")
    return "\n".join(lines) + "\n"
