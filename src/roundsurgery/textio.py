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
denominator.  Printing then parsing is the identity on every valid diagram,
which makes the canonical text the normal form of diagram equality: two
diagrams are equal exactly when they print the same.  An integer may have
at most sys.get_int_max_str_digits() digits and a knot expression at most
100 nested band sums (_MAX_KNOT_DEPTH); beyond either limit it is a
diagnostic.

Reading: COMP, PAIR with an integral or no m, and LK lines, almost every
line of a document, are read by one compiled pattern each, matched against
the statement's words joined by single spaces.  Every other line, and one
whose fields do not convert, goes to the field walker (_walk), the only
source of syntax diagnostics.  One table (_FIELDS) lists the fields of each
statement kind, and the walker reads every kind by one rule: each field,
left to right, checks the token at its place, each missing required field
is reported, and so is the first token left over.  A diagnostic about a
value points at its first character (in over=, at its piece, or its count);
one about a token itself (wrong key, unexpected token, invalid id), at the
token.  The patterns are written by hand, apart from the table: the walker
alone cut the CLI's calls per second by half or more, and patterns derived
from the table took as many lines and parsed about 10% slower.  A test
checks them against the walker.  The semantic checks after the walker are
shared.  Token columns are worked out only when the walker or a diagnostic
asks for them, and each distinct knot text is parsed once per document.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Union

from .bridge import KirbyDiagram, TwoHandle, validate_kirby
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
    validate_diagram,
)

AnyDiagram = Union[RoundDiagram, DehnDiagram, KirbyDiagram]

# Tokens are checked with fullmatch(); knot expressions match() them inside.
_ID_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")
_INT_RE = re.compile(r"-?[0-9]+")
_NAT_RE = re.compile(r"[0-9]+")

HEADERS = ("ROUND", "DEHN", "KIRBY")

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


@dataclass(slots=True)
class _Stmt:
    line: int
    kind: str
    text: str  # the words joined by single spaces, which the statement patterns match
    raw: str
    _tokens: Optional[list[tuple[str, int]]] = None

    @property
    def tokens(self) -> list[tuple[str, int]]:
        """(token, column) of each word after the keyword, worked out on first use."""
        if self._tokens is None:
            self._tokens = _tokenize(self.raw)[1:]
        return self._tokens


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


# The statement patterns (see "Reading" above): each matches only lines the
# walker accepts, and spells its tokens with the walker's own expressions.
_ID, _INT = _ID_RE.pattern, _INT_RE.pattern
_COMP_RE = re.compile(rf"COMP ({_ID}) knot=([^ ]+)(?: framing=({_INT}))?( fibred)?")
_PAIR_RE = re.compile(rf"PAIR ({_ID}) ({_ID}) n1=({_INT}) n2=({_INT})(?: m=({_INT}))?")
_LK_RE = re.compile(rf"LK ({_ID}) ({_ID}) ({_INT})")


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


def _walk(s: _Stmt, fields: tuple[_Field, ...], diags: list[Diagnostic]) -> tuple[list, bool]:
    """The value of each field of s, and whether s got no diagnostic.  The
    fields are read left to right, each checking the token it reads; a
    field without a token, or whose token fails, is None.  Each required
    field without a token is reported at column 1, and the first token
    left over as unexpected."""
    before, tokens, at, values = len(diags), s.tokens, 0, []
    for f in fields:
        value = None
        if at == len(tokens):
            if f.missing:
                diags.append(Diagnostic(s.line, 1, f"{s.kind}: missing {f.missing}"))
        else:
            token, col = tokens[at]
            if f.missing or f.greedy or token == f.key or (f.key.endswith("=") and token.startswith(f.key)):
                at += 1
                if not token.startswith(f.key):
                    diags.append(Diagnostic(s.line, col, f"expected {f.key}..., got {token!r}"))
                else:
                    value = f.read(token[len(f.key):], s.line, col + len(f.key), diags)
        values.append(value)
    if at < len(tokens):
        token, col = tokens[at]
        diags.append(Diagnostic(s.line, col, f"unexpected token {token!r}"))
    return values, len(diags) == before


def parse(text: str) -> DiagramDocument:
    """Parse a document, or raise :class:`ParseError` carrying one
    positioned diagnostic per problem (lexical, syntactic and semantic)."""
    diags: list[Diagnostic] = []
    stmts: list[_Stmt] = []
    header: Optional[str] = None

    for line_no, raw in enumerate(text.split("\n"), start=1):
        words = raw.partition("#")[0].split()
        if not words:
            continue
        word = words[0]
        if header is None and word in HEADERS and len(words) == 1:
            header = word
            continue
        if header is None:
            problem = f"expected a header (one of {', '.join(HEADERS)})"
            header = "ROUND"  # keep scanning for more diagnostics
        elif word in HEADERS:
            problem = "duplicate header"
        elif word not in ("COMP", "PAIR", "LOOSE", "LK", "HANDLE1", "HANDLE2"):
            problem = f"unknown statement {word!r}"
        else:
            stmts.append(_Stmt(line_no, word, " ".join(words), raw))
            continue
        diags.append(Diagnostic(line_no, _tokenize(raw)[0][1], problem))

    if header is None:
        diags.append(Diagnostic(1, 1, "empty document"))
        raise ParseError(diags)

    allowed = {
        "ROUND": {"COMP", "PAIR", "LOOSE", "LK"},
        "DEHN": {"COMP", "LK"},
        "KIRBY": {"COMP", "HANDLE1", "HANDLE2", "LK"},
    }[header]
    for s in stmts:
        if s.kind not in allowed:
            diags.append(Diagnostic(s.line, 1, f"{s.kind} is not allowed in a {header} document"))
    stmts = [s for s in stmts if s.kind in allowed]

    builder = {"ROUND": _build_round, "DEHN": _build_dehn, "KIRBY": _build_kirby}[header]
    diagram = builder(stmts, diags)
    if diags:
        raise ParseError(sorted(diags, key=lambda d: (d.line, d.col)))
    return DiagramDocument(header, diagram)


@dataclass
class _Comp:
    line: int
    id: str
    knot: KnotExpr
    framing: Optional[int]
    fibred: bool


def _parse_comp(stmt: _Stmt, diags: list[Diagnostic], knots: dict[str, KnotExpr], header: str) -> Optional[_Comp]:
    """The component of a COMP line, or None with its diagnostics.  knots
    maps each knot text the pattern path has parsed to its expression."""
    m = _COMP_RE.fullmatch(stmt.text)
    if m and (m[3] is not None) == (header == "DEHN") and (header != "KIRBY" or m[4] is None):
        try:
            knot = knots.get(m[2])
            if knot is None:
                knot = knots[m[2]] = _parse_knot(m[2])
            return _Comp(stmt.line, m[1], knot, None if m[3] is None else int(m[3]), m[4] is not None)
        except (_KnotSyntax, ValueError):
            pass  # the walker below reports it
    values, ok = _walk(stmt, _FIELDS["COMP " + header], diags)
    return _Comp(stmt.line, *values[:3], values[3:] == [True]) if ok else None  # KIRBY has no fibred field


def _note_failed(s: _Stmt, failed: set[str]) -> None:
    """Add the id a statement with a diagnostic of its own names first, if
    it is a valid id, to failed."""
    if s.tokens and _ID_RE.fullmatch(s.tokens[0][0]):
        failed.add(s.tokens[0][0])


def _collect_comps(stmts: list[_Stmt], diags: list[Diagnostic], header: str) -> tuple[dict[str, _Comp], set[str]]:
    """The components, and the valid ids of COMP lines that have a
    diagnostic of their own: lines naming those ids are not reported again
    (KIRBY adds the ids of such HANDLE2 lines)."""
    comps: dict[str, _Comp] = {}
    failed: set[str] = set()
    # Most components of a document share a few knot texts (in the corpus
    # 46% of COMP lines repeat one, 79% are unknot), so each is parsed once.
    knots: dict[str, KnotExpr] = {}
    for s in stmts:
        if s.kind != "COMP":
            continue
        comp = _parse_comp(s, diags, knots, header)
        if comp is None:
            _note_failed(s, failed)
            continue
        if comp.id in comps:
            diags.append(Diagnostic(s.line, s.tokens[0][1], f"duplicate component {comp.id}"))
            continue
        comps[comp.id] = comp
    return comps, failed


def _lk_fields(s: _Stmt, diags: list[Diagnostic]) -> Optional[tuple[str, str, int]]:
    """The ids and linking number of an LK line, or None with its diagnostics."""
    m = _LK_RE.fullmatch(s.text)
    if m:
        try:
            return m[1], m[2], int(m[3])
        except ValueError:
            pass  # the walker below reports it
    values, ok = _walk(s, _FIELDS["LK"], diags)
    return tuple(values) if ok else None


def _collect_lk(
    stmts: list[_Stmt], diags: list[Diagnostic], known: dict, failed: set[str]
) -> list[tuple[str, str, int]]:
    # known maps acceptable ids to anything; only membership matters.  An
    # entry naming a failed id is dropped without a diagnostic.
    entries: list[tuple[str, str, int]] = []
    seen: dict[tuple[str, str], tuple[int, int]] = {}
    for s in stmts:
        if s.kind != "LK":
            continue
        got = _lk_fields(s, diags)
        if got is None:
            continue
        a, b, v = got
        if a == b:
            diags.append(Diagnostic(s.line, s.tokens[0][1], f"linking of {a} with itself is not allowed"))
            continue
        for index, cid in enumerate((a, b)):
            if cid not in known and cid not in failed:
                diags.append(Diagnostic(s.line, s.tokens[index][1], f"unknown component {cid}"))
        if a not in known or b not in known:
            continue
        key = (a, b) if a <= b else (b, a)
        if key in seen:
            _, prev_v = seen[key]
            kind = "symmetry conflict" if prev_v != v else "duplicate entry"
            diags.append(
                Diagnostic(s.line, s.tokens[0][1], f"linking of {key[0]} and {key[1]} already given ({kind})")
            )
            continue
        seen[key] = (s.line, v)
        entries.append((a, b, v))
    return entries


def _pair_fields(
    s: _Stmt, diags: list[Diagnostic]
) -> Optional[tuple[str, str, int, int, Optional[Rational]]]:
    """The ids, n1, n2 and m of a PAIR line, or None with its diagnostics."""
    match = _PAIR_RE.fullmatch(s.text)
    if match:
        try:
            m = None if match[5] is None else Rational(int(match[5]))
            return match[1], match[2], int(match[3]), int(match[4]), m
        except ValueError:
            pass  # the walker below reports it
    values, ok = _walk(s, _FIELDS["PAIR"], diags)
    return tuple(values) if ok else None


def _build_round(stmts: list[_Stmt], diags: list[Diagnostic]) -> RoundDiagram:
    comps, failed = _collect_comps(stmts, diags, "ROUND")
    used: dict[str, int] = {}
    pairs: list[JointPair] = []
    loose: list[LooseKnot] = []

    def claim(cid: str, s: _Stmt, index: int) -> Optional[FramedComponent]:
        """The component cid names as token index of s, now used."""
        if cid not in comps:
            if cid not in failed:
                diags.append(Diagnostic(s.line, s.tokens[index][1], f"unknown component {cid}"))
            return None
        if cid in used:
            message = f"component {cid} already used on line {used[cid]}"
            diags.append(Diagnostic(s.line, s.tokens[index][1], message))
            return None
        used[cid] = s.line
        c = comps[cid]
        return FramedComponent(c.id, c.knot, c.fibred)

    for s in stmts:
        if s.kind == "PAIR":
            got = _pair_fields(s, diags)
            if got is None:
                continue
            id1, id2, n1, n2, m = got
            if id1 == id2:
                diags.append(Diagnostic(s.line, s.tokens[1][1], "a pair needs two distinct components"))
                continue
            c1 = claim(id1, s, 0)
            c2 = claim(id2, s, 1)
            if c1 is None or c2 is None:
                continue
            pairs.append(JointPair(c1, n1, c2, n2, m))
        elif s.kind == "LOOSE":
            (cid, m), ok = _walk(s, _FIELDS["LOOSE"], diags)
            c = claim(cid, s, 0) if ok else None
            if c is not None:
                loose.append(LooseKnot(c, m))

    # A component named on a PAIR or LOOSE line that has a diagnostic of its
    # own is not reported again as unused.
    named = {
        word
        for s in stmts
        if s.kind in ("PAIR", "LOOSE")
        for word in s.text.split(" ")[1 : 3 if s.kind == "PAIR" else 2]
    }
    for cid, comp in comps.items():
        if cid not in used and cid not in named:
            diags.append(Diagnostic(comp.line, 1, f"component {cid} is not part of any pair or loose knot"))
    entries = _collect_lk(stmts, diags, comps, failed)
    return RoundDiagram(pairs, loose, LinkingMatrix(entries))


def _build_dehn(stmts: list[_Stmt], diags: list[Diagnostic]) -> DehnDiagram:
    comps, failed = _collect_comps(stmts, diags, "DEHN")
    entries = _collect_lk(stmts, diags, comps, failed)
    components = [FramedComponent(c.id, c.knot, c.fibred) for c in comps.values()]
    framing = {c.id: c.framing for c in comps.values() if c.framing is not None}
    return DehnDiagram(components, framing, LinkingMatrix(entries))


def _build_kirby(stmts: list[_Stmt], diags: list[Diagnostic]) -> KirbyDiagram:
    comps, failed = _collect_comps(stmts, diags, "KIRBY")
    one_handles: dict[str, int] = {}
    handle2: dict[str, tuple[int, int, tuple[tuple[str, int], ...]]] = {}

    for s in stmts:
        if s.kind == "HANDLE1":
            (hid,), _ = _walk(s, _FIELDS["HANDLE1"], diags)
            if hid is None:  # a line with an extra token still declares its handle
                continue
            if hid in one_handles or hid in comps:
                diags.append(Diagnostic(s.line, s.tokens[0][1], f"duplicate id {hid}"))
                continue
            one_handles[hid] = s.line

    for s in stmts:
        if s.kind != "HANDLE2":
            continue
        before = len(diags)
        (hid, framing, over_text), _ = _walk(s, _FIELDS["HANDLE2"], diags)
        over: dict[str, int] = {}
        col = 0 if over_text is None else s.tokens[2][1] + len("over=")  # of each piece in turn
        for piece in () if over_text is None else over_text.split(","):
            hpart, sep, cpart = piece.partition(":")
            if not sep or not _ID_RE.fullmatch(hpart) or not _INT_RE.fullmatch(cpart):
                diags.append(Diagnostic(s.line, col, f"expected over=id:INT,..., got {piece!r}"))
            elif hpart not in one_handles:
                diags.append(Diagnostic(s.line, col, f"unknown 1-handle {hpart}"))
            elif hpart in over:
                diags.append(Diagnostic(s.line, col, f"run-over count of {hpart} already given"))
            else:
                count = _parse_int(cpart, s.line, col + len(hpart) + 1, diags)
                if count is not None:
                    over[hpart] = count
            col += len(piece) + 1
        if len(diags) > before:
            _note_failed(s, failed)
            continue
        if hid in handle2:
            diags.append(Diagnostic(s.line, s.tokens[0][1], f"duplicate 2-handle {hid}"))
            continue
        if hid not in comps:
            if hid not in failed:
                diags.append(Diagnostic(s.line, s.tokens[0][1], f"2-handle {hid} has no COMP line for its knot"))
            continue
        handle2[hid] = (s.line, framing, tuple(over.items()))

    for cid, comp in comps.items():
        if cid not in handle2 and cid not in failed:
            diags.append(Diagnostic(comp.line, 1, f"component {cid} is not attached to any 2-handle"))

    two_handles = [
        TwoHandle(hid, comps[hid].knot, framing, over)
        for hid, (_line, framing, over) in handle2.items()
    ]
    entries = _collect_lk(stmts, diags, handle2, failed)
    return KirbyDiagram(one_handles, two_handles, LinkingMatrix(entries))


# ---------------------------------------------------------------------------
# Canonical printer


def format_knot(expr: KnotExpr) -> str:
    if isinstance(expr, Atom):
        return expr.label
    return f"band({format_knot(expr.left)},cable({format_knot(expr.of)},{expr.framing}))"


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


def validate_any(d: AnyDiagram) -> list[str]:
    if isinstance(d, KirbyDiagram):
        return validate_kirby(d)
    return validate_diagram(d)
