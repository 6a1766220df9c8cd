import random
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import comp, joint, random_dehn, random_joint_diagram, random_loose
from roundsurgery import (
    Atom,
    BandSum,
    DehnDiagram,
    FramedComponent,
    JointPair,
    KirbyDiagram,
    LinkingMatrix,
    LooseKnot,
    ParseError,
    Rational,
    RoundDiagram,
    SurgeryError,
    TwoHandle,
    parse,
    print_diagram,
)
from roundsurgery import textio
from roundsurgery.textio import _MAX_KNOT_DEPTH, validate_any

BASIC_ROUND = "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0 m=1\nLK a b 1\n"


def test_parse_round_document():
    doc = parse(BASIC_ROUND)
    assert doc.kind == "ROUND"
    r = doc.diagram
    assert len(r.pairs) == 1
    p = r.pairs[0]
    assert (p.n1, p.n2, p.m) == (0, 0, Rational(1))
    assert r.lk.get("a", "b") == 1


def test_parse_infinity_slope():
    doc = parse("ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0 m=1/0\n")
    assert doc.diagram.pairs[0].m == Rational(1, 0)


def test_parse_symmetry_conflict_diagnostic():
    text = BASIC_ROUND + "LK b a 2\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    (diag,) = err.value.diagnostics
    assert diag.line == 6
    assert "symmetry conflict" in diag.message


def test_parse_duplicate_equal_entry_diagnostic():
    text = BASIC_ROUND + "LK b a 1\n"
    with pytest.raises(ParseError, match="duplicate entry"):
        parse(text)


def test_parse_reports_many_diagnostics_with_positions():
    text = "ROUND\nCOMP a knot=unknot\nPAIR a zz n1=0 n2=x m=2/4\nWAT 1\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    messages = [str(d) for d in err.value.diagnostics]
    assert any(m.startswith("4:") and "unknown statement" in m for m in messages)
    assert any(m.startswith("3:") and "expected an integer" in m for m in messages)
    assert any(m.startswith("3:") and "not reduced" in m for m in messages)


def test_parse_unreduced_coefficient_is_semantic_diagnostic():
    text = "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0 m=2/4\n"
    with pytest.raises(ParseError, match="not reduced"):
        parse(text)


def test_parse_header_requirements():
    with pytest.raises(ParseError, match="header"):
        parse("COMP a knot=unknot\n")
    with pytest.raises(ParseError, match="empty"):
        parse("# nothing but comments\n")
    with pytest.raises(ParseError, match="duplicate header"):
        parse("ROUND\nDEHN\n")


def test_parse_kind_restrictions():
    with pytest.raises(ParseError, match="not allowed in a DEHN"):
        parse("DEHN\nCOMP a knot=unknot framing=1\nLOOSE a m=0\n")
    with pytest.raises(ParseError, match="only allowed in DEHN"):
        parse("ROUND\nCOMP a knot=unknot framing=1\n")
    with pytest.raises(ParseError, match="missing framing"):
        parse("DEHN\nCOMP a knot=unknot\n")


def test_parse_round_component_usage_rules():
    with pytest.raises(ParseError, match="already used"):
        parse("ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0\nLOOSE a m=0\n")
    with pytest.raises(ParseError, match="not part of any pair"):
        parse("ROUND\nCOMP a knot=unknot\n")
    with pytest.raises(ParseError, match="unknown component"):
        parse("ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0\nLK a zz 1\n")


def test_parse_kirby_document():
    text = (
        "KIRBY\n"
        "COMP t knot=band(unknot,cable(trefoil,3))\n"
        "HANDLE1 h\n"
        "HANDLE2 t framing=2 over=h:2\n"
    )
    doc = parse(text)
    k = doc.diagram
    assert doc.kind == "KIRBY"
    assert k.one_handles == ("h",)
    (handle,) = k.two_handles
    assert handle.knot == BandSum(Atom("unknot"), Atom("trefoil"), 3)
    assert handle.runs_over == (("h", 2),)


def test_parse_kirby_handle_checks():
    with pytest.raises(ParseError, match="no COMP"):
        parse("KIRBY\nHANDLE1 h\nHANDLE2 t framing=2\n")
    with pytest.raises(ParseError, match="not attached"):
        parse("KIRBY\nCOMP t knot=unknot\nHANDLE1 h\n")
    with pytest.raises(ParseError, match="unknown 1-handle"):
        parse("KIRBY\nCOMP t knot=unknot\nHANDLE2 t framing=2 over=g:1\n")


def test_parse_knot_expression_errors():
    with pytest.raises(ParseError, match="cable"):
        parse("ROUND\nCOMP a knot=band(unknot,unknot)\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0\n")


def test_parse_accepts_comments_blanks_and_crlf():
    text = "ROUND\r\n# a comment\r\n\r\nCOMP a knot=unknot # inline\r\nCOMP b knot=unknot\r\nPAIR a b n1=0 n2=0\r\n"
    doc = parse(text)
    assert len(doc.diagram.pairs) == 1


def test_print_canonical_shape():
    r = RoundDiagram(
        [joint(comp("b"), 1, comp("a"), 2, None)],
        [LooseKnot(comp("z", "trefoil"), Rational(-3, 2))],
        LinkingMatrix([("z", "a", -1), ("a", "b", 0)]),
    )
    assert print_diagram(r) == (
        "ROUND\n"
        "COMP a knot=unknot\n"
        "COMP b knot=unknot\n"
        "COMP z knot=trefoil\n"
        "PAIR b a n1=1 n2=2\n"
        "LOOSE z m=-3/2\n"
        "LK a z -1\n"
    )


def test_print_parse_identity_round():
    rng = random.Random(77)
    for _ in range(60):
        r = random_joint_diagram(rng, max_pairs=3)
        if rng.random() < 0.3:
            r = RoundDiagram(r.pairs, [random_loose(rng, "zz")], r.lk)
        text = print_diagram(r)
        doc = parse(text)
        assert doc.diagram == r
        assert print_diagram(doc.diagram) == text


def test_print_parse_identity_dehn():
    rng = random.Random(78)
    for _ in range(60):
        d = random_dehn(rng)
        doc = parse(print_diagram(d))
        assert doc.diagram == d


def test_print_parse_identity_kirby():
    k = KirbyDiagram(
        ("h1", "h2"),
        (
            TwoHandle("s", Atom("unknot"), -4, (("h1", 1), ("h2", -2))),
            TwoHandle("t", BandSum(Atom("fig8"), Atom("unknot"), 1), 3),
        ),
        LinkingMatrix([("s", "t", 2)]),
    )
    text = print_diagram(k)
    doc = parse(text)
    assert doc.diagram == k
    assert print_diagram(doc.diagram) == text


def test_print_is_idempotent():
    rng = random.Random(79)
    for _ in range(30):
        r = random_joint_diagram(rng)
        once = print_diagram(r)
        assert print_diagram(parse(once).diagram) == once


def test_structurally_equal_diagrams_print_identically():
    rng = random.Random(80)
    for _ in range(30):
        r = random_joint_diagram(rng, max_pairs=2)
        clone = RoundDiagram(
            [joint(comp(p.c1.id, p.c1.knot.label, p.c1.fibred), p.n1,
                   comp(p.c2.id, p.c2.knot.label, p.c2.fibred), p.n2, p.m.p)
             for p in r.pairs],
            (),
            LinkingMatrix([(a, b, v) for (a, b), v in r.lk.items()]),
        )
        assert clone == r
        assert print_diagram(clone) == print_diagram(r)


def test_explicit_zero_linking_prints_nothing():
    r = RoundDiagram(
        [joint(comp("a"), 0, comp("b"), 0, 1)],
        (),
        LinkingMatrix([("a", "b", 0)]),
    )
    assert "LK" not in print_diagram(r)


BIG = "7" * 5000  # more digits than Python's default str->int limit of 4,300


@pytest.mark.parametrize(
    "text, line, col",
    [
        (f"ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1={BIG} n2=0 m=0\n", 4, 13),
        (f"ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0 m=-{BIG}/1\n", 4, 22),
        (f"ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0 m=1/{BIG}\n", 4, 22),
        (f"ROUND\nCOMP a knot=unknot\nLOOSE a m={BIG}\n", 3, 11),
        (f"DEHN\nCOMP a knot=unknot framing={BIG}\n", 2, 28),
        (f"DEHN\nCOMP a knot=unknot framing=0\nCOMP b knot=unknot framing=0\nLK a b {BIG}\n", 4, 8),
        (f"DEHN\nCOMP a knot=band(unknot,cable(unknot,{BIG})) framing=0\n", 2, 38),
        (f"KIRBY\nCOMP t knot=unknot\nHANDLE1 h\nHANDLE2 t framing=0 over=h:{BIG}\n", 4, 28),
    ],
    ids=["n1", "m-numerator", "m-denominator", "loose-m", "framing", "lk", "knot-framing", "over"],
)
def test_parse_reports_an_integer_beyond_the_digit_limit_at_its_token(text, line, col):
    with pytest.raises(ParseError) as info:
        parse(text)
    (d,) = [d for d in info.value.diagnostics if d.message.startswith("integer too large")]
    assert (d.line, d.col) == (line, col)
    assert d.message.startswith("integer too large: 5000 digits, the limit is ")


@pytest.mark.parametrize(
    "text, line, col",
    [
        (f"ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1={BIG} n2=0 m=0\n", 4, 13),
        ("ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=x n2=0 m=0\n", 4, 13),
        ("ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0 m=0 x\n", 4, 24),
        ("ROUND\nCOMP a knot=unknot\nLOOSE a m=x\n", 3, 11),
        ("ROUND\nCOMP a knot=band(unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0 m=1\nLK a b 1\n", 2, 24),
        ("ROUND\nCOMP a knot=unknot x\nLOOSE a m=1\n", 2, 20),
        ("DEHN\nCOMP a knot=unknot framing=x\nCOMP b knot=unknot framing=1\nLK b a 1\n", 2, 28),
        ("KIRBY\nCOMP t knot=band(x\nCOMP u knot=unknot\nHANDLE2 t framing=1\nHANDLE2 u framing=0\nLK t u 1\n", 2, 19),
        (
            "KIRBY\nCOMP t knot=unknot\nCOMP u knot=unknot\nHANDLE1 h\nHANDLE2 t framing=1 over=q:1\n"
            "HANDLE2 u framing=0\nLK t u 1\n",
            5,
            26,
        ),
        ("KIRBY\nCOMP t knot=unknot\nCOMP u knot=unknot\nHANDLE2 t\nHANDLE2 u framing=0\nLK t u 1\n", 4, 1),
        # a failed line, then a good one with its id: only the failed line is reported
        ("KIRBY\nCOMP t knot=unknot\nHANDLE1 h\nHANDLE2 t framing=x over=h:1\nHANDLE2 t framing=0\n", 4, 19),
        ("DEHN\nCOMP a knot=unknot framing=x\nCOMP a knot=unknot framing=1\n", 2, 28),
        ("ROUND\nCOMP a knot=unknot framing=1\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0\n", 2, 20),
    ],
    ids=["long-n1", "bad-n1", "extra-token", "bad-loose-m", "bad-comp-pair-lk", "bad-comp-loose", "bad-comp-dehn",
         "bad-comp-kirby", "bad-handle2", "handle2-without-framing", "bad-handle2-then-good", "bad-comp-then-good-dehn",
         "bad-comp-then-good-round"],
)
def test_a_bad_field_gives_one_diagnostic_not_one_per_component(text, line, col):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert [(d.line, d.col) for d in info.value.diagnostics] == [(line, col)]


@pytest.mark.parametrize(
    "nest",
    [
        lambda depth: "band(" * depth + "unknot" + ",cable(unknot,1))" * depth,
        lambda depth: "band(unknot,cable(" * depth + "unknot" + ",1))" * depth,
    ],
    ids=["left", "cable"],
)
def test_parse_reports_a_knot_nested_beyond_the_limit_at_its_token(nest):
    def document(depth):
        return f"DEHN\nCOMP a knot={nest(depth)} framing=0\n"

    assert print_diagram(parse(document(_MAX_KNOT_DEPTH)).diagram) == document(_MAX_KNOT_DEPTH)
    with pytest.raises(ParseError) as info:
        parse(document(_MAX_KNOT_DEPTH + 1))
    (d,) = info.value.diagnostics
    line, at = document(_MAX_KNOT_DEPTH + 1).split("\n")[1], -1
    for _ in range(_MAX_KNOT_DEPTH + 1):  # the band( one level too deep
        at = line.index("band(", at + 1)
    assert (d.line, d.col) == (2, at + 1)
    assert d.message == f"knot expression nested deeper than {_MAX_KNOT_DEPTH} band sums"


@pytest.mark.parametrize("depth", [_MAX_KNOT_DEPTH + 1, 1000])
def test_print_diagram_refuses_a_knot_nested_beyond_the_limit(depth):
    """The printer keeps the parser's limit: a knot built in code deeper than
    the parser reads raises SurgeryError, not text that does not parse back
    (or, deep enough, RecursionError)."""
    knot = Atom("unknot")
    for _ in range(depth):
        knot = BandSum(knot, Atom("unknot"), 1)
    dehn = DehnDiagram([FramedComponent("a", knot)], {"a": 0}, LinkingMatrix())
    with pytest.raises(SurgeryError, match=f"^knot expression nested deeper than {_MAX_KNOT_DEPTH} band sums$"):
        print_diagram(dehn)


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("ROUND\n\tCOMP\ta\t knot=unknot\nCOMP b knot=unknot\nPAIR\ta\t\tb n1=0\tn2=0 m=1\tb\n", 4, 25),
        ("DEHN\nCOMP   a    knot=unknot     framing=1\nCOMP b knot=unknot framing=2\nLK   a     b    a\n", 4, 17),
        ("ROUND\r\nCOMP a knot=unknot\r\nCOMP b   knot=unknot\r\nPAIR a b n1=0 n2=0 m=1   bogus\r\n", 4, 26),
        ("DEHN\nCOMP a knot=unknot framing=1 # comment x\nLK a zz 1 # unknown zz\n", 3, 6),
        ("ROUND\nCOMP\u00a0a knot=unknot\nLOOSE\u00a0\u00a0a m=x\n", 3, 12),
        ("DEHN\nCOMP a\u2003knot=unknot\u2003\u2003framing=y\n", 2, 29),
        ("KIRBY\nCOMP t\x1cknot=unknot\nHANDLE1\x1ch\nHANDLE2\x1ct\x1c\x1cframing=1\x1cover=h:1\nLK\x1ct \x1c\x1cq 1\n",
         5, 8),
    ],
    ids=["tabs", "space-runs", "crlf", "comment", "no-break-space", "em-space", "file-separator"],
)
def test_diagnostic_columns_count_each_whitespace_character_once(text, line, col):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert [(d.line, d.col) for d in info.value.diagnostics] == [(line, col)]


@pytest.mark.parametrize(
    "text, message",
    [
        ("ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nCOMP c knot=unknot\nPAIR a b n1=0 n2=0\nPAIR c  b n1=0 n2=0\n",
         "6:9: component b already used on line 5"),
        ("ROUND\nCOMP a knot=unknot\nPAIR a   a n1=0 n2=0\n", "3:10: a pair needs two distinct components"),
        ("ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\nPAIR a  zz n1=0 n2=0\nLOOSE b m=0\n",
         "4:9: unknown component zz"),
        ("DEHN\nCOMP a knot=unknot framing=0\nLK a   zz 1\n", "3:8: unknown component zz"),
        ("DEHN\nCOMP a knot=unknot framing=0\nLK  a a 1\n", "3:5: linking of a with itself is not allowed"),
        ("DEHN\nCOMP a knot=unknot framing=0\nCOMP b knot=unknot framing=0\nLK a b 1\nLK\tb a 2\n",
         "5:4: linking of a and b already given (symmetry conflict)"),
        ("DEHN\nCOMP a knot=unknot framing=0\nCOMP  a knot=trefoil framing=1\n", "3:7: duplicate component a"),
    ],
    ids=["already-used", "same-pair-ids", "unknown-in-pair", "unknown-in-lk", "self-link", "lk-conflict", "duplicate-comp"],
)
def test_a_semantic_diagnostic_points_at_the_token_it_names(text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value).split("\n")[-1] == message


CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.rsd"))
#: Every character that separates tokens within a line.
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c != "\n"]


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(CORPUS), data=st.data())
def test_respacing_a_document_keeps_its_diagram(path, data):
    text = path.read_text(encoding="utf-8")
    runs = st.text(st.sampled_from(WHITESPACE), min_size=1, max_size=3)
    lines = [
        data.draw(st.text(st.sampled_from(WHITESPACE), max_size=2)) + "".join(w + data.draw(runs) for w in raw.split())
        for raw in text.split("\n")
    ]
    assert parse("\n".join(lines)).diagram == parse(text).diagram


def test_the_statement_patterns_match_every_canonical_comp_pair_and_lk_line():
    matched = 0
    for path in CORPUS:
        for line in path.read_text(encoding="utf-8").splitlines():
            kind = line.split(" ", 1)[0]
            if kind in ("COMP", "PAIR", "LK") and "/" not in line:
                assert textio._LINE_RE.fullmatch(line)[kind], line
                matched += 1
    assert matched > 100


def test_no_canonical_comp_pair_or_lk_line_reaches_the_walker():
    """Canonical COMP, LK, and PAIR lines with an integral or no m are read by
    the line pattern alone: over the canonical print of every corpus file, a
    100-pair ROUND document and a 32-component DEHN document, only LOOSE,
    HANDLE and rational-m PAIR lines are walked."""
    rng = random.Random(23)
    r = random_joint_diagram(rng, min_pairs=100, max_pairs=100, lk_probability=0.02)
    pairs = [JointPair(p.c1, p.n1, p.c2, p.n2, None if i % 3 else p.m) for i, p in enumerate(r.pairs)]
    knots = (Atom("unknot"), Atom("trefoil"), BandSum(Atom("a"), BandSum(Atom("b"), Atom("c"), 2), -1))
    components = [FramedComponent(f"k{i:02d}", knots[i % 3], i % 4 == 0) for i in range(32)]
    entries = [(a.id, b.id, rng.choice((-2, -1, 1, 2))) for i, a in enumerate(components) for b in components[i + 1:]]
    dehn = DehnDiagram(components, {c.id: rng.randint(-6, 6) for c in components}, LinkingMatrix(entries))
    texts = [print_diagram(parse(path.read_text(encoding="utf-8")).diagram) for path in CORPUS]
    texts += [print_diagram(RoundDiagram(pairs, (), r.lk)), print_diagram(dehn)]
    walked = []  # (kind, line) of each statement sent to the walker
    walk = textio._walk

    def counting(s, fields, diags):
        walked.append((s[1], s[2]))
        return walk(s, fields, diags)

    with mock.patch.object(textio, "_walk", counting):
        for text in texts:
            parse(text)
    assert {kind for kind, _ in walked} == {"PAIR", "LOOSE", "HANDLE1", "HANDLE2"}  # the counter sees the walker
    assert [line for kind, line in walked if kind in ("COMP", "LK") or (kind == "PAIR" and "/" not in line)] == []


_KNOT_TEXTS = ("unknot", "trefoil", "band(unknot,cable(fig8,-2))", "band(band(a,cable(b,1)),cable(c,0))")
_BROKEN_KNOTS = ("", "band(unknot", "band(a,cable(b,x))", "unknot)", "band(a,cable(b,1))x", f"band(a,cable(b,{BIG}))")
_MUTATIONS = (
    "long-int", "rational-m", "bad-id", "other-id", "extra", "broken-knot", "drop", "framing", "fibred", "plus", "twice"
)


@st.composite
def _grammar_lines(draw):
    """The words of each line of a document shaped by the grammar: a header,
    COMP lines and, by kind, PAIR, LOOSE, LK and HANDLE lines."""
    header = draw(st.sampled_from(("ROUND", "DEHN", "KIRBY")))
    ids = [f"c{i}" for i in range(draw(st.integers(2, 6)))]
    ints = st.integers(-20, 20).map(str)
    lines = [[header]]
    for cid in ids:
        words = ["COMP", cid, "knot=" + draw(st.sampled_from(_KNOT_TEXTS))]
        if header == "DEHN":
            words.append("framing=" + draw(ints))
        if draw(st.integers(0, 9)) < (1 if header == "KIRBY" else 5):  # KIRBY forbids fibred
            words.append("fibred")
        lines.append(words)
    if header == "ROUND":
        for i in range(0, len(ids) - 1, 2):
            words = ["PAIR", ids[i], ids[i + 1], "n1=" + draw(ints), "n2=" + draw(ints)]
            if draw(st.booleans()):
                words.append("m=" + draw(ints))
            lines.append(words)
        if len(ids) % 2:
            lines.append(["LOOSE", ids[-1], "m=" + draw(ints)])
    elif header == "KIRBY":
        lines += [["HANDLE1", "h"], ["HANDLE1", "g"]]
        for cid in ids:
            over = [draw(st.sampled_from(("h", "g"))) + ":" + draw(ints) for _ in range(draw(st.integers(1, 2)))]
            lines.append(["HANDLE2", cid, "framing=" + draw(ints), "over=" + ",".join(over)])
    pairs = st.sampled_from([(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]])
    for a, b in draw(st.lists(pairs, max_size=4, unique=True)):
        lines.append(["LK", a, b, draw(ints)])
    return lines


def _mutate(draw, words):
    """A line's words changed so that the line is malformed, reaches the
    semantic checks in a new way, or falls to the walker; "twice" repeats
    the line."""
    words = list(words)
    at = draw(st.integers(0, len(words) - 1))
    kind = draw(st.sampled_from(_MUTATIONS))
    if kind == "long-int":
        words[at] = re.sub(r"-?[0-9]+", BIG, words[at], count=1)
    elif kind == "rational-m":
        words.append("m=" + draw(st.sampled_from(("3/2", "1/0", "2/4", "-1/3", "0/0", "1/x", f"1/{BIG}"))))
    elif kind == "bad-id" and len(words) > 1:
        words[max(1, at)] = draw(st.sampled_from(("a!", ".a", "-a", "c0=", "c0,c1", "é", "c9")))
    elif kind == "other-id" and len(words) > 1:
        words[max(1, at)] = draw(st.sampled_from(("c0", "c1", "c9")))
    elif kind == "extra":
        words.insert(at + 1, draw(st.sampled_from(("x", "fibred", "m=1", "7"))))
    elif kind == "broken-knot":
        words = [("knot=" + draw(st.sampled_from(_BROKEN_KNOTS))) if w.startswith("knot=") else w for w in words]
    elif kind == "drop" and len(words) > 1:
        del words[at]
    elif kind == "framing":
        words.insert(3, "framing=" + draw(st.sampled_from(("1", "x", BIG))))
    elif kind == "fibred":
        words.append("fibred")
    elif kind == "plus":
        words[at] = words[at].replace("=", "=+", 1) if "=" in words[at] else "+" + words[at]
    return [words, words] if kind == "twice" else [words]


def _mutated(draw, lines):
    """lines with up to two of them mutated by _mutate."""
    lines = list(lines)
    for at in sorted(draw(st.lists(st.integers(0, len(lines) - 1), max_size=2, unique=True)), reverse=True):
        lines[at:at + 1] = _mutate(draw, lines[at])
    return lines


@settings(max_examples=300, deadline=None)
@given(lines=_grammar_lines(), data=st.data())
def test_the_statement_patterns_agree_with_the_walker(lines, data):
    """parse gives the same diagram, or byte-identical diagnostics, with the
    line pattern patched down to its catch-all, so that every line goes to
    the walker: the walker is the reference for every line the statement
    alternatives read.  About half of the lines are spelled canonically (no
    leading space, single spaces, no comment, LF), so that mutated lines
    reach the statement alternatives too, and a quarter of the documents
    get a header drawn afresh, so that statements it does not allow do."""
    lines = _mutated(data.draw, lines)
    if data.draw(st.integers(0, 3)) == 0:
        lines[0] = [data.draw(st.sampled_from(("ROUND", "DEHN", "KIRBY")))]
    space = st.text(st.sampled_from(" \t\x1c\u00a0"), min_size=1, max_size=3)
    text = ""
    for words in lines:
        if data.draw(st.booleans()):
            text += " ".join(words) + "\n"
            continue
        text += data.draw(st.sampled_from(("", " ", "\t"))) + data.draw(space).join(words)
        text += data.draw(st.sampled_from(("", "\r", " # note", "#LK c0 c1 1", "\r\n"))) + "\n"

    def outcome():
        try:
            doc = parse(text)
        except ParseError as exc:
            return str(exc)
        return doc.kind, doc.diagram, print_diagram(doc.diagram)

    # each statement alternative made to fail at its start, leaving the catch-all
    walker_only, patched = re.subn(r"(?<=[(|])(?=(COMP|PAIR|LK) )", "(?!)", textio._LINE_RE.pattern)
    assert patched == 3
    with mock.patch.object(textio, "_LINE_RE", re.compile(walker_only, re.MULTILINE)):
        expected = outcome()
    assert outcome() == expected


@settings(max_examples=300, deadline=None)
@given(lines=_grammar_lines(), data=st.data())
def test_every_document_parse_accepts_round_trips_and_validates_clean(lines, data):
    """parse either rejects a document with diagnostics, or its diagram
    prints, parses back to an equal diagram, prints the same again, and has
    no violation: a document parse accepts never fails validation."""
    text = "".join(" ".join(words) + "\n" for words in _mutated(data.draw, lines))
    try:
        doc = parse(text)
    except ParseError:
        return
    printed = print_diagram(doc.diagram)
    again = parse(printed)
    assert (again.kind, again.diagram) == (doc.kind, doc.diagram)
    assert print_diagram(again.diagram) == printed
    assert validate_any(doc.diagram) == []


@pytest.mark.parametrize("over", ["h:1,h:1", "h:1,h:-1", "h:0,h:2", "g:1,h:2,g:0"])
def test_a_1_handle_named_twice_in_one_over_list_is_a_diagnostic_at_its_token(over):
    text = f"KIRBY\nCOMP t knot=unknot\nHANDLE1 g\nHANDLE1 h\nHANDLE2 t framing=0 over={over}\n"
    with pytest.raises(ParseError) as info:
        parse(text)
    (d,) = info.value.diagnostics
    named = over.split(":")[0]
    col = len("HANDLE2 t framing=0 over=") + over.rindex(named + ":") + 1  # the second piece naming it
    assert (d.line, d.col, d.message) == (5, col, f"run-over count of {named} already given")


def test_a_slope_builds_exactly_when_its_text_parses():
    """Rational(p, q) raises exactly when m=p/q is a diagnostic, with the
    same message, at the value's first character; a slope that builds
    prints and parses back equal."""
    col = len("LOOSE z m=") + 1
    for p in range(-12, 13):
        for q in range(-3, 13):
            try:
                slope, message = Rational(p, q), None
            except SurgeryError as exc:
                slope, message = None, str(exc)
            if q < 0:  # no text: the grammar's denominator has no sign
                assert message == f"denominator of {p}/{q} is negative"
                continue
            text = f"ROUND\nCOMP z knot=unknot\nLOOSE z m={p}/{q}\n"
            try:
                doc, got = parse(text), None
            except ParseError as exc:
                (d,) = exc.diagnostics
                doc, got = None, (d.line, d.col, d.message)
            if slope is None:
                assert got == (3, col, message)
                continue
            assert got is None and doc.diagram.loose[0].m == slope
            r = RoundDiagram((), [LooseKnot(comp("z"), slope)])
            assert parse(print_diagram(r)).diagram == r


_R2 = "ROUND\nCOMP a knot=unknot\nCOMP b knot=unknot\n"
_D2 = "DEHN\nCOMP a knot=unknot framing=0\nCOMP b knot=unknot framing=0\n"
_K1 = "KIRBY\nCOMP t knot=unknot\nHANDLE1 h\n"


@pytest.mark.parametrize(
    "text, at",
    [
        (_R2 + "PAIR a b n1=x n2=0\n", "x"),
        (_R2 + "PAIR a b n1=0 n2=y\n", "y"),
        (_R2 + "PAIR a b n1=0 n2=0 m=1/z\n", "1/z"),
        ("ROUND\nCOMP a knot=unknot\nLOOSE a m=q\n", "q"),
        ("DEHN\nCOMP a knot=unknot framing=x\n", "x"),
        (_K1 + "HANDLE2 t framing=x\n", "x"),
        ("DEHN\nCOMP a knot=band(unknot,cable(unknot,x)) framing=0\n", "x))"),
        (_K1 + "HANDLE2 t framing=0 over=h:1,q:2\n", "q:2"),
        (_K1 + "HANDLE2 t framing=0 over=h:1,h:2\n", "h:2"),
        (_K1 + "HANDLE2 t framing=0 over=h:1,h;2\n", "h;2"),
        (_K1 + f"HANDLE2 t framing=0 over=h:{BIG}\n", BIG),
    ],
    ids=["pair-n1", "pair-n2", "pair-m", "loose-m", "comp-framing", "handle2-framing", "knot", "over-unknown",
         "over-twice", "over-malformed", "over-long-count"],
)
def test_a_diagnostic_about_a_value_points_at_its_first_character(text, at):
    """One column rule for every value field: the diagnostic points at the
    first character of the value it is about, or of the over= piece, or of
    the piece's count, not at the field's key."""
    with pytest.raises(ParseError) as info:
        parse(text)
    lines = text.rstrip("\n").split("\n")
    assert [(d.line, d.col) for d in info.value.diagnostics] == [(len(lines), lines[-1].index(at) + 1)]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("DEHN\nCOMP a!\n", ["2:1: COMP: missing knot=EXPR", "2:1: COMP: missing framing=INT",
                            "2:6: invalid identifier 'a!'"]),
        ("ROUND\nCOMP a knot=unknot fibred x\nLOOSE a m=1\n", ["2:27: unexpected token 'x'"]),
        (_R2 + "PAIR a b n1=x\n", ["4:1: PAIR: missing n2=INT", "4:13: expected an integer, got 'x'"]),
        (_R2 + "PAIR a b n1=0 n2=0 m=1 x\n", ["4:24: unexpected token 'x'"]),
        ("ROUND\nCOMP a knot=unknot\nLOOSE\n", ["2:1: component a is not part of any pair or loose knot",
                                               "3:1: LOOSE: missing component id", "3:1: LOOSE: missing m=RAT"]),
        ("ROUND\nCOMP a knot=unknot\nLOOSE a m=1/x 2\n", ["3:11: expected INT/NAT, got '1/x'",
                                                          "3:15: unexpected token '2'"]),
        (_D2 + "LK a b!\n", ["4:1: LK: missing linking number", "4:6: invalid identifier 'b!'"]),
        (_D2 + "LK a b 1 x\n", ["4:10: unexpected token 'x'"]),
        (_K1 + "HANDLE1\nHANDLE2 t framing=0\n", ["4:1: HANDLE1: missing handle id"]),
        # the handle is still declared, so the over= list that names it is fine
        ("KIRBY\nCOMP t knot=unknot\nHANDLE1 h x\nHANDLE2 t framing=0 over=h:1\n", ["3:11: unexpected token 'x'"]),
        (_K1 + "HANDLE2 t!\n", ["2:1: component t is not attached to any 2-handle",
                                "4:1: HANDLE2: missing framing=INT", "4:9: invalid identifier 't!'"]),
        (_K1 + "HANDLE2 t framing=0 over=h:1 x\n", ["4:30: unexpected token 'x'"]),
    ],
    ids=["comp-missing", "comp-extra", "pair-missing", "pair-extra", "loose-missing", "loose-extra", "lk-missing",
         "lk-extra", "handle1-missing", "handle1-extra", "handle2-missing", "handle2-extra"],
)
def test_the_walker_checks_every_token_and_reports_every_missing_one(text, expected):
    """Every statement kind follows one rule: each field is read left to
    right, each token there is checked, each missing required token is
    reported, and the first extra token is unexpected."""
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value).split("\n") == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("ROUND\nCOMP a! knot=unknot\nCOMP b knot=unknot\nPAIR a b n1=0 n2=0\n",
         ["2:6: invalid identifier 'a!'", "4:6: unknown component a"]),
        (_R2 + "PAIR a! b n1=0 n2=0\n",
         ["2:1: component a is not part of any pair or loose knot", "4:6: invalid identifier 'a!'"]),
        (_R2 + "PAIR a b! n1=0 n2=0\n",
         ["3:1: component b is not part of any pair or loose knot", "4:8: invalid identifier 'b!'"]),
        ("ROUND\nCOMP a knot=unknot\nLOOSE a! m=1\n",
         ["2:1: component a is not part of any pair or loose knot", "3:7: invalid identifier 'a!'"]),
        (_D2 + "LK a! b 1\n", ["4:4: invalid identifier 'a!'"]),
        ("KIRBY\nCOMP t knot=unknot\nHANDLE1 h!\nHANDLE2 t framing=0\n", ["3:9: invalid identifier 'h!'"]),
        (_K1 + "HANDLE2 t! framing=0 over=h:1\n",
         ["2:1: component t is not attached to any 2-handle", "4:9: invalid identifier 't!'"]),
    ],
    ids=["comp", "pair-first", "pair-second", "loose", "lk", "handle1", "handle2"],
)
def test_every_statement_kind_checks_its_ids_as_identifiers(text, expected):
    """An id that is not an identifier is reported as one at its token, on
    every statement kind; a PAIR or LOOSE line no longer reports it as an
    unknown component."""
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value).split("\n") == expected
