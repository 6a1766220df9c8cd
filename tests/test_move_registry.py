"""The move registry: one entry per kind, read by apply_move and the CLI."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import comp, random_joint_diagram, reference_box
from test_acceptance import SLIDE_TARGETS
from roundsurgery import (
    Atom,
    BandSum,
    DehnDiagram,
    FramedComponent,
    JointPair,
    LinkingMatrix,
    LooseKnot,
    MoveDescriptor,
    MoveError,
    MoveKind,
    Rational,
    RoundDiagram,
    UNKNOT,
    apply_move,
    eq_move1,
    eq_move3_add,
    eq_move3_del,
    eq_move4,
    joint_pair_to_dehn,
    kirby1_add,
    kirby1_del,
    kirby2_slide,
    parse,
    print_diagram,
    shuffle_a,
    shuffle_b,
)
from roundsurgery.cli import _parse_move
from roundsurgery.moves import MOVES, _MOVE3_ADD_ARGS, _band_sum_bound, _round_moves, _spines

DEHN = DehnDiagram([comp("a"), comp("b", "trefoil")], {"a": 1, "b": 3})
# two random joint pairs plus a deletable third pair
ROUND = eq_move3_add(random_joint_diagram(random.Random(5), min_pairs=2, max_pairs=2), 0, 0, 1)

# one complete descriptor per kind, with the direct call it must equal
EXAMPLES = {
    MoveKind.KIRBY1_ADD: (DEHN, dict(sign=-1), lambda: kirby1_add(DEHN, -1)),
    MoveKind.KIRBY1_DEL: (DEHN, dict(component="a"), lambda: kirby1_del(DEHN, "a")),
    MoveKind.KIRBY2_SLIDE: (DEHN, dict(component="b", component2="a"), lambda: kirby2_slide(DEHN, "b", "a")),
    MoveKind.EQ_MOVE1: (ROUND, dict(pair=0, k=3), lambda: eq_move1(ROUND, 0, 3)),
    MoveKind.SHUFFLE_A: (ROUND, dict(pair=1, k=-2), lambda: shuffle_a(ROUND, 1, -2)),
    MoveKind.SHUFFLE_B: (ROUND, dict(pair=0, pair2=1, k=1, k2=-1), lambda: shuffle_b(ROUND, 0, 1, 1, -1)),
    MoveKind.EQ_MOVE3_ADD: (ROUND, dict(k=1, delta=2, sign=-1), lambda: eq_move3_add(ROUND, 1, 2, -1)),
    MoveKind.EQ_MOVE3_DEL: (ROUND, dict(pair=2), lambda: eq_move3_del(ROUND, 2)),
    MoveKind.EQ_MOVE4: (
        ROUND,
        dict(pair=0, pair2=1, variant="12over21", k=2),
        lambda: eq_move4(ROUND, "12over21", 0, 1, 2),
    ),
}

SNAKE_CASE = {
    MoveKind.KIRBY1_ADD: "kirby1_add",
    MoveKind.KIRBY1_DEL: "kirby1_del",
    MoveKind.KIRBY2_SLIDE: "kirby2_slide",
    MoveKind.EQ_MOVE1: "eq_move1",
    MoveKind.SHUFFLE_A: "shuffle_a",
    MoveKind.SHUFFLE_B: "shuffle_b",
    MoveKind.EQ_MOVE3_ADD: "eq_move3_add",
    MoveKind.EQ_MOVE3_DEL: "eq_move3_del",
    MoveKind.EQ_MOVE4: "eq_move4",
}


def test_every_kind_has_exactly_one_entry():
    assert set(MOVES) == set(MoveKind)
    assert set(EXAMPLES) == set(MoveKind)


@pytest.mark.parametrize("kind", list(MoveKind))
def test_apply_move_calls_the_registered_function_in_field_order(kind):
    diagram, args, direct = EXAMPLES[kind]
    assert set(args) <= set(MOVES[kind].fields)
    assert apply_move(diagram, MoveDescriptor(kind, **args)) == direct()


@pytest.mark.parametrize("kind", list(MoveKind))
def test_cli_accepts_value_lowercase_and_function_name(kind):
    for text in (kind.value, kind.value.lower(), SNAKE_CASE[kind]):
        assert _parse_move(text, "").kind is kind


@pytest.mark.parametrize("kind", list(MoveKind))
def test_missing_required_field_is_named(kind):
    diagram, args, _ = EXAMPLES[kind]
    spec = MOVES[kind]
    for name in spec.fields:
        if name in spec.optional:
            continue
        move = dataclasses.replace(MoveDescriptor(kind, **args), **{name: None})
        with pytest.raises(MoveError, match=f"missing argument '{name}'"):
            apply_move(diagram, move)


@pytest.mark.parametrize("kind", list(MoveKind))
def test_move_on_the_wrong_diagram_type_is_rejected(kind):
    diagram, args, _ = EXAMPLES[kind]
    other = ROUND if isinstance(diagram, DehnDiagram) else DEHN
    with pytest.raises(MoveError, match=f"{kind.value} does not apply to {type(other).__name__}"):
        apply_move(other, MoveDescriptor(kind, **args))


def _band_sums(d) -> int:
    """The band sums on the left spines of all of d's knots."""
    total = 0
    for c in d.components() if isinstance(d, RoundDiagram) else d.components:
        knot = c.knot
        while isinstance(knot, BandSum):
            knot, total = knot.left, total + 1
    return total


@pytest.mark.parametrize("kind", list(MoveKind))
def test_a_move_adds_the_band_sums_its_spec_declares(kind):
    diagram, args, direct = EXAMPLES[kind]
    assert _band_sums(direct()) - _band_sums(diagram) == MOVES[kind].band_sums


@st.composite
def _registry_diagrams(draw, bridgeable=False):
    """Up to two pairs, joint or not (m = None or 1/2), with knots that may
    be band sums and linking between any two of their components, sometimes
    a loose knot, and an unlinked pair of unknots u1, u2 that EqMove3Del
    deletes, at any index, whose Dehn framings are any of the four images
    (+-1, +-1) of an EqMove3Add (_MOVE3_ADD_ARGS).  When bridgeable, every pair is joint with integral m and there
    is no loose knot, so that joint_pair_to_dehn accepts the diagram."""
    knot = st.sampled_from((UNKNOT, Atom("trefoil"), BandSum(Atom("trefoil"), UNKNOT, 2)))
    small = st.integers(-2, 2)
    m = small.map(Rational) if bridgeable else st.one_of(small.map(Rational), st.sampled_from((None, Rational(1, 2))))
    pairs = [
        JointPair(
            FramedComponent(f"a{2 * i}", draw(knot)),
            draw(small),
            FramedComponent(f"a{2 * i + 1}", draw(knot)),
            draw(small),
            draw(m),
        )
        for i in range(draw(st.integers(0, 2)))
    ]
    loose = [LooseKnot(comp("z", "fig8"), Rational(draw(small)))] if not bridgeable and draw(st.booleans()) else []
    ids = [c.id for p in pairs for c in (p.c1, p.c2)] + [l.component.id for l in loose]
    lk = LinkingMatrix((x, y, draw(st.integers(-1, 1))) for x, y in itertools.combinations(ids, 2))
    (delta, sign), k = draw(st.sampled_from(_MOVE3_ADD_ARGS)), draw(small)
    pairs.insert(draw(st.integers(0, len(pairs))), JointPair(comp("u1"), delta + k, comp("u2"), k, Rational(sign)))
    return RoundDiagram(pairs, loose, lk)


@settings(max_examples=30, deadline=None)
@given(_registry_diagrams())
def test_round_moves_change_only_what_their_spec_declares(r):
    """The search's last move rewrites exactly the pairs in which the state
    differs from the goal, reading what each kind changes off MOVES.  Every
    move either raises MoveError or keeps the loose knots, lk unless it
    adds a band sum, and every pair not named by rewrites; and every move but
    an identity regauge changes each pair it rewrites.  A ShuffleB equals
    its twin with the two pairs, and their k values, exchanged, which the
    search skips."""
    for move in reference_box(len(r.pairs), (-1, 2)):
        spec = MOVES[move.kind]
        try:
            out = apply_move(r, move)
        except MoveError:
            continue
        assert out.loose == r.loose, move
        assert spec.band_sums or out.lk == r.lk, move
        rewritten = {getattr(move, name) for name in spec.rewrites}
        kept = [(i, p) for i, p in enumerate(r.pairs) if i not in rewritten]
        if spec.pair_delta < 0:
            assert list(out.pairs) == [p for _, p in kept], move
        else:
            assert len(out.pairs) == len(r.pairs) + spec.pair_delta, move
            assert all(out.pairs[i] == p for i, p in kept), move
            if not (move.kind is MoveKind.EQ_MOVE1 and move.k == r.pairs[move.pair].n2):
                assert all(out.pairs[i] != r.pairs[i] for i in rewritten), move
        if move.kind is MoveKind.SHUFFLE_B:
            twin = MoveDescriptor(MoveKind.SHUFFLE_B, pair=move.pair2, pair2=move.pair, k=move.k2, k2=move.k)
            assert apply_move(r, twin) == out, move


class _EveryKnot:
    """A spine holding every knot, so that _round_moves yields every slide."""

    def __contains__(self, knot):
        return True


@settings(max_examples=50, deadline=None)
@given(_registry_diagrams(), st.sampled_from((None, Rational(1, 0), Rational(3, 2), Rational(-1))), st.data())
def test_apply_move_accepts_every_candidate_round_move(r, m, data):
    """The search applies every move _round_moves yields without a guard,
    and misses none: its candidates are exactly the moves of the reference
    box that apply_move accepts, less the identity regauges (drop 2 of
    bounded_equivalence_search), the ShuffleBs written with pair > pair2
    (drop 9) and the single-pair slides written with pair2 = pair.  Every
    result prints and parses back to itself, so no move stores a
    non-canonical value, such as a zero linking entry.
    Besides the registry diagrams' pairs, a pair with m None, 1/0, p/q or
    an integer is inserted at any index, and every slide is on the spine."""
    pairs = list(r.pairs)
    pairs.insert(data.draw(st.integers(0, len(pairs))), JointPair(comp("v1", "trefoil"), 1, comp("v2"), 0, m))
    r = RoundDiagram(pairs, r.loose, r.lk)
    spines = {cid: _EveryKnot() for cid in r.ids}
    candidates = list(_round_moves(r, [(-1, 0, 2)] * (len(pairs) + 1), spines, set(MoveKind)))
    for move in candidates:
        apply_move(r, move)
    accepted = set()
    for move in reference_box(len(pairs), (-1, 0, 2)):
        try:
            out = apply_move(r, move)
        except MoveError:
            continue
        assert parse(print_diagram(out)).diagram == out, move
        if move.kind is MoveKind.EQ_MOVE1 and move.k == pairs[move.pair].n2:
            continue
        if move.kind is MoveKind.SHUFFLE_B and move.pair > move.pair2:
            continue
        if move.kind is MoveKind.EQ_MOVE4 and move.pair2 == move.pair:
            continue
        accepted.add(move)
    assert set(candidates) == accepted


@settings(max_examples=50, deadline=None)
@given(_registry_diagrams(), st.data())
def test_round_moves_ascend_and_kinds_only_filter_them(r, data):
    """The search returns the lexicographically least sequence because
    _round_moves yields its candidates in strictly ascending sort_key order,
    whatever kinds it is given, and the kinds only filter the candidates.
    Each slot gets random ascending k values, and the slides are on the
    spine for a random set of ids only."""
    slot = st.lists(st.integers(-3, 3), unique=True, max_size=4).map(sorted)
    slot_ks = [data.draw(slot) for _ in range(len(r.pairs) + 1)]
    spines = {cid: _EveryKnot() for cid in data.draw(st.sets(st.sampled_from(sorted(r.ids))))}
    round_kinds = [kind for kind, spec in MOVES.items() if spec.acts_on is RoundDiagram]
    every = list(_round_moves(r, slot_ks, spines, set(round_kinds)))
    for size in range(len(round_kinds) + 1):
        for kinds in itertools.combinations(round_kinds, size):
            out = list(_round_moves(r, slot_ks, spines, set(kinds)))
            keys = [move.sort_key() for move in out]
            assert all(a < b for a, b in zip(keys, keys[1:])), kinds
            assert out == [move for move in every if move.kind in kinds], kinds


def _slide(d, r, move):
    pj = None if move.pair2 is None else r.pairs[move.pair2]
    return kirby2_slide(d, *SLIDE_TARGETS[move.variant](r.pairs[move.pair], pj))


def _blow_down_pair(d, r, move):
    p = r.pairs[move.pair]
    return kirby1_del(kirby1_del(d, p.c1.id), p.c2.id)


# each round kind's Dehn counterpart: what a move of that kind on r does to
# d = joint_pair_to_dehn(r)
DEHN_COUNTERPARTS = {
    MoveKind.EQ_MOVE1: lambda d, r, move: d,
    MoveKind.SHUFFLE_A: lambda d, r, move: d,
    MoveKind.SHUFFLE_B: lambda d, r, move: d,
    MoveKind.EQ_MOVE3_ADD: lambda d, r, move: kirby1_add(kirby1_add(d, move.delta + move.sign), move.sign),
    MoveKind.EQ_MOVE3_DEL: _blow_down_pair,
    MoveKind.EQ_MOVE4: _slide,
}


@settings(max_examples=30, deadline=None)
@given(_registry_diagrams(bridgeable=True))
def test_every_round_move_commutes_with_the_bridge(r):
    """Every round move keeps the manifold: it raises MoveError, or the Dehn
    image of its result is its kind's Kirby counterpart applied to r's.
    Move 3's preconditions are the blow-up and blow-down rules, so when it
    refuses a complete descriptor, its counterpart refuses as well."""
    assert set(DEHN_COUNTERPARTS) == {kind for kind, spec in MOVES.items() if spec.acts_on is RoundDiagram}
    image = joint_pair_to_dehn(r)
    for move in reference_box(len(r.pairs), (-1, 2)):
        try:
            out = apply_move(r, move)
        except MoveError:
            # a descriptor that lacks an argument never reaches move 3's rules
            if move.kind is MoveKind.EQ_MOVE3_ADD or move.kind is MoveKind.EQ_MOVE3_DEL and move.pair is not None:
                with pytest.raises(MoveError):
                    DEHN_COUNTERPARTS[move.kind](image, r, move)
            continue
        assert joint_pair_to_dehn(out) == DEHN_COUNTERPARTS[move.kind](image, r, move), move


@settings(max_examples=100, deadline=None)
@given(_registry_diagrams(), st.data())
def test_band_sum_bound_counts_the_slides_of_any_legal_sequence(r, data):
    """The search prunes a state when _band_sum_bound says it cannot reach
    the goal, or lacks more band sums than the moves left can add.  So from
    a start to the result of any legal sequence of round moves, the bound
    must be the number of band sums the sequence added, as MOVES declares
    them, and so at most its length.  EqMove3Add and EqMove3Del may reuse
    fresh ids along the way."""
    out, added = r, 0
    for _ in range(data.draw(st.integers(1, 4))):
        legal: dict[MoveKind, list] = {}
        for move in reference_box(len(out.pairs), (0, 1)):
            try:
                result = apply_move(out, move)
            except MoveError:
                continue
            legal.setdefault(move.kind, []).append((move, result))
        if not legal:
            break
        # a kind first, so that the rare deletions are drawn as often as slides
        kind = data.draw(st.sampled_from(sorted(legal, key=lambda kind: kind.value)))
        move, out = data.draw(st.sampled_from(legal[kind]))
        added += MOVES[move.kind].band_sums
    assert _band_sum_bound(_spines(out), r) == added
    assert _band_sum_bound(_spines(r), r) == 0
