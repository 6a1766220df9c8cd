import hashlib
import itertools
import random
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import comp, joint, one_pair_diagram, random_dehn, random_joint_diagram, reference_box
from reference_counts import K_RANGE, _random_queries, _result
from roundsurgery import (
    AbelianGroup,
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
    apply_sequence,
    bounded_equivalence_search,
    eq_move1,
    eq_move3_add,
    eq_move3_del,
    eq_move4,
    first_homology,
    first_homology_round,
    joint_pair_to_dehn,
    kirby1_add,
    kirby1_del,
    kirby2_slide,
    parse,
    shuffle_a,
    shuffle_b,
)
from roundsurgery import moves
from roundsurgery.moves import EQ_MOVE4_VARIANTS, _band_sum_bound, _spines

# which Dehn components the corresponding handle slide acts on, per variant
SLIDE_TARGETS = {
    "11over12": lambda pi, pj: (pi.c1.id, pi.c2.id),
    "12over11": lambda pi, pj: (pi.c2.id, pi.c1.id),
    "11over21": lambda pi, pj: (pi.c1.id, pj.c1.id),
    "11over22": lambda pi, pj: (pi.c1.id, pj.c2.id),
    "12over21": lambda pi, pj: (pi.c2.id, pj.c1.id),
    "12over22": lambda pi, pj: (pi.c2.id, pj.c2.id),
}


# ---------------------------------------------------------------------------
# Kirby moves


def test_kirby1_add_to_empty_diagram():
    d = kirby1_add(DehnDiagram((), {}), 1)
    (c,) = d.components
    assert c.knot == UNKNOT and d.framing[c.id] == 1


def test_kirby1_add_keeps_linking_zero():
    base = DehnDiagram([comp("k", "trefoil")], {"k": 5})
    d = kirby1_add(base, -1)
    assert len(d.components) == 2
    new = next(iter(d.ids - base.ids))
    assert d.framing[new] == -1
    assert d.lk.get(new, "k") == 0


def test_kirby1_add_preserves_homology():
    rng = random.Random(3)
    for _ in range(30):
        d = random_dehn(rng, max_components=4)
        assert first_homology(kirby1_add(d, rng.choice((1, -1)))) == first_homology(d)


def test_kirby1_del_inverts_add():
    base = DehnDiagram([comp("k", "trefoil")], {"k": 5}, LinkingMatrix())
    d = kirby1_add(base, 1)
    new = next(iter(d.ids - base.ids))
    assert kirby1_del(d, new) == base


def test_kirby1_del_rejections():
    zero = DehnDiagram([comp("u")], {"u": 0})
    with pytest.raises(MoveError, match="framing"):
        kirby1_del(zero, "u")
    linked = DehnDiagram(
        [comp("u"), comp("k")], {"u": 1, "k": 2}, LinkingMatrix([("u", "k", 1)])
    )
    with pytest.raises(MoveError, match="links"):
        kirby1_del(linked, "u")
    knotted = DehnDiagram([comp("t", "trefoil")], {"t": 1})
    with pytest.raises(MoveError, match="unknot"):
        kirby1_del(knotted, "t")


def test_kirby2_slide_framing_formula():
    d = DehnDiagram([comp("a"), comp("b")], {"a": 1, "b": 2})
    out = kirby2_slide(d, "a", "b")
    assert out.framing["a"] == 3
    assert out.framing["b"] == 2


def test_kirby2_slide_over_zero_framed_unknot():
    d = DehnDiagram([comp("a", "trefoil"), comp("b")], {"a": 4, "b": 0})
    out = kirby2_slide(d, "a", "b")
    assert out.framing["a"] == 4
    assert out.lk.get("a", "b") == 0
    assert out.component("a").knot == BandSum(Atom("trefoil"), UNKNOT, 0)


def test_kirby2_slide_linking_bookkeeping():
    d = DehnDiagram(
        [comp("a"), comp("b"), comp("x")],
        {"a": 2, "b": 3, "x": 0},
        LinkingMatrix([("a", "b", 1), ("b", "x", 4)]),
    )
    out = kirby2_slide(d, "a", "b")
    assert out.framing["a"] == 2 + 3 + 2 * 1
    assert out.lk.get("a", "x") == 4
    assert out.lk.get("a", "b") == 1 + 3
    assert out.lk.get("b", "x") == 4
    assert first_homology(out) == first_homology(d)


def test_kirby2_slide_preserves_cokernel_randomized():
    rng = random.Random(13)
    for _ in range(40):
        d = random_dehn(rng, max_components=5)
        if len(d.components) < 2:
            continue
        a, b = rng.sample(sorted(d.ids), 2)
        assert first_homology(kirby2_slide(d, a, b)) == first_homology(d)


def test_kirby2_slide_rejects_self_slide():
    d = DehnDiagram([comp("a")], {"a": 0})
    with pytest.raises(MoveError):
        kirby2_slide(d, "a", "a")


# ---------------------------------------------------------------------------
# Equivalence move 1 and shuffles


def test_eq_move1_identity_at_k_equals_n2():
    r = one_pair_diagram(3, 1, 2)
    assert eq_move1(r, 0, 1) == r


def test_eq_move1_regauges_and_keeps_bridge_image():
    r = one_pair_diagram(3, 1, 2)
    out = eq_move1(r, 0, 0)
    assert (out.pairs[0].n1, out.pairs[0].n2, out.pairs[0].m) == (2, 0, Rational(2))
    assert joint_pair_to_dehn(out) == joint_pair_to_dehn(r)


def test_eq_move1_collapses_equal_coefficients():
    for n in (-2, 0, 4):
        for k in (-3, 0, 5):
            out = eq_move1(one_pair_diagram(n, n, 7), 0, k)
            assert (out.pairs[0].n1, out.pairs[0].n2) == (k, k)


def test_eq_move1_bridge_invariance_exhaustive_and_random():
    r = one_pair_diagram(3, 1, 2, lk=1)
    image = joint_pair_to_dehn(r)
    for k in range(-10, 11):
        assert joint_pair_to_dehn(eq_move1(r, 0, k)) == image
    rng = random.Random(99)
    for _ in range(100):
        d = random_joint_diagram(rng)
        image = joint_pair_to_dehn(d)
        i = rng.randrange(len(d.pairs))
        assert joint_pair_to_dehn(eq_move1(d, i, rng.randint(-50, 50))) == image


def test_eq_move1_with_k_equal_to_m_realizes_plus_minus_one_diagrams():
    # bridge image (1, 1): n1 == n2, m = 1; take k = m
    out = eq_move1(one_pair_diagram(6, 6, 1), 0, 1)
    assert (out.pairs[0].n1, out.pairs[0].n2, out.pairs[0].m) == (1, 1, Rational(1))
    # bridge image (1, -1): n1 - n2 = 2, m = -1; k = -1 gives (1, -1, -1)
    out = eq_move1(one_pair_diagram(5, 3, -1), 0, -1)
    assert (out.pairs[0].n1, out.pairs[0].n2, out.pairs[0].m) == (1, -1, Rational(-1))


def test_eq_move1_rejects_non_joint_pair():
    r = one_pair_diagram(0, 0, None)
    with pytest.raises(MoveError, match="not a joint pair"):
        eq_move1(r, 0, 1)


def test_shuffle_a_example():
    out = shuffle_a(one_pair_diagram(3, 1, 2), 0, 0)
    p = out.pairs[0]
    assert (p.c1.id, p.c2.id) == ("b", "a")
    assert (p.n1, p.n2, p.m) == (-2, 0, Rational(4))


def test_shuffle_a_symmetric_case():
    out = shuffle_a(one_pair_diagram(5, 5, 3), 0, 5)
    p = out.pairs[0]
    assert (p.n1, p.n2, p.m) == (5, 5, Rational(3))


def test_shuffle_a_bridge_invariance():
    r = one_pair_diagram(3, 1, 2, lk=1)
    image = joint_pair_to_dehn(r)
    for k in range(-10, 11):
        assert joint_pair_to_dehn(shuffle_a(r, 0, k)) == image
    rng = random.Random(7)
    for _ in range(100):
        d = random_joint_diagram(rng)
        image = joint_pair_to_dehn(d)
        i = rng.randrange(len(d.pairs))
        assert joint_pair_to_dehn(shuffle_a(d, i, rng.randint(-50, 50))) == image


def test_shuffle_b_example():
    r = RoundDiagram(
        [joint(comp("a"), 3, comp("b"), 1, 2), joint(comp("c"), 5, comp("d"), 2, 1)]
    )
    out = shuffle_b(r, 0, 1, 0, 0)
    p0, p1 = out.pairs
    assert (p0.c1.id, p0.c2.id, p0.n1, p0.n2, p0.m) == ("a", "d", 3, 0, Rational(1))
    assert (p1.c1.id, p1.c2.id, p1.n1, p1.n2, p1.m) == ("c", "b", 2, 0, Rational(2))


def test_shuffle_b_identical_pairs():
    r = RoundDiagram(
        [joint(comp("a"), 4, comp("b"), 4, 2), joint(comp("c"), 4, comp("d"), 4, 2)]
    )
    out = shuffle_b(r, 0, 1, 4, 4)
    p0, p1 = out.pairs
    assert (p0.n1, p0.n2, p0.m) == (4, 4, Rational(2))
    assert (p1.n1, p1.n2, p1.m) == (4, 4, Rational(2))
    assert (p0.c2.id, p1.c2.id) == ("d", "b")  # the round 2-surgery knots swapped


def test_shuffle_b_framing_multiset_under_constraint():
    # every component keeps its Dehn framing, whatever k1 and k2
    rng = random.Random(55)
    for _ in range(80):
        r = random_joint_diagram(rng, max_pairs=3, min_pairs=2)
        i, j = rng.sample(range(len(r.pairs)), 2)
        out = shuffle_b(r, i, j, rng.randint(-9, 9), rng.randint(-9, 9))
        assert joint_pair_to_dehn(out) == joint_pair_to_dehn(r)


# a linked two-pair diagram with H1 = Z/28
_ROADMAP_SHUFFLE_B = RoundDiagram(
    [joint(comp("a"), 3, comp("b"), -2, -4), joint(comp("c"), -2, comp("d"), -3, 1)],
    (),
    LinkingMatrix([("a", "b", 2), ("b", "c", 2), ("b", "d", -2), ("c", "d", 1)]),
)


def test_shuffle_b_keeps_the_manifold_of_a_linked_diagram():
    # when the exchanged knots took their new pair's coefficient, this move
    # gave H1 = Z/27
    out = shuffle_b(_ROADMAP_SHUFFLE_B, 0, 1, 0, -5)
    assert joint_pair_to_dehn(out) == joint_pair_to_dehn(_ROADMAP_SHUFFLE_B)
    assert first_homology_round(out) == first_homology_round(_ROADMAP_SHUFFLE_B) == AbelianGroup(0, (28,))


def test_shuffle_b_rejects_same_pair():
    r = random_joint_diagram(random.Random(1), min_pairs=2, max_pairs=2)
    with pytest.raises(MoveError):
        shuffle_b(r, 1, 1, 0, 0)


# ---------------------------------------------------------------------------
# Equivalence move 3


def test_eq_move3_add_basic():
    r = eq_move3_add(RoundDiagram(), 0, 0, 1)
    (p,) = r.pairs
    assert (p.n1, p.n2, p.m) == (0, 0, Rational(1))
    assert joint_pair_to_dehn(r).framing == {p.c1.id: 1, p.c2.id: 1}


def test_eq_move3_add_with_offset():
    r = eq_move3_add(RoundDiagram(), 5, 2, -1)
    (p,) = r.pairs
    assert (p.n1, p.n2, p.m) == (7, 5, Rational(-1))
    framings = sorted(joint_pair_to_dehn(r).framing.values())
    assert framings == [-1, 1]


def test_eq_move3_add_preserves_homology():
    rng = random.Random(17)
    for _ in range(40):
        r = random_joint_diagram(rng, max_pairs=3)
        h = first_homology_round(r)
        k = rng.randint(-6, 6)
        delta, sign = rng.choice(((0, 1), (0, -1), (2, -1), (-2, 1)))
        assert first_homology_round(eq_move3_add(r, k, delta, sign)) == h


def test_eq_move3_add_rejects_combos_that_change_the_manifold():
    for delta, sign in ((2, 1), (-2, -1), (1, 1), (0, 2)):
        with pytest.raises(MoveError):
            eq_move3_add(RoundDiagram(), 0, delta, sign)


def test_eq_move3_del_inverts_add():
    base = one_pair_diagram(3, 1, 2, lk=1)
    for k in (-4, 0, 2):
        for delta, sign in ((0, 1), (0, -1), (2, -1), (-2, 1)):
            grown = eq_move3_add(base, k, delta, sign)
            assert eq_move3_del(grown, 1) == base


def test_eq_move3_del_pattern_rejections():
    bad_m = RoundDiagram([joint(comp("u1"), 0, comp("u2"), 0, 2)])
    with pytest.raises(MoveError, match="expected \\+-1"):
        eq_move3_del(bad_m, 0)
    bad_delta = RoundDiagram([joint(comp("u1"), 1, comp("u2"), 0, 1)])
    with pytest.raises(MoveError, match="has framing"):
        eq_move3_del(bad_delta, 0)
    linked = RoundDiagram(
        [joint(comp("u1"), 0, comp("u2"), 0, 1), joint(comp("a"), 0, comp("b"), 0, 1)],
        (),
        LinkingMatrix([("u1", "a", 1)]),
    )
    with pytest.raises(MoveError, match="links"):
        eq_move3_del(linked, 0)
    knotted = RoundDiagram([joint(comp("u1", "trefoil"), 0, comp("u2"), 0, 1)])
    with pytest.raises(MoveError, match="not an unknot"):
        eq_move3_del(knotted, 0)


# ---------------------------------------------------------------------------
# Equivalence move 4


def test_eq_move4_11over12_example():
    r = one_pair_diagram(3, 1, 2)
    out = eq_move4(r, "11over12", 0, None, 1)
    p = out.pairs[0]
    assert (p.n1, p.n2, p.m) == (5, 1, Rational(2))
    assert joint_pair_to_dehn(out) == kirby2_slide(joint_pair_to_dehn(r), "a", "b")
    assert joint_pair_to_dehn(out).framing == {"a": 6, "b": 2}


def test_eq_move4_12over22_example():
    r = RoundDiagram(
        [joint(comp("a"), 3, comp("b"), 1, 2), joint(comp("c"), 5, comp("d"), 2, 1)]
    )
    out = eq_move4(r, "12over22", 0, 1, 0)
    p = out.pairs[0]
    assert (p.n1, p.n2, p.m) == (1, 0, Rational(3))


def test_eq_move4_12over11_derived_case():
    n, m = 4, 3
    r = one_pair_diagram(n, n, m)
    out = eq_move4(r, "12over11", 0, None, n)
    p = out.pairs[0]
    assert p.m == Rational(2 * m)
    assert p.n1 == -m + n
    assert joint_pair_to_dehn(out) == kirby2_slide(joint_pair_to_dehn(r), "b", "a")


def test_eq_move4_band_sums_the_slid_component():
    r = one_pair_diagram(3, 1, 2, knot1="trefoil", knot2="fig8")
    out = eq_move4(r, "11over12", 0, None, 0)
    assert out.pairs[0].c1.knot == BandSum(Atom("trefoil"), Atom("fig8"), 2)
    assert out.pairs[0].c2.knot == Atom("fig8")


def test_eq_move4_commutes_with_kirby2_randomized():
    rng = random.Random(2024)
    for _ in range(200):
        r = random_joint_diagram(rng, max_pairs=3, min_pairs=2, span=5)
        variant = rng.choice(EQ_MOVE4_VARIANTS)
        i, j = rng.sample(range(len(r.pairs)), 2)
        if variant in ("11over12", "12over11"):
            j = None
        k = rng.randint(-5, 5)
        pi = r.pairs[i]
        pj = r.pairs[j] if j is not None else pi
        a, b = SLIDE_TARGETS[variant](pi, pj)
        lhs = joint_pair_to_dehn(eq_move4(r, variant, i, j, k))
        rhs = kirby2_slide(joint_pair_to_dehn(r), a, b)
        assert lhs == rhs, (variant, i, j, k)


def test_eq_move4_rejections():
    r = one_pair_diagram(0, 0, 1)
    with pytest.raises(MoveError, match="variant"):
        eq_move4(r, "over9000", 0, None, 0)
    with pytest.raises(MoveError, match="second pair"):
        eq_move4(r, "11over21", 0, None, 0)
    two = RoundDiagram(
        [joint(comp("a"), 0, comp("b"), 0, 1), joint(comp("c"), 0, comp("d"), 0, 1)]
    )
    with pytest.raises(MoveError, match="distinct"):
        eq_move4(two, "12over22", 1, 1, 0)


# ---------------------------------------------------------------------------
# Descriptors, replay, search


def test_apply_move_dispatch_and_type_checks():
    r = one_pair_diagram(3, 1, 2)
    move = MoveDescriptor(MoveKind.EQ_MOVE1, pair=0, k=0)
    assert apply_move(r, move) == eq_move1(r, 0, 0)
    with pytest.raises(MoveError, match="does not apply"):
        apply_move(DehnDiagram((), {}), move)
    with pytest.raises(MoveError, match="missing argument"):
        apply_move(r, MoveDescriptor(MoveKind.EQ_MOVE1, pair=0))


def test_apply_sequence_replays_in_order():
    r = one_pair_diagram(3, 1, 2)
    seq = (
        MoveDescriptor(MoveKind.EQ_MOVE1, pair=0, k=0),
        MoveDescriptor(MoveKind.SHUFFLE_A, pair=0, k=2),
    )
    assert apply_sequence(r, seq) == shuffle_a(eq_move1(r, 0, 0), 0, 2)


def test_move_descriptor_line_format():
    move = MoveDescriptor(MoveKind.EQ_MOVE4, pair=0, pair2=1, variant="12over22", k=-3)
    assert move.to_line() == "EqMove4 pair=0 pair2=1 variant=12over22 k=-3"


def test_search_trivial_and_one_move():
    r = one_pair_diagram(3, 1, 2)
    assert bounded_equivalence_search(r, r, 3, range(-2, 3)) == ()
    r2 = eq_move1(r, 0, 5)
    seq = bounded_equivalence_search(r, r2, 1, range(-5, 6))
    assert seq == (MoveDescriptor(MoveKind.EQ_MOVE1, pair=0, k=5),)
    r3 = shuffle_a(r, 0, 0)
    seq = bounded_equivalence_search(r, r3, 1, range(-1, 2))
    assert seq == (MoveDescriptor(MoveKind.SHUFFLE_A, pair=0, k=0),)


def test_search_two_moves_and_replay():
    r = random_joint_diagram(random.Random(8), min_pairs=2, max_pairs=2, span=3)
    target = eq_move4(shuffle_a(r, 0, 1), "12over22", 0, 1, -2)
    seq = bounded_equivalence_search(r, target, 2, range(-3, 4))
    assert seq is not None and len(seq) <= 2
    assert apply_sequence(r, seq) == target


def test_search_returns_none_when_out_of_reach():
    r = one_pair_diagram(3, 1, 2)
    r2 = eq_move1(r, 0, 40)  # k = 40 is outside the searched range
    assert bounded_equivalence_search(r, r2, 1, range(-5, 6)) is None
    assert bounded_equivalence_search(r, r2, 0, range(-50, 51)) is None
    # r2 is in r's gauge class, so only the exact search can rule it out
    assert bounded_equivalence_search(r, r2, 2, range(-5, 6)) is None


def test_search_is_deterministic():
    rng = random.Random(12)
    r = random_joint_diagram(rng, min_pairs=2, max_pairs=2, span=2)
    target = shuffle_b(r, 0, 1, 1, -1)
    first = bounded_equivalence_search(r, target, 2, range(-2, 3))
    second = bounded_equivalence_search(r, target, 2, range(-2, 3))
    assert first == second is not None
    assert apply_sequence(r, first) == target


def test_search_keeps_a_state_that_reorders_a_seen_one():
    # Deleting pair 0 and adding a pair with the same ids gives the start
    # with its pairs swapped; only from that state does EqMove4 on pairs
    # (0, 1) reach the goal.
    r1 = RoundDiagram(
        [joint(comp("u1"), 0, comp("u2"), 0, 1), joint(comp("a"), 2, comp("b"), 1, 3)],
        (),
        LinkingMatrix([("a", "b", 1)]),
    )
    path = (
        MoveDescriptor(MoveKind.EQ_MOVE3_DEL, pair=0),
        MoveDescriptor(MoveKind.EQ_MOVE3_ADD, k=0, delta=0, sign=1),
        MoveDescriptor(MoveKind.EQ_MOVE4, pair=0, pair2=1, variant="11over21", k=0),
    )
    goal = apply_sequence(r1, path)
    found = bounded_equivalence_search(r1, goal, 3, range(-1, 2))
    assert found == path


@pytest.mark.parametrize("k, k2", [(5, 3), (3, 3), (0, 5)])
def test_search_finds_shuffle_b_goals_with_any_k_values(k, k2):
    r = RoundDiagram(
        [joint(comp("a"), 3, comp("b"), 1, 2), joint(comp("c"), 5, comp("d"), 2, -1)],
        (),
        LinkingMatrix([("a", "c", 1)]),
    )
    ks = (0, 3, 5)
    goal = shuffle_b(r, 0, 1, k, k2)
    found = bounded_equivalence_search(r, goal, 2, ks)
    assert found == (MoveDescriptor(MoveKind.SHUFFLE_B, pair=0, pair2=1, k=k, k2=k2),)
    assert found == _reference_search(r, goal, 2, ks)


def test_search_with_an_empty_k_range_still_deletes_pairs():
    r = RoundDiagram(
        [
            joint(comp("u1"), 2, comp("u2"), 0, -1),
            joint(comp("a"), 3, comp("b"), 1, 2),
            joint(comp("u3"), 7, comp("u4"), 7, 1),
        ],
        (),
        LinkingMatrix([("a", "b", 1)]),
    )
    goal = eq_move3_del(eq_move3_del(r, 2), 0)
    found = bounded_equivalence_search(r, goal, 2, ())
    assert found == (
        MoveDescriptor(MoveKind.EQ_MOVE3_DEL, pair=0),
        MoveDescriptor(MoveKind.EQ_MOVE3_DEL, pair=1),
    )
    assert found == _reference_search(r, goal, 2, ())
    assert bounded_equivalence_search(r, eq_move1(r, 1, 0), 2, ()) is None


def _band(knot, over=UNKNOT, framing=1):
    return BandSum(knot, over, framing)


def test_band_sum_bound_counts_the_band_sums_on_the_goal_spines():
    trefoil = Atom("trefoil")
    start = RoundDiagram(
        [joint(comp("a", "trefoil"), 0, comp("b"), 0, 2), joint(comp("u1"), 0, comp("u2"), 0, 1)],
        [LooseKnot(comp("z", "fig8"), Rational(1))],
    )

    def goal(a_knot, extra=()):
        pairs = [JointPair(FramedComponent("a", a_knot), 0, comp("b"), 0, Rational(2)), *extra]
        return RoundDiagram(pairs, [LooseKnot(comp("z", "fig8"), Rational(1))])

    assert _band_sum_bound(_spines(goal(trefoil)), start) == 0  # u1 and u2 are unknots, so deletable
    assert _band_sum_bound(_spines(goal(_band(_band(trefoil), trefoil, 3))), start) == 2
    # a fresh id enters as an unknot and may then be slid
    u3 = FramedComponent("u3", _band(UNKNOT))
    assert _band_sum_bound(_spines(goal(trefoil, [JointPair(u3, 0, comp("u4"), 0, Rational(1))])), start) == 1
    # trefoil lies on the cable side of a's goal knot, not on its left spine
    assert _band_sum_bound(_spines(goal(_band(UNKNOT, trefoil))), start) is None
    # a band sum is never removed
    banded = eq_move4(start, "11over12", 0, None, 0)
    assert _band_sum_bound(_spines(goal(trefoil)), banded) is None
    # an id the goal lacks must be deleted, and only unknots are
    slid = eq_move4(start, "11over21", 1, 0, 0)
    assert _band_sum_bound(_spines(goal(trefoil)), slid) is None
    # an id the start lacks enters as an unknot only
    u3 = comp("u3", "trefoil")
    assert _band_sum_bound(_spines(goal(trefoil, [JointPair(u3, 0, comp("u4"), 0, Rational(1))])), start) is None


def test_search_stops_at_once_when_the_goal_is_out_of_reach():
    r = one_pair_diagram(3, 1, 2, knot1="trefoil")
    goal = one_pair_diagram(3, 1, 2, knot1="fig8")  # no slide turns a trefoil into a fig8
    began = time.perf_counter()
    assert bounded_equivalence_search(r, goal, 10**9, range(-1, 2)) is None
    # no k value: the only moves delete pairs, so the frontier empties
    assert bounded_equivalence_search(r, eq_move1(r, 0, 5), 10**7, ()) is None
    assert time.perf_counter() - began < 1.0


# starts for the comparisons with the reference search below
_TWO_PAIRS = RoundDiagram(
    [joint(comp("a", "trefoil"), 1, comp("b"), -1, 2), joint(comp("c"), 0, comp("d", "fig8"), 2, -2)],
    (),
    LinkingMatrix([("a", "c", 1), ("b", "d", -1)]),
)
_BANDED = eq_move4(_TWO_PAIRS, "12over21", 1, 0, 0)  # d is already a band sum
_ADD = MoveDescriptor(MoveKind.EQ_MOVE3_ADD, k=0, delta=0, sign=1)


def _slide(variant, i, j=None, k=0):
    return MoveDescriptor(MoveKind.EQ_MOVE4, pair=i, pair2=j, variant=variant, k=k)


@pytest.mark.parametrize(
    "start, planted, depth, ks",
    [
        (_BANDED, (_slide("11over12", 1), MoveDescriptor(MoveKind.EQ_MOVE1, pair=0, k=1)), 2, (0, 1)),
        (_BANDED, (_slide("12over22", 0, 1, 1),), 2, (0, 1)),
        (_TWO_PAIRS, (_slide("12over21", 0, 1, 1), _slide("11over22", 1, 0)), 2, (0, 1)),
        (_TWO_PAIRS, (_slide("11over21", 1, 0), _slide("11over21", 1, 0, 1)), 2, (0, 1)),
        (_TWO_PAIRS, (_ADD, _slide("11over21", 2, 0)), 2, (-1, 0, 1)),  # u1 slides over a
        (one_pair_diagram(2, 1, 3, lk=1), (_ADD, _slide("11over21", 0, 1)), 2, (-1, 0, 1)),  # a over u1
        (_ROADMAP_SHUFFLE_B, (MoveDescriptor(MoveKind.SHUFFLE_B, pair=0, pair2=1, k=0, k2=-5),), 2, range(-5, 1)),
    ],
    ids=["banded-start", "banded-start-slide", "eqmove4-twice", "eqmove4-same-pairs", "add-then-slide-u1",
         "add-then-slide-over-u1", "roadmap-shuffle-b"],
)
def test_search_with_band_sums_equals_the_reference(start, planted, depth, ks):
    ks = tuple(ks)
    goal = apply_sequence(start, planted)
    found = bounded_equivalence_search(start, goal, depth, ks)
    assert found is not None and len(found) <= len(planted)
    assert found == _reference_search(start, goal, depth, ks)
    # one slide further the goal has a band sum more; at the same depth the
    # search still agrees with the reference, which mostly finds nothing
    beyond = eq_move4(goal, "11over12", 0, None, ks[0])
    assert bounded_equivalence_search(start, beyond, len(found), ks) == _reference_search(
        start, beyond, len(found), ks
    )


def test_search_rejects_negative_depth():
    r = one_pair_diagram(0, 0, 1)
    with pytest.raises(MoveError):
        bounded_equivalence_search(r, r, -1, range(3))


# ---------------------------------------------------------------------------
# Homology invariance across the move set


def test_round_moves_preserve_homology_randomized():
    rng = random.Random(404)
    for _ in range(60):
        r = random_joint_diagram(rng, max_pairs=3, min_pairs=2, span=6)
        h = first_homology_round(r)
        i, j = rng.sample(range(len(r.pairs)), 2)
        k = rng.randint(-6, 6)
        assert first_homology_round(eq_move1(r, i, k)) == h
        assert first_homology_round(shuffle_a(r, i, k)) == h
        for variant in EQ_MOVE4_VARIANTS:
            jj = None if variant in ("11over12", "12over11") else j
            assert first_homology_round(eq_move4(r, variant, i, jj, k)) == h, variant
        grown = eq_move3_add(r, k, 0, -1)
        assert first_homology_round(grown) == h
        assert first_homology_round(eq_move3_del(grown, len(grown.pairs) - 1)) == h
        assert first_homology_round(shuffle_b(r, i, j, k, rng.randint(-6, 6))) == h


def test_shuffle_b_preserves_homology_on_fully_unlinked_pairs():
    rng = random.Random(606)
    for _ in range(60):
        r = random_joint_diagram(rng, max_pairs=4, min_pairs=2, unlinked_pairs=(0, 1))
        h = first_homology_round(r)
        mi, mj = r.pairs[0].m.p, r.pairs[1].m.p
        k1 = rng.randint(-6, 6)
        out = shuffle_b(r, 0, 1, k1, k1 + mi - mj)
        assert first_homology_round(out) == h


def test_eq_move4_single_pair_commutation_exhaustive_small():
    import itertools

    for n1, n2, m, lk, k in itertools.product(range(-2, 3), repeat=5):
        r = one_pair_diagram(n1, n2, m, lk=lk)
        image = joint_pair_to_dehn(r)
        for variant, (a, b) in (("11over12", ("a", "b")), ("12over11", ("b", "a"))):
            lhs = joint_pair_to_dehn(eq_move4(r, variant, 0, None, k))
            assert lhs == kirby2_slide(image, a, b), (variant, n1, n2, m, lk, k)


# ---------------------------------------------------------------------------
# The search against a brute-force reference

def _reference_search(r1, r2, depth, ks):
    """Plain breadth-first search: no enumerator, no last-level pruning."""
    if r1 == r2:
        return ()
    frontier, seen = [(r1, ())], {r1.key()}
    for _ in range(depth):
        next_frontier = []
        for state, path in frontier:
            for move in reference_box(len(state.pairs), ks):
                try:
                    new = apply_move(state, move)
                except MoveError:
                    continue
                if new == r2:
                    return path + (move,)
                if new.key() not in seen:
                    seen.add(new.key())
                    next_frontier.append((new, path + (move,)))
        frontier = next_frontier
    return None


def test_search_matches_brute_force_reference():
    rng = random.Random(2024)
    outcomes = set()
    for case in range(23):
        # depth 3 on one pair and two k values only, to keep the reference fast
        deep = case >= 20
        ks = (0, 1) if deep else tuple(range(-1, 2))
        r = random_joint_diagram(rng, max_pairs=1 if deep else 2, span=2, lk_probability=0.3)
        depth = 3 if deep else rng.randint(1, 2)
        if case % 5 == 4:
            goal = eq_move1(r, 0, 5)  # k = 5 lies outside ks
        else:
            goal = r
            for _ in range(depth):
                for move in rng.sample(reference_box(len(goal.pairs), ks), 40):
                    try:
                        goal = apply_move(goal, move)
                        break
                    except MoveError:
                        pass
        found = bounded_equivalence_search(r, goal, depth, ks)
        assert found == _reference_search(r, goal, depth, ks), case
        outcomes.add(None if found is None else len(found))
    assert {None, 1, 2, 3} <= outcomes


@pytest.mark.parametrize(
    "pairs, lk, at",
    [
        # deleting pair 0 shifts the two pairs after it
        ([joint(comp("a"), 3, comp("b"), 1, 2), joint(comp("c", "trefoil"), 0, comp("d"), -1, 3)], [("a", "c", 1)], 0),
    ],
    ids=["deletion-shifts-pairs"],
)
def test_search_finds_a_deletion_like_the_reference(pairs, lk, at):
    r = RoundDiagram([*pairs[:at], joint(comp("u1"), 0, comp("u2"), 0, 1), *pairs[at:]], (), LinkingMatrix(lk))
    goal = eq_move3_del(r, at)
    found = bounded_equivalence_search(r, goal, 1, range(-1, 2))
    assert found == _reference_search(r, goal, 1, (-1, 0, 1)) == (MoveDescriptor(MoveKind.EQ_MOVE3_DEL, pair=at),)


@st.composite
def _search_queries(draw):
    """(r1, r2, depth, ks) on one or two joint pairs, depth 3 on one pair
    only.  Below depth 3 a pair the moves reject (m = None or 1/2) is
    sometimes inserted among them, and r1 sometimes has a loose knot.  ks
    is contiguous, has gaps, or is empty.  The goal is planted (depth
    random legal moves), in r1's gauge class but with k = 9 outside every
    ks, r1 with one pair's coefficient m changed, or r1 with its loose
    knot's m changed; the last two are out of reach."""
    npairs = draw(st.integers(1, 2))
    depth = draw(st.integers(1, 3 if npairs == 1 else 2))
    most = 2 if depth == 3 else 3
    ks = draw(
        st.one_of(
            st.builds(lambda lo, size: tuple(range(lo, lo + size)), st.integers(-2, 1), st.integers(1, most)),
            st.lists(st.integers(-4, 4), min_size=2, max_size=most, unique=True)
            .map(lambda v: tuple(sorted(v)))
            .filter(lambda v: v[-1] - v[0] >= len(v)),
            st.just(()),
        )
    )
    small = st.integers(-2, 2)
    knot = st.sampled_from(("unknot", "trefoil"))
    pairs = [
        joint(comp(f"a{2 * i}", draw(knot)), draw(small), comp(f"a{2 * i + 1}"), draw(small), draw(small))
        for i in range(npairs)
    ]
    first = 0
    if depth < 3 and draw(st.booleans()):
        m = draw(st.sampled_from((None, Rational(1, 2))))
        at = draw(st.integers(0, npairs))
        pairs.insert(at, JointPair(comp("b0"), draw(small), comp("b1"), draw(small), m))
        first = 1 if at == 0 else 0
    goal = draw(st.sampled_from(("planted", "regauged", "other class", "other loose m")))
    loose = []
    if goal == "other loose m" or draw(st.booleans()):
        loose = [LooseKnot(comp("z", draw(knot)), Rational(draw(small)))]
    ids = [c.id for p in pairs for c in (p.c1, p.c2)] + [l.component.id for l in loose]
    lk = LinkingMatrix((x, y, draw(st.integers(-1, 1))) for x, y in itertools.combinations(ids, 2))
    r1 = RoundDiagram(pairs, loose, lk)
    if goal == "regauged":
        return r1, eq_move1(r1, first, 9), depth, ks
    if goal == "other class":
        p = r1.pairs[first]
        changed = JointPair(p.c1, p.n1, p.c2, p.n2, Rational(p.m.p + 1))
        return r1, RoundDiagram((*r1.pairs[:first], changed, *r1.pairs[first + 1 :]), loose, lk), depth, ks
    if goal == "other loose m":
        (l,) = loose
        return r1, RoundDiagram(r1.pairs, [LooseKnot(l.component, Rational(l.m.p + 1))], lk), depth, ks
    r2 = r1
    for _ in range(depth):
        legal = []
        for move in reference_box(len(r2.pairs), ks or (0,)):
            try:
                legal.append(apply_move(r2, move))
            except MoveError:
                pass
        r2 = draw(st.sampled_from(legal))
    return r1, r2, depth, ks


@settings(max_examples=25, deadline=None)
@given(_search_queries())
def test_search_equals_the_reference_on_random_queries(query):
    r1, r2, depth, ks = query
    assert bounded_equivalence_search(r1, r2, depth, ks) == _reference_search(r1, r2, depth, ks)


_SLID_KNOTS = (UNKNOT, Atom("trefoil"), _band(Atom("trefoil")), _band(UNKNOT, Atom("fig8"), -1))


@st.composite
def _slide_queries(draw):
    """(r1, r2, depth, ks) on one to three joint pairs of unknots, trefoils
    and band sums, with the goal planted mostly by slides: every planted
    move is an EqMove4, except that in a plant of three moves one of them
    may be any move.  Depth 3 on one pair only, depth 2 on at most two,
    and few k values, to keep the reference fast.  Some goals are then
    regauged to k = 9, outside ks, which no sequence reaches."""
    npairs = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 4 - npairs))
    lo = draw(st.integers(-2, 1))
    ks = tuple(range(lo, lo + draw(st.integers(1, 2 if depth * npairs >= 3 else 3))))
    small = st.integers(-2, 2)
    knot = st.sampled_from(_SLID_KNOTS)
    pairs = [
        JointPair(FramedComponent(f"a{2 * i}", draw(knot)), draw(small), FramedComponent(f"a{2 * i + 1}", draw(knot)),
                  draw(small), Rational(draw(small)))
        for i in range(npairs)
    ]
    ids = [c.id for p in pairs for c in (p.c1, p.c2)]
    lk = LinkingMatrix((x, y, draw(st.integers(-1, 1))) for x, y in itertools.combinations(ids, 2))
    r1 = r2 = RoundDiagram(pairs, (), lk)
    planted = draw(st.integers(1, depth))
    other = draw(st.integers(0, 2)) if planted == 3 else None
    for t in range(planted):
        legal = []
        for move in reference_box(len(r2.pairs), ks):
            if t == other or move.kind is MoveKind.EQ_MOVE4:
                try:
                    legal.append(apply_move(r2, move))
                except MoveError:
                    pass
        if not legal:
            break
        r2 = draw(st.sampled_from(legal))
    if r2.pairs and draw(st.booleans()):
        r2 = eq_move1(r2, draw(st.integers(0, len(r2.pairs) - 1)), 9)
    return r1, r2, depth, ks


@settings(max_examples=40, deadline=None)
@given(_slide_queries())
def test_search_equals_the_reference_on_slide_planted_goals(query):
    """The search builds no state for a slide off the goal's spine, an
    identity regauge or a last-level deletion that leaves other pairs than
    the goal's; on goals planted mostly by slides its result is still the
    reference's."""
    r1, r2, depth, ks = query
    assert bounded_equivalence_search(r1, r2, depth, ks) == _reference_search(r1, r2, depth, ks)


@st.composite
def _add_queries(draw):
    """(r1, r2, depth, ks) on one to three joint pairs whose goal is planted
    with an EqMove3Add as its last or second-to-last move, the others any
    legal moves.  r1 sometimes holds u1, so the ids EqMove3Add appends
    shift to u2 and u3.  Some goals are then regauged to k = 9, outside
    ks, or have one pair's coefficient m changed.  Depth 3 on one pair
    only, and few k values, to keep the reference fast."""
    npairs = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 3 if npairs == 1 else 2))
    lo = draw(st.integers(-2, 1))
    ks = tuple(range(lo, lo + draw(st.integers(1, 2 if depth * npairs >= 3 else 3))))
    small = st.integers(-2, 2)
    ids = [f"a{i}" for i in range(2 * npairs)]
    if draw(st.booleans()):
        ids[draw(st.integers(0, len(ids) - 1))] = "u1"
    knot = st.sampled_from(("unknot", "trefoil"))
    pairs = [
        joint(comp(ids[2 * i], draw(knot)), draw(small), comp(ids[2 * i + 1]), draw(small), draw(small))
        for i in range(npairs)
    ]
    lk = LinkingMatrix((x, y, draw(st.integers(-1, 1))) for x, y in itertools.combinations(ids, 2))
    r1 = r2 = RoundDiagram(pairs, (), lk)
    planted = draw(st.integers(1, depth))
    add_at = planted - draw(st.integers(1, min(planted, 2)))
    for t in range(planted):
        legal = []
        for move in reference_box(len(r2.pairs), ks):
            if (move.kind is MoveKind.EQ_MOVE3_ADD) == (t == add_at):
                try:
                    legal.append(apply_move(r2, move))
                except MoveError:
                    pass
        if legal:
            r2 = draw(st.sampled_from(legal))
    change = draw(st.sampled_from(("none", "none", "regauged", "other m")))
    if change == "none" or not r2.pairs:  # a plant of three moves may delete every pair
        return r1, r2, depth, ks
    i = draw(st.integers(0, len(r2.pairs) - 1))
    if change == "regauged":
        return r1, eq_move1(r2, i, 9), depth, ks
    p = r2.pairs[i]
    changed = JointPair(p.c1, p.n1, p.c2, p.n2, Rational(p.m.p + 1))
    return r1, RoundDiagram((*r2.pairs[:i], changed, *r2.pairs[i + 1 :]), (), r2.lk), depth, ks


@settings(max_examples=60, deadline=None)
@given(_add_queries())
def test_search_equals_the_reference_on_add_planted_goals(query):
    """With one move left the search applies no EqMove3Add whose fresh ids
    the goal lacks, and it drops moves after which the pair count is
    further from the goal's than the moves left; on goals planted with an
    EqMove3Add late, its result is still the reference's."""
    r1, r2, depth, ks = query
    assert bounded_equivalence_search(r1, r2, depth, ks) == _reference_search(r1, r2, depth, ks)


def _with_pair(r, i, n1_step=0, m_step=0):
    """r with pair i's n1 and m moved by the given steps."""
    p = r.pairs[i]
    changed = JointPair(p.c1, p.n1 + n1_step, p.c2, p.n2, None if p.m is None else Rational(p.m.p + m_step, p.m.q))
    return RoundDiagram((*r.pairs[:i], changed, *r.pairs[i + 1 :]), r.loose, r.lk)


def _relinked(r, x, y, step):
    """r with lk(x, y) moved by step."""
    kept = [(a, b, v) for (a, b), v in r.lk.items() if {a, b} != {x, y}]
    return RoundDiagram(r.pairs, r.loose, LinkingMatrix([*kept, (x, y, r.lk.get(x, y) + step)]))


@st.composite
def _frozen_queries(draw):
    """(r1, r2, depth, ks) for drop 12: one or two joint pairs of unknots,
    trefoils and band sums (one for the flipped blow-ups), sometimes an
    unlinked pair of unknots u1, u2 whose Dehn framings are two blow-ups,
    and sometimes a pair that is not joint (m None or 1/2), each at any
    index.  The goal is r1 after one
    slide, sometimes with the link between the slid component and the
    component it slides over, or the slid component's n1, moved by one;
    or r1 with its u1, u2 pair deleted and added again with other blow-up
    signs, which two moves reach though u1 keeps its knot and changes its
    Dehn framing; or r1 with one pair's n1 or m moved by one.  At most
    three pairs, depth 3 on one pair only, and few k values, to keep the
    reference fast."""
    goal = draw(st.sampled_from(("slide", "flipped blow-ups", "reframed", "other m")))
    small = st.integers(-2, 2)
    knot = st.sampled_from(_SLID_KNOTS)
    pairs = [
        JointPair(FramedComponent(f"a{2 * i}", draw(knot)), draw(small), FramedComponent(f"a{2 * i + 1}", draw(knot)),
                  draw(small), Rational(draw(small)))
        for i in range(1 if goal == "flipped blow-ups" else draw(st.integers(1, 2)))
    ]
    ids = [c.id for p in pairs for c in (p.c1, p.c2)]
    if goal == "flipped blow-ups" or draw(st.booleans()):
        (delta, sign), k = draw(st.sampled_from(moves._MOVE3_ADD_ARGS)), draw(small)
        pairs.insert(draw(st.integers(0, len(pairs))), JointPair(comp("u1"), delta + k, comp("u2"), k, Rational(sign)))
    if goal != "flipped blow-ups" and len(pairs) < 3 and draw(st.booleans()):
        m = draw(st.sampled_from((None, Rational(1, 2))))
        pairs.insert(draw(st.integers(0, len(pairs))), JointPair(comp("b0"), draw(small), comp("b1", "trefoil"), 0, m))
        ids += ["b0", "b1"]
    depth = draw(st.integers(2 if goal == "flipped blow-ups" else 1, 4 - len(pairs)))
    lo = draw(st.integers(-2, 1))
    ks = tuple(range(lo, lo + draw(st.integers(1, 2 if depth * len(pairs) >= 3 else 3))))
    lk = LinkingMatrix((x, y, draw(st.integers(-1, 1))) for x, y in itertools.combinations(ids, 2))
    r1 = RoundDiagram(pairs, (), lk)
    if goal == "slide":
        legal = []
        for move in reference_box(len(pairs), ks):
            if move.kind is MoveKind.EQ_MOVE4:
                try:
                    legal.append((move, apply_move(r1, move)))
                except MoveError:
                    pass
        move, r2 = draw(st.sampled_from(legal))
        slot, partner, over_slot = moves._EQ_MOVE4_SLIDES[move.variant]
        slid = (pairs[move.pair].c1, pairs[move.pair].c2)[slot].id
        over_pair = pairs[move.pair if partner == "i" else move.pair2]
        over = (over_pair.c1, over_pair.c2)[over_slot].id
        change = draw(st.sampled_from(("none", "link with over", "n1")))
        if change == "link with over":
            return r1, _relinked(r2, slid, over, draw(st.sampled_from((-1, 1)))), depth, ks
        if change == "n1":
            return r1, _with_pair(r2, move.pair, n1_step=1), depth, ks
        return r1, r2, depth, ks
    if goal == "flipped blow-ups":
        i = next(i for i, p in enumerate(pairs) if p.c1.id == "u1")
        image = (pairs[i].n1 - pairs[i].n2, pairs[i].m.p)
        delta, sign = draw(st.sampled_from([args for args in moves._MOVE3_ADD_ARGS if args != image]))
        return r1, eq_move3_add(eq_move3_del(r1, i), draw(st.sampled_from(ks)), delta, sign), depth, ks
    if goal == "reframed":
        return r1, _with_pair(r1, draw(st.integers(0, len(pairs) - 1)), n1_step=1), depth, ks
    joint_pairs = [i for i, p in enumerate(pairs) if p.m is not None and p.m.is_integer]
    return r1, _with_pair(r1, draw(st.sampled_from(joint_pairs)), m_step=1), depth, ks


@settings(max_examples=60, deadline=None)
@given(_frozen_queries())
def test_drop_12_fires_only_where_the_reference_finds_nothing(query):
    """Whenever drop 12 ends the search at its start, the reference search
    finds no sequence; the search's result is the reference's."""
    r1, r2, depth, ks = query
    found = _reference_search(r1, r2, depth, ks)
    if moves._frozen_apart(r1, r2):
        assert found is None
    assert bounded_equivalence_search(r1, r2, depth, ks) == found


_FINISHED = RoundDiagram(
    [joint(comp("a", "trefoil"), 2, comp("b"), 1, 3), joint(comp("c"), 0, comp("d", "fig8"), 1, -2),
     joint(comp("u1"), 0, comp("u2"), 0, 1)],
    (),
    LinkingMatrix([("a", "b", 1), ("a", "c", -1), ("b", "d", 2)]),
)


@pytest.mark.parametrize(
    "goal, fires, reachable",
    [
        (_with_pair(_FINISHED, 1, n1_step=1), True, False),  # c's Dehn framing
        # a link between two finished components: the start lacks no band
        # sum, so drop 5 stops it on the first level instead
        (_relinked(_FINISHED, "a", "d", 1), False, False),
        (_with_pair(_FINISHED, 0, m_step=-1), True, False),  # b's Dehn framing, and a's
        # a slides over c, and its new link with c, lk(a, c) + f_c, is moved
        (_relinked(eq_move4(_FINISHED, "11over21", 0, 1, 0), "a", "c", 1), False, False),
        # a slides over c, and its new framing, f_a + f_c + 2 lk(a, c), is moved
        (_with_pair(eq_move4(_FINISHED, "11over21", 0, 1, 0), 0, n1_step=1), False, False),
        (eq_move3_add(eq_move3_del(_FINISHED, 2), 0, -2, 1), False, True),  # u1 and u2 are of the fresh form
    ],
    ids=["framing", "link", "m", "slide-link-with-over", "slide-framing", "flipped-blow-ups"],
)
def test_drop_12_fires_on_the_start_or_a_finishing_slide(goal, fires, reachable):
    """Drop 12 reads the start only: it fires where a finished component's
    Dehn framing differs from the goal's, and on no slide."""
    assert moves._frozen_apart(_FINISHED, goal) == fires
    found = bounded_equivalence_search(_FINISHED, goal, 2, (0,))
    assert (found is not None) == reachable


def _traced_passes(monkeypatch):
    """A list that each _breadth_first pass appends (start, goal, depth,
    [(state, move, result) for each apply_move call]) to."""
    passes = []
    breadth_first, apply = moves._breadth_first, moves.apply_move

    def traced_breadth_first(s, g, depth, ks):
        passes.append((s, g, depth, []))
        return breadth_first(s, g, depth, ks)

    def traced_apply(d, move):
        new = apply(d, move)
        passes[-1][3].append((d, move, new))
        return new

    monkeypatch.setattr(moves, "_breadth_first", traced_breadth_first)
    monkeypatch.setattr(moves, "apply_move", traced_apply)
    return passes


def test_search_builds_no_state_it_would_drop(monkeypatch):
    """Every move that reaches apply_move could lead to the goal within the
    moves left after it: no slide leaves a knot off the goal's spine, no
    EqMove1 writes the n2 its pair already has, no state's pair count is
    further from the goal's than the moves left, no state lacks more band
    sums than they can add, and each lacks its parent's less its move's;
    with at most one move left, no EqMove3Add appends an id the goal lacks
    (drop 7: the ids the state already holds may be deleted later);
    on a pass's last level no EqMove3Del leaves other pairs than the
    goal's, and every other move rewrites exactly the pairs in which its
    state differs from the goal; and no ShuffleB is written with pair >
    pair2.  Two goals are the start after one or two slides, regauged to
    k = 9 outside the k range: the class pass finds their class, and the
    exact search exhausts depth 3, adding and deleting the unknot pair on
    the way.  Two keep every knot but differ from the start in u1's Dehn
    framing, which no move but a slide or a deletion and addition of its
    pair changes (u1 is of the fresh form, so drop 12 does not end the
    search at its start), and the class pass exhausts depth 3: the start
    after a ShuffleB with u1 reframed, whose last level tries shuffles, and
    from a start with a second unknot pair and u1 reframed, the start
    without either.  The last goal is the start with u1 reframed, from the
    start with a second unknot pair: the class pass deletes u1, u2, and
    appends them again with one move left while u3 and u4, which the goal
    lacks, are still there."""
    start = RoundDiagram(
        [joint(comp("a", "trefoil"), 2, comp("b"), 1, 3), joint(comp("u1"), 0, comp("u2"), 0, 1)],
        (),
        LinkingMatrix([("a", "b", 1)]),
    )
    three = RoundDiagram([*start.pairs, joint(comp("u3"), 0, comp("u4"), 0, -1)], (), start.lk)
    slid = eq_move4(start, "11over12", 0, None, 0)
    shuffled = shuffle_b(start, 0, 1, 0, 0)

    def reframed_u1(r):  # r with u1's Dehn framing one larger
        return _with_pair(r, next(i for i, p in enumerate(r.pairs) if p.c1.id == "u1"), n1_step=1)

    queries = [
        (start, eq_move1(slid, 0, 9)),
        (start, eq_move1(eq_move4(slid, "11over12", 0, None, 0), 0, 9)),
        (start, reframed_u1(shuffled)),
        (reframed_u1(three), start),
        (three, reframed_u1(start)),
    ]
    passes = _traced_passes(monkeypatch)
    for s, goal in queries:
        assert bounded_equivalence_search(s, goal, 3, range(-1, 2)) is None
    assert len(passes) == 7  # the class pass of each, and the exact search of the first two
    kinds, last_shuffles = set(), 0
    for s, g, depth, calls in passes:
        spines, level = _spines(g), {s: 0}
        for d, move, new in calls:
            kinds.add(move.kind)
            level.setdefault(new, level[d] + 1)  # breadth first: the first level a state is reached on
            left = depth - 1 - level[d]  # moves after this one
            assert abs(len(new.pairs) - len(g.pairs)) <= left, move
            lacks = _band_sum_bound(spines, new)
            assert lacks == _band_sum_bound(spines, d) - moves.MOVES[move.kind].band_sums <= left, move
            if move.kind is MoveKind.EQ_MOVE1:
                assert move.k != d.pairs[move.pair].n2, move
            if move.kind is MoveKind.EQ_MOVE3_ADD and left <= 1:
                assert set(moves._fresh_pair_ids(d)) <= g.ids, move
            if move.kind is MoveKind.SHUFFLE_B:
                assert move.pair < move.pair2, move
            if move.kind is MoveKind.EQ_MOVE3_DEL and left == 0:
                assert new.pairs == g.pairs, move
            elif left == 0:
                last_shuffles += move.kind in (MoveKind.SHUFFLE_A, MoveKind.SHUFFLE_B)
                rewritten = {getattr(move, name) for name in moves.MOVES[move.kind].rewrites}
                assert rewritten == {i for i, (p, q) in enumerate(zip(d.pairs, g.pairs)) if p != q}, move
    assert {MoveKind.EQ_MOVE1, MoveKind.EQ_MOVE3_ADD, MoveKind.EQ_MOVE3_DEL, MoveKind.EQ_MOVE4} <= kinds
    assert last_shuffles > 0


@pytest.mark.parametrize("goal", ["other m", "regauged"])
def test_search_adds_no_pair_where_no_move_is_left_to_delete_it(monkeypatch, goal):
    """The query class that sets the search workload's median: one pair,
    depth 2, a goal out of reach.  A goal with m changed changes the Dehn
    framing of a finished component, so the search ends at its start
    (drop 12): no pass runs and no move is applied.  A goal regauged to
    k = 9, outside the range, is in the start's class, so only the exact
    search runs, and rules it out; it applies no EqMove3Add, since after
    it one move is left, and the goal lacks the ids it appends."""
    r = one_pair_diagram(3, 1, 2, lk=1)
    r2 = one_pair_diagram(3, 1, 3, lk=1) if goal == "other m" else eq_move1(r, 0, 9)
    passes = _traced_passes(monkeypatch)
    assert bounded_equivalence_search(r, r2, 2, range(-2, 3)) is None
    applied = [move.kind for _, _, _, calls in passes for _, move, _ in calls]
    if goal == "other m":
        assert passes == [] and applied == []
    else:
        assert len(passes) == 1
        assert applied and MoveKind.EQ_MOVE3_ADD not in applied


def test_search_ends_at_the_start_when_the_goal_has_an_id_no_move_adds(monkeypatch):
    """Only EqMove3Add adds ids, and only of the u<n> form, so a goal that
    holds an id of another form that the start lacks is out of reach, and
    the search ends at its start (drop 12), though the goal's new pair is
    two unknots whose Dehn framings are two blow-ups.  With u<n> ids the
    same pair is one EqMove3Add away."""
    r = one_pair_diagram(3, 1, 2, lk=1)
    calls = []
    apply = moves.apply_move
    monkeypatch.setattr(moves, "apply_move", lambda d, move: calls.append(move) or apply(d, move))
    goal = RoundDiagram([*r.pairs, joint(comp("c"), 0, comp("d"), 0, 1)], (), r.lk)
    assert bounded_equivalence_search(r, goal, 3, range(-2, 3)) is None
    assert calls == []
    fresh = RoundDiagram([*r.pairs, joint(comp("u1"), 0, comp("u2"), 0, 1)], (), r.lk)
    assert bounded_equivalence_search(r, fresh, 3, range(-2, 3)) == (
        MoveDescriptor(MoveKind.EQ_MOVE3_ADD, k=0, delta=0, sign=1),
    )


def test_search_equals_the_reference_on_wide_k_ranges():
    """Inner levels try only the least k and the goal's n2 values.  On k
    ranges of 5-7 values, contiguous or gapped, with goals planted by moves
    whose k is neither the least nor next to it, the search agrees with the
    reference, which tries every k in every slot."""
    rng = random.Random(13)
    least_used = False
    for case in range(12):
        npairs = 1 + case % 2
        depth = 2 if npairs == 1 or case % 4 == 1 else 1
        lo, size = rng.randint(-8, -6), rng.randint(5, 7)
        if case % 4 < 2:
            ks = tuple(range(lo, lo + size))
        else:
            ks = (lo, *sorted(rng.sample(range(lo + 1, lo + 14), size - 1)))
        r = random_joint_diagram(rng, min_pairs=npairs, max_pairs=npairs, span=2, lk_probability=0.3)
        goal = r
        for _ in range(depth):
            box = list(reference_box(len(goal.pairs), tuple(k for k in ks if k > lo + 1)))
            rng.shuffle(box)
            for move in box:
                try:
                    goal = apply_move(goal, move)
                    break
                except MoveError:
                    pass
        assert not {p.n2 for p in goal.pairs} & {lo, lo + 1}, case
        found = bounded_equivalence_search(r, goal, depth, ks)
        assert found is not None and found == _reference_search(r, goal, depth, ks), case
        least_used |= any(lo in (move.k, move.k2) for move in found[:-1])
    assert least_used  # some found sequence writes the least k on an inner level


def test_search_cost_does_not_grow_with_the_k_range(monkeypatch):
    # the goal is in the start's gauge class, with k = 9 outside both k
    # ranges: the class pass admits it, the exact search exhausts depth 3
    r = random_joint_diagram(random.Random(3), min_pairs=2, max_pairs=2, span=3)
    goal = eq_move1(r, 0, 9)
    calls = []
    apply = moves.apply_move
    monkeypatch.setattr(moves, "apply_move", lambda d, move: calls.append(move) or apply(d, move))
    counts = []
    for ks in (range(-5, 6), range(-500, 6)):
        calls.clear()
        assert bounded_equivalence_search(r, goal, 3, ks) is None
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_the_gauge_class_pass_ends_a_reframed_slide_goal_early(monkeypatch):
    # the goal is one slide away, with the slid component's n1 raised by 1:
    # no move sequence of depth 4 reaches it, and the class pass says so
    # after 365 calls; the exact search alone makes 19,491 (drop 11;
    # tests/reference_counts.py prints both)
    start = random_joint_diagram(random.Random(1), min_pairs=2, max_pairs=2, span=2, lk_probability=0.6)
    slid = eq_move4(start, "11over21", 0, 1, 0)
    p = slid.pairs[0]
    goal = RoundDiagram((JointPair(p.c1, p.n1 + 1, p.c2, p.n2, p.m),) + slid.pairs[1:], slid.loose, slid.lk)
    calls = []
    apply = moves.apply_move
    monkeypatch.setattr(moves, "apply_move", lambda d, move: calls.append(move) or apply(d, move))
    assert bounded_equivalence_search(start, goal, 4, range(-2, 3)) is None
    assert 0 < len(calls) <= 1_000


def test_the_random_reference_queries_keep_their_listing_digest():
    # the 300 seeded queries of tests/reference_counts.py, which prints this
    # digest of their listings: a search change that changes a result fails
    found = [bounded_equivalence_search(s, g, depth, K_RANGE) for s, g, depth in _random_queries()]
    listing = "".join(_result(f) + "\n" for f in found)
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "c4648b2a57f49b81a59cdd87172e5e819c42fa105188101a84dfff1d8d55c578"
    )


def test_search_reads_a_wide_k_range_in_constant_memory():
    r = parse((Path(__file__).parent / "corpus" / "07_round_two_pairs_linked.rsd").read_text()).diagram
    goal = eq_move1(r, 0, 7)
    tracemalloc.start()
    try:
        found = bounded_equivalence_search(r, goal, 2, range(-10**6, 10**6 + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == (MoveDescriptor(MoveKind.EQ_MOVE1, pair=0, k=7),)
    assert peak < 5 * 2**20


def test_search_reads_a_range_in_constant_time():
    """A range's least value and membership are read without walking it, so
    a search over two trillion k values returns at once; it runs in a
    daemon thread so that a slow read fails the test instead of holding it."""
    r = parse((Path(__file__).parent / "corpus" / "07_round_two_pairs_linked.rsd").read_text()).diagram
    goal = eq_move1(r, 0, 7)
    found = []
    worker = threading.Thread(
        target=lambda: found.append(bounded_equivalence_search(r, goal, 2, range(-10**12, 10**12 + 1))), daemon=True
    )
    worker.start()
    worker.join(timeout=1.0)
    assert found == [(MoveDescriptor(MoveKind.EQ_MOVE1, pair=0, k=7),)]
