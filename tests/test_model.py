import random

import pytest

from helpers import comp, joint, random_joint_diagram
from roundsurgery import (
    Atom,
    BandSum,
    DehnDiagram,
    FramedComponent,
    JointPair,
    KirbyDiagram,
    LinkingMatrix,
    LooseKnot,
    Rational,
    RoundDiagram,
    SurgeryError,
    TwoHandle,
    validate_diagram,
    validate_kirby,
)


def test_validate_well_formed_two_pair_diagram():
    r = RoundDiagram(
        [
            joint(comp("a"), 3, comp("b"), 1, 2),
            joint(comp("c", "trefoil"), 0, comp("d"), 0, -1),
        ],
        (),
        LinkingMatrix([("a", "b", 1), ("b", "c", -2)]),
    )
    assert validate_diagram(r) == []


def test_validate_reports_asymmetric_lk_entry():
    with pytest.raises(SurgeryError) as exc:
        LinkingMatrix([("a", "b", 1), ("b", "a", 2)])
    assert str(exc.value) == "lk(a, b): conflicting asymmetric entries"


def test_validate_reports_unreduced_coefficient():
    with pytest.raises(SurgeryError) as exc:
        Rational(2, 4)
    assert str(exc.value) == "coefficient 2/4 is not reduced"


def test_validate_infinity_slope_must_be_one_over_zero():
    with pytest.raises(SurgeryError) as exc:
        Rational(3, 0)
    assert str(exc.value) == "infinity slope must be written 1/0, got 3/0"
    ok = RoundDiagram([JointPair(comp("a"), 0, comp("b"), 0, Rational(1, 0))])
    assert validate_diagram(ok) == []


def test_validate_duplicate_ids_and_unknown_lk_ids():
    r = RoundDiagram(
        [joint(comp("a"), 0, comp("a"), 0, 1)],
        (),
        LinkingMatrix([("a", "zz", 4)]),
    )
    messages = "\n".join(validate_diagram(r))
    assert "duplicate id" in messages
    assert "unknown component" in messages
    with pytest.raises(SurgeryError, match=r"lk\(q, q\): diagonal entries are not allowed"):
        LinkingMatrix([("q", "q", 1)])


def test_validate_dehn_framing_domain():
    d = DehnDiagram([comp("a"), comp("b")], {"a": 1, "x": 2})
    messages = "\n".join(validate_diagram(d))
    assert "missing framing" in messages and "unknown component" in messages


def test_rational_properties():
    assert Rational(4).is_integer
    assert Rational(1, 0).is_infinite
    assert str(Rational(1, 0)) == "1/0"
    assert str(Rational(-3, 2)) == "-3/2"
    with pytest.raises(SurgeryError, match=r"^denominator of 2/-3 is negative$"):
        Rational(2, -3)


def test_linking_matrix_symmetry_and_equality():
    m1 = LinkingMatrix([("a", "b", 3), ("c", "b", 0)])
    m2 = LinkingMatrix([("b", "a", 3)])
    assert m1 == m2 and hash(m1) == hash(m2)
    assert m1.get("b", "a") == 3
    assert LinkingMatrix([("a", "b", 3), ("b", "a", 3)]) == m1
    with pytest.raises(SurgeryError, match="asymmetric"):
        LinkingMatrix([("a", "b", 1), ("b", "a", 2)])


def test_knot_expressions_are_structural():
    k1 = BandSum(Atom("trefoil"), Atom("unknot"), 3)
    k2 = BandSum(Atom("trefoil"), Atom("unknot"), 3)
    assert k1 == k2
    assert k1 != BandSum(Atom("trefoil"), Atom("unknot"), 4)


def test_diagram_equality_is_structural_and_order_sensitive_for_pairs():
    p1 = joint(comp("a"), 1, comp("b"), 2, 3)
    p2 = joint(comp("c"), 4, comp("d"), 5, 6)
    assert RoundDiagram([p1, p2]) != RoundDiagram([p2, p1])
    assert RoundDiagram([p1, p2]) == RoundDiagram([p1, p2])


def test_dehn_components_are_kept_in_id_order():
    d = DehnDiagram([comp("b"), comp("a")], {"a": 0, "b": 1})
    assert [c.id for c in d.components] == ["a", "b"]


def test_loose_knots_are_kept_in_id_order():
    r = RoundDiagram(
        (),
        [LooseKnot(comp("z"), Rational(1)), LooseKnot(comp("b"), Rational(0))],
    )
    assert [l.component.id for l in r.loose] == ["b", "z"]


def test_linking_matrix_stays_symmetric_after_restriction_and_updates():
    rng = random.Random(11)
    for _ in range(50):
        r = random_joint_diagram(rng, max_pairs=3)
        ids = sorted(r.ids)
        for a in ids:
            for b in ids:
                if a != b:
                    assert r.lk.get(a, b) == r.lk.get(b, a)
        sub = r.lk.restricted(ids[:3])
        for a in ids[:3]:
            for b in ids[:3]:
                if a != b:
                    assert sub.get(a, b) == r.lk.get(a, b)


def test_malformed_knot_is_reported_not_thrown():
    from roundsurgery import FramedComponent

    bad = FramedComponent("a", BandSum(Atom("trefoil"), "unknot", 0))
    r = RoundDiagram([JointPair(bad, 0, comp("b"), 0, Rational(1))])
    assert validate_diagram(r) == ["component a: not a knot expression"]


def _nested(knot, depth):
    """knot under depth band sums, nested alternately on the left and the
    framing-curve side."""
    for level in range(depth):
        knot = BandSum(knot, Atom("unknot"), 1) if level % 2 else BandSum(Atom("trefoil"), knot, -1)
    return knot


def test_a_knot_built_in_code_of_any_depth_validates():
    deep = _nested(Atom("unknot"), 10_000)
    r = RoundDiagram([JointPair(FramedComponent("a", deep), 0, comp("b"), 0, Rational(1))])
    k = KirbyDiagram(two_handles=[TwoHandle("a", deep, 0)])
    assert validate_diagram(r) == []
    assert validate_kirby(k) == []


def test_a_malformed_leaf_deep_in_a_knot_is_reported_once():
    bad = FramedComponent("a", _nested("trefoil", 5_000))
    r = RoundDiagram([JointPair(bad, 0, comp("b"), 0, Rational(1))])
    assert validate_diagram(r) == ["component a: not a knot expression"]
