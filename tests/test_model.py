import random

import pytest

from helpers import comp, joint, random_joint_diagram
from roundsurgery import (
    Atom,
    BandSum,
    DehnDiagram,
    JointPair,
    LinkingMatrix,
    LooseKnot,
    Rational,
    RoundDiagram,
    SurgeryError,
    validate_diagram,
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
    r = RoundDiagram([JointPair(comp("a"), 0, comp("b"), 0, Rational(2, 4))])
    violations = validate_diagram(r)
    assert len(violations) == 1
    assert "not reduced" in violations[0]


def test_validate_infinity_slope_must_be_one_over_zero():
    r = RoundDiagram([JointPair(comp("a"), 0, comp("b"), 0, Rational(3, 0))])
    assert any("1/0" in v for v in validate_diagram(r))
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
    assert Rational.infinity().is_infinite
    assert Rational.reduced(4, -6) == Rational(-2, 3)
    assert str(Rational(1, 0)) == "1/0"
    assert str(Rational(-3, 2)) == "-3/2"
    assert not Rational(2, 4).is_reduced


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
