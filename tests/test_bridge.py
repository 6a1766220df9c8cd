import random

import pytest
from hypothesis import given, strategies as st

from helpers import comp, joint, one_pair_diagram, random_dehn
from roundsurgery import (
    Atom,
    BandSum,
    BridgeError,
    DehnDiagram,
    JointPair,
    KirbyDiagram,
    LinkingMatrix,
    LooseKnot,
    Rational,
    RoundDiagram,
    TwoHandle,
    UNKNOT,
    dehn_to_joint_pairs,
    joint_pair_to_dehn,
    kirby_to_round1,
    round1_to_kirby,
    validate_kirby,
)


def test_joint_pair_to_dehn_example_312():
    d = joint_pair_to_dehn(one_pair_diagram(3, 1, 2))
    assert d.framing == {"a": 4, "b": 2}


def test_joint_pair_to_dehn_equal_coefficients_cancel():
    for n in (-4, 0, 7):
        for m in (-2, 0, 5):
            d = joint_pair_to_dehn(one_pair_diagram(n, n, m))
            assert d.framing == {"a": m, "b": m}


def test_joint_pair_to_dehn_example_negative():
    d = joint_pair_to_dehn(one_pair_diagram(0, 2, -1))
    assert d.framing == {"a": -3, "b": -1}


def test_joint_pair_to_dehn_preserves_linking_and_flags():
    r = RoundDiagram(
        [joint(comp("a", "trefoil", fibred=True), 1, comp("b"), 0, 3)],
        (),
        LinkingMatrix([("a", "b", -2)]),
    )
    d = joint_pair_to_dehn(r)
    assert d.lk.get("a", "b") == -2
    assert d.component("a").fibred
    assert d.component("a").knot == Atom("trefoil")


def test_joint_pair_to_dehn_rejections():
    with pytest.raises(BridgeError, match="no round 2-surgery"):
        joint_pair_to_dehn(one_pair_diagram(0, 0, None))
    inf = RoundDiagram([JointPair(comp("a"), 0, comp("b"), 0, Rational(1, 0))])
    with pytest.raises(BridgeError, match="is_trivial"):
        joint_pair_to_dehn(inf)
    frac = RoundDiagram([JointPair(comp("a"), 0, comp("b"), 0, Rational(3, 2))])
    with pytest.raises(BridgeError, match="non-integral"):
        joint_pair_to_dehn(frac)
    loose = RoundDiagram(
        [joint(comp("a"), 0, comp("b"), 0, 1)],
        [LooseKnot(comp("z"), Rational(0))],
    )
    with pytest.raises(BridgeError, match="loose"):
        joint_pair_to_dehn(loose)


def test_dehn_to_joint_pairs_two_components():
    d = DehnDiagram([comp("a"), comp("b")], {"a": 4, "b": 2})
    r = dehn_to_joint_pairs(d, [5])
    p = r.pairs[0]
    assert (p.n1, p.n2, p.m) == (7, 5, Rational(2))


def test_dehn_to_joint_pairs_round_trip_k0():
    d = DehnDiagram([comp("a"), comp("b")], {"a": 4, "b": 2})
    r = dehn_to_joint_pairs(d, [0])
    assert (r.pairs[0].n1, r.pairs[0].n2) == (2, 0)
    assert joint_pair_to_dehn(r) == d


def test_dehn_to_joint_pairs_single_component_pads():
    d = DehnDiagram([comp("k", "trefoil")], {"k": 3})
    r = dehn_to_joint_pairs(d, [0], pad_sign=1)
    p = r.pairs[0]
    assert p.c1.id == "k"
    assert p.c2.knot == UNKNOT
    assert (p.n1, p.n2, p.m) == (2, 0, Rational(1))


def test_dehn_to_joint_pairs_rejects_bad_arguments():
    d = DehnDiagram([comp("a"), comp("b")], {"a": 4, "b": 2})
    with pytest.raises(BridgeError, match="k choices"):
        dehn_to_joint_pairs(d, [1, 2])
    with pytest.raises(BridgeError, match="pad_sign"):
        dehn_to_joint_pairs(d, [1], pad_sign=2)


def _strip_padding(back: DehnDiagram, original: DehnDiagram) -> DehnDiagram:
    extra = back.ids - original.ids
    assert len(extra) <= 1
    if not extra:
        return back
    (pad,) = extra
    assert back.component(pad).knot == UNKNOT
    assert back.framing[pad] in (1, -1)
    assert all(back.lk.get(pad, other) == 0 for other in original.ids)
    keep = [c for c in back.components if c.id != pad]
    framing = {k: v for k, v in back.framing.items() if k != pad}
    return DehnDiagram(keep, framing, back.lk.restricted(original.ids))


def test_round_trip_and_k_independence_randomized():
    rng = random.Random(321)
    for _ in range(150):
        d = random_dehn(rng)
        n_pairs = (len(d.components) + 1) // 2
        sign = rng.choice((1, -1))
        baseline = None
        for _trial in range(3):
            ks = [rng.randint(-5, 5) for _ in range(n_pairs)]
            back = joint_pair_to_dehn(dehn_to_joint_pairs(d, ks, sign))
            assert _strip_padding(back, d) == d
            if baseline is None:
                baseline = back
            else:
                assert back == baseline  # k never leaks into the Dehn image


def test_round1_to_kirby_hopf_framing_two():
    r = one_pair_diagram(0, 0, None, lk=1)
    k = round1_to_kirby(r)
    assert len(k.one_handles) == 1
    (h,) = k.two_handles
    assert h.framing == 2
    assert h.runs_over == ((k.one_handles[0], 2),)
    assert h.knot == BandSum(Atom("unknot"), Atom("unknot"), 0)
    assert validate_kirby(k) == []


@pytest.mark.parametrize(
    "one_handles, runs_over, two_handle_id, message",
    [
        (("h", "h"), (), "t", "handle h: duplicate id"),
        (("h",), (), "h", "handle h: duplicate id"),
        (("h",), (("q", 1),), "t", "2-handle t: runs over unknown 1-handle q"),
        (("h",), (("h", 1), ("h", 2)), "t", "2-handle t: duplicate run-over entry for h"),
    ],
    ids=["duplicate-1-handle", "2-handle-named-like-a-1-handle", "unknown-1-handle", "run-over-twice"],
)
def test_validate_kirby_reports_each_violation(one_handles, runs_over, two_handle_id, message):
    k = KirbyDiagram(one_handles, (TwoHandle(two_handle_id, UNKNOT, 0, runs_over),))
    assert validate_kirby(k) == [message]


def test_round1_to_kirby_unlinked_zero():
    k = round1_to_kirby(one_pair_diagram(0, 0, None, lk=0))
    assert k.two_handles[0].framing == 0


def test_round1_to_kirby_formula_instance():
    k = round1_to_kirby(one_pair_diagram(2, 3, None, lk=-1))
    assert k.two_handles[0].framing == 2 + 3 - 2


def test_round1_to_kirby_rejections():
    with pytest.raises(BridgeError, match="round 2-surgery"):
        round1_to_kirby(one_pair_diagram(0, 0, 1))
    with_loose = RoundDiagram(
        [joint(comp("a"), 0, comp("b"), 0, None)],
        [LooseKnot(comp("z"), Rational(0))],
    )
    with pytest.raises(BridgeError, match="loose"):
        round1_to_kirby(with_loose)
    two = RoundDiagram(
        [joint(comp("a"), 0, comp("b"), 0, None), joint(comp("c"), 0, comp("d"), 0, None)]
    )
    with pytest.raises(BridgeError, match="exactly one"):
        round1_to_kirby(two)


def test_kirby_to_round1_trefoil():
    k = KirbyDiagram(("h",), (TwoHandle("t", Atom("trefoil"), 4),))
    r = kirby_to_round1(k)
    (p,) = r.pairs
    assert p.m is None
    assert (p.c1.knot, p.n1) == (UNKNOT, 0)
    assert (p.c2.knot, p.n2) == (Atom("trefoil"), 4)
    assert r.lk.get(p.c1.id, p.c2.id) == 0


def test_kirby_to_round1_unknot_zero():
    k = KirbyDiagram(("h",), (TwoHandle("t", UNKNOT, 0),))
    r = kirby_to_round1(k)
    assert (r.pairs[0].n1, r.pairs[0].n2) == (0, 0)


def test_kirby_to_round1_figure_eight():
    k = KirbyDiagram(("h",), (TwoHandle("t", Atom("fig8"), -2),))
    assert kirby_to_round1(k).pairs[0].n2 == -2


def test_kirby_to_round1_rejections():
    with pytest.raises(BridgeError, match="1-handle"):
        kirby_to_round1(KirbyDiagram(("h", "g"), (TwoHandle("t", UNKNOT, 0),)))
    with pytest.raises(BridgeError, match="2-handle"):
        kirby_to_round1(KirbyDiagram(("h",), ()))
    dependent = KirbyDiagram(("h",), (TwoHandle("t", UNKNOT, 0, (("h", 2),)),))
    with pytest.raises(BridgeError, match="independently"):
        kirby_to_round1(dependent)


def test_kirby_import_then_export_keeps_framing():
    for n in range(-5, 6):
        k = KirbyDiagram(("h",), (TwoHandle("t", Atom("trefoil"), n),))
        out = round1_to_kirby(kirby_to_round1(k))
        assert out.two_handles[0].framing == 0 + n + 0


def test_two_handle_normalises_runs_over():
    h = TwoHandle("t", UNKNOT, 0, (("b", 1), ("a", 2), ("c", 0)))
    assert h.runs_over == (("a", 2), ("b", 1))


@given(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-20, 20),
)
def test_bridge_formula_property(n1, n2, m, lk):
    d = joint_pair_to_dehn(one_pair_diagram(n1, n2, m, lk=lk))
    assert d.framing["a"] == n1 - n2 + m
    assert d.framing["b"] == m
    assert d.lk.get("a", "b") == lk
