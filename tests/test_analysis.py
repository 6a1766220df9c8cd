import random
from collections import Counter

import pytest

from helpers import comp, joint, one_pair_diagram, random_joint_diagram
from roundsurgery import (
    AnalysisError,
    FoliationRefusal,
    FoliationWitness,
    JointPair,
    LinkingMatrix,
    LooseKnot,
    Rational,
    RoundDiagram,
    SurgeryError,
    first_homology_round,
    is_trivial,
    split_connected_sum,
    suture_slope,
    taut_foliation_family,
    tight_contact_exists,
)
from roundsurgery.homology import AbelianGroup


def _infinity_pair(c1, c2, n1=0, n2=0):
    return JointPair(c1, n1, c2, n2, Rational(1, 0))


def test_is_trivial_all_infinity():
    r = RoundDiagram(
        [
            _infinity_pair(comp("a"), comp("b")),
            _infinity_pair(comp("c", "trefoil"), comp("d"), 3, 1),
        ]
    )
    assert is_trivial(r)


def test_is_trivial_false_with_finite_coefficient():
    r = RoundDiagram([_infinity_pair(comp("a"), comp("b")), joint(comp("c"), 0, comp("d"), 0, 1)])
    assert not is_trivial(r)


def test_is_trivial_empty_diagram_vacuous():
    assert is_trivial(RoundDiagram())


def test_is_trivial_requires_coefficients():
    with pytest.raises(AnalysisError):
        is_trivial(one_pair_diagram(0, 0, None))


def test_split_two_unlinked_pairs():
    r = RoundDiagram(
        [joint(comp("a"), 1, comp("b"), 0, 2), joint(comp("c"), 0, comp("d"), 0, 1)],
        (),
        LinkingMatrix([("a", "b", 3)]),
    )
    blocks = split_connected_sum(r)
    assert len(blocks) == 2
    assert {p.c1.id for b in blocks for p in b.pairs} == {"a", "c"}
    assert blocks[0].lk.get("a", "b") == 3


def test_split_linked_pairs_stay_together():
    r = RoundDiagram(
        [joint(comp("a"), 1, comp("b"), 0, 2), joint(comp("c"), 0, comp("d"), 0, 1)],
        (),
        LinkingMatrix([("b", "c", 1)]),
    )
    assert len(split_connected_sum(r)) == 1


def test_split_loose_knot_is_disconnected_summand():
    r = RoundDiagram(
        [joint(comp("a"), 0, comp("b"), 0, 1)],
        [LooseKnot(comp("z"), Rational(0))],
    )
    blocks = split_connected_sum(r)
    assert len(blocks) == 2
    flags = [bool(b.loose) for b in blocks]
    assert flags.count(True) == 1
    loose_block = blocks[flags.index(True)]
    assert loose_block.loose[0].component.id == "z"
    assert not loose_block.pairs


def test_split_blocks_partition_and_remerge():
    rng = random.Random(9)
    for _ in range(40):
        r = random_joint_diagram(rng, max_pairs=4, lk_probability=0.3)
        blocks = split_connected_sum(r)
        ids = sorted(cid for b in blocks for cid in b.ids)
        assert ids == sorted(r.ids)
        merged_pairs = [p for b in blocks for p in b.pairs]
        assert Counter(merged_pairs) == Counter(r.pairs)
        merged_lk = {}
        for b in blocks:
            merged_lk.update(dict(b.lk.items()))
        assert merged_lk == dict(r.lk.items())


def test_homology_is_direct_sum_over_blocks():
    rng = random.Random(23)
    for _ in range(30):
        r = random_joint_diagram(rng, max_pairs=3, lk_probability=0.25)
        blocks = split_connected_sum(r)
        total = first_homology_round(r)
        rank = 0
        factors = []
        for b in blocks:
            h = first_homology_round(b)
            rank += h.free_rank
            factors.extend(h.torsion)
        combined = AbelianGroup.from_factors(
            list(_chainify(factors)), extra_free=rank
        )
        assert combined == total


def _chainify(factors):
    # fold arbitrary torsion factors into an invariant-factor chain
    import math

    factors = [f for f in factors if f > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                g = math.gcd(a, b)
                l = a * b // g
                if (g, l) != (a, b) and (g, l) != (b, a):
                    factors[i], factors[j] = g, l
                    changed = True
        factors = [f for f in factors if f > 1]
    return sorted(factors)


def test_suture_slope_hopf_example():
    r = one_pair_diagram(0, 0, None, lk=1)
    w = suture_slope(r, 0)
    assert w == FoliationWitness(0, 0, 1)


def test_suture_slope_zero_when_lk_equals_n():
    r = one_pair_diagram(4, 4, None, lk=4)
    assert suture_slope(r, 0).slope == 0


def test_suture_slope_formula():
    r = one_pair_diagram(5, 5, None, lk=2)
    assert suture_slope(r, 0).slope == -3


def test_suture_slope_requires_equal_coefficients():
    with pytest.raises(AnalysisError, match="same coefficient"):
        suture_slope(one_pair_diagram(1, 2, None), 0)


def test_suture_slope_plus_n_is_constant():
    rng = random.Random(2)
    for _ in range(50):
        lk = rng.randint(-9, 9)
        n = rng.randint(-9, 9)
        w = suture_slope(one_pair_diagram(n, n, None, lk=lk), 0)
        assert w.slope + w.n == lk


def test_taut_foliation_family_fibred_hopf():
    r = one_pair_diagram(0, 0, None, lk=1, fibred=True)
    witnesses = taut_foliation_family(r, 0, (-1, 0, 1))
    assert [w.slope for w in witnesses] == [2, 1, 0]
    assert [w.n for w in witnesses] == [-1, 0, 1]


def test_taut_foliation_family_refusals():
    not_fibred = one_pair_diagram(0, 0, None, lk=1)
    assert taut_foliation_family(not_fibred, 0, (0,)) == FoliationRefusal("not fibred")
    unequal = one_pair_diagram(0, 1, None, lk=1, fibred=True)
    assert taut_foliation_family(unequal, 0, (0,)) == FoliationRefusal("coefficients differ")


def test_tight_contact_exists_gates():
    assert tight_contact_exists(one_pair_diagram(3, 3, None, lk=1, fibred=True), 0)
    assert not tight_contact_exists(one_pair_diagram(3, 3, None, lk=1), 0)
    assert not tight_contact_exists(one_pair_diagram(3, 4, None, lk=1, fibred=True), 0)
    with pytest.raises(SurgeryError, match="pair index 1 out of range"):
        tight_contact_exists(one_pair_diagram(3, 3, None, lk=1, fibred=True), 1)
