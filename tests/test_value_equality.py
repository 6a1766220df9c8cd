"""Diagram equality is value equality, and the canonical text is its normal
form: two diagrams are equal exactly when they print the same."""

import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from roundsurgery import (
    UNKNOT,
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
    TwoHandle,
    parse,
    print_diagram,
    validate_diagram,
)

knots = st.recursive(
    st.sampled_from(("unknot", "trefoil", "fig8")).map(Atom),
    lambda inner: st.builds(BandSum, inner, inner, st.integers(-3, 3)),
    max_leaves=4,
)
slopes = st.one_of(
    st.integers(-4, 4).map(Rational),
    st.tuples(st.integers(-9, 9), st.integers(2, 9)).filter(lambda t: math.gcd(*t) == 1).map(lambda t: Rational(*t)),
    st.just(Rational(1, 0)),
)
small = st.integers(-5, 5)


def _linking(draw, ids):
    return LinkingMatrix((a, b, draw(st.integers(-2, 2))) for a, b in itertools.combinations(ids, 2))


def _components(draw, ids, fibred=True):
    return [FramedComponent(cid, draw(knots), fibred and draw(st.booleans())) for cid in ids]


@st.composite
def round_diagrams(draw):
    n_pairs, n_loose = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    ids = draw(st.permutations([f"c{i}" for i in range(2 * n_pairs + n_loose)]))
    comps = _components(draw, ids)
    pairs = [
        JointPair(comps[2 * i], draw(small), comps[2 * i + 1], draw(small), draw(st.none() | slopes))
        for i in range(n_pairs)
    ]
    loose = [LooseKnot(c, draw(slopes)) for c in comps[2 * n_pairs:]]
    return RoundDiagram(pairs, loose, _linking(draw, ids))


@st.composite
def dehn_diagrams(draw):
    ids = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
    return DehnDiagram(_components(draw, ids), {cid: draw(small) for cid in ids}, _linking(draw, ids))


@st.composite
def kirby_diagrams(draw):
    handles = [f"h{i}" for i in range(draw(st.integers(0, 2)))]
    ids = [f"t{i}" for i in range(draw(st.integers(1, 3)))]
    two = [
        TwoHandle(c.id, c.knot, draw(small), tuple((h, draw(st.integers(-2, 2))) for h in handles))
        for c in _components(draw, ids, fibred=False)
    ]
    return KirbyDiagram(handles, two, _linking(draw, ids))


def _other_slope(m):
    return Rational(1, 0) if m == Rational(0) else Rational(0)


def _component_variants(c):
    return [replace(c, knot=BandSum(c.knot, UNKNOT, 1)), replace(c, fibred=not c.fibred)]


def _lk_variants(lk, ids):
    return [lk.with_entries({(a, b): lk.get(a, b) + 1}) for a, b in itertools.islice(itertools.combinations(sorted(ids), 2), 2)]


def _swapped(items, i, new):
    return items[:i] + (new,) + items[i + 1:]


def _round_variants(r):
    out = [RoundDiagram(r.pairs, r.loose, lk) for lk in _lk_variants(r.lk, r.ids)]
    if len(r.pairs) > 1:
        out.append(RoundDiagram(r.pairs[::-1], r.loose, r.lk))
    for i, p in enumerate(r.pairs):
        pairs = [
            replace(p, n1=p.n1 + 1),
            replace(p, n2=p.n2 - 1),
            replace(p, m=None if p.m is not None else Rational(0)),
            *(replace(p, c1=c) for c in _component_variants(p.c1)),
            *(replace(p, c2=c) for c in _component_variants(p.c2)),
        ]
        if p.m is not None:
            pairs.append(replace(p, m=_other_slope(p.m)))
        out += [RoundDiagram(_swapped(r.pairs, i, q), r.loose, r.lk) for q in pairs]
    for i, l in enumerate(r.loose):
        loose = [replace(l, m=_other_slope(l.m)), *(replace(l, component=c) for c in _component_variants(l.component))]
        out += [RoundDiagram(r.pairs, _swapped(r.loose, i, q), r.lk) for q in loose]
    return out


def _dehn_variants(d):
    out = [DehnDiagram(d.components, d.framing, lk) for lk in _lk_variants(d.lk, d.ids)]
    for i, c in enumerate(d.components):
        out.append(DehnDiagram(d.components, {**d.framing, c.id: d.framing[c.id] + 1}, d.lk))
        out += [DehnDiagram(_swapped(d.components, i, v), d.framing, d.lk) for v in _component_variants(c)]
    return out


def _kirby_variants(k):
    ids = {h.id for h in k.two_handles}
    out = [KirbyDiagram(k.one_handles, k.two_handles, lk) for lk in _lk_variants(k.lk, ids)]
    out.append(KirbyDiagram((*k.one_handles, "h9"), k.two_handles, k.lk))
    for i, h in enumerate(k.two_handles):
        hs = [
            replace(h, framing=h.framing + 1),
            replace(h, knot=BandSum(h.knot, UNKNOT, 1)),
            *(replace(h, runs_over=((hid, c + 1),)) for hid, c in h.runs_over[:1]),
        ]
        out += [KirbyDiagram(k.one_handles, _swapped(k.two_handles, i, v), k.lk) for v in hs]
    return out


def _check_value_equality(d, variants):
    clone = parse(print_diagram(d)).diagram
    assert clone is not d and clone == d and hash(clone) == hash(d)
    group = [d, clone, *variants]
    texts = [print_diagram(x) for x in group]
    for (x, tx), (y, ty) in itertools.product(zip(group, texts), repeat=2):
        assert (x == y) == (tx == ty)
        assert (x != y) == (tx != ty)
        if x == y:
            assert hash(x) == hash(y)


@given(round_diagrams())
def test_round_equality_is_equality_of_canonical_text(r):
    _check_value_equality(r, _round_variants(r))


@given(dehn_diagrams())
def test_dehn_equality_is_equality_of_canonical_text(d):
    _check_value_equality(d, _dehn_variants(d))


@given(kirby_diagrams())
def test_kirby_equality_is_equality_of_canonical_text(k):
    _check_value_equality(k, _kirby_variants(k))


@st.composite
def round_diagrams_given_zero_links(draw):
    """Two equal round diagrams whose linking matrices were given different
    zero entries; any entry may name an id the diagram does not have."""
    r = draw(round_diagrams())
    names = sorted(r.ids | {"x", "y"})
    two_ids = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
    given = draw(st.lists(st.tuples(two_ids, st.integers(-1, 1)), unique_by=lambda e: frozenset(e[0]), max_size=6))
    linked = {frozenset(ab) for ab, v in given if v}
    zeros = [ab for ab in draw(st.lists(two_ids, max_size=4)) if frozenset(ab) not in linked]
    lk1 = LinkingMatrix((a, b, v) for (a, b), v in given)
    lk2 = LinkingMatrix([*((a, b, v) for (a, b), v in given if v), *((a, b, 0) for a, b in zeros)])
    return RoundDiagram(r.pairs, r.loose, lk1), RoundDiagram(r.pairs, r.loose, lk2)


@given(round_diagrams_given_zero_links())
def test_equal_round_diagrams_validate_alike(diagrams):
    r1, r2 = diagrams
    assert r1 == r2 and print_diagram(r1) == print_diagram(r2)
    assert validate_diagram(r1) == validate_diagram(r2)


def test_a_dehn_diagrams_framings_cannot_be_assigned():
    d = DehnDiagram([FramedComponent("a", UNKNOT)], {"a": 0})
    with pytest.raises(TypeError):
        d.framing["a"] = 5
    assert d == DehnDiagram([FramedComponent("a", UNKNOT)], {"a": 0}) and d.framing == {"a": 0}


def test_diagrams_of_different_types_are_never_equal():
    r, d, k = RoundDiagram(), DehnDiagram((), {}), KirbyDiagram()
    assert r.__eq__(k) is NotImplemented and d.__eq__(r) is NotImplemented
    for x, y in itertools.permutations((r, d, k), 2):
        assert x != y
