"""Shared builders and randomized generators for the test suite."""

from __future__ import annotations

import functools
import itertools
import random

from roundsurgery import (
    Atom,
    DehnDiagram,
    FramedComponent,
    JointPair,
    LinkingMatrix,
    LooseKnot,
    MoveDescriptor,
    MoveKind,
    Rational,
    RoundDiagram,
)
from roundsurgery.moves import EQ_MOVE4_VARIANTS

KNOT_NAMES = ("unknot", "trefoil", "fig8", "cinquefoil")


def comp(cid: str, knot: str = "unknot", fibred: bool = False) -> FramedComponent:
    return FramedComponent(cid, Atom(knot), fibred)


def joint(c1, n1, c2, n2, m=None):
    return JointPair(c1, n1, c2, n2, None if m is None else Rational(m))


def one_pair_diagram(n1: int, n2: int, m=None, lk: int = 0, knot1="unknot", knot2="unknot", fibred=False):
    a, b = comp("a", knot1, fibred), comp("b", knot2, fibred)
    entries = [("a", "b", lk)] if lk else []
    return RoundDiagram([joint(a, n1, b, n2, m)], (), LinkingMatrix(entries))


def random_dehn(rng: random.Random, max_components: int = 6, span: int = 9) -> DehnDiagram:
    n = rng.randint(1, max_components)
    components = [
        FramedComponent(f"c{i}", Atom(rng.choice(KNOT_NAMES)), rng.random() < 0.2)
        for i in range(n)
    ]
    framing = {c.id: rng.randint(-span, span) for c in components}
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                entries.append((f"c{i}", f"c{j}", rng.randint(-span, span)))
    return DehnDiagram(components, framing, LinkingMatrix(entries))


def random_joint_diagram(
    rng: random.Random,
    max_pairs: int = 4,
    span: int = 9,
    min_pairs: int = 1,
    lk_probability: float = 0.5,
    unlinked_pairs: tuple[int, ...] = (),
) -> RoundDiagram:
    """A random round diagram of joint pairs with integral coefficients.

    Components of any pair listed in ``unlinked_pairs`` get no linking at
    all (with anything, including each other).
    """
    n = rng.randint(min_pairs, max_pairs)
    pairs = []
    for i in range(n):
        c1 = FramedComponent(f"a{2 * i}", Atom(rng.choice(KNOT_NAMES)), rng.random() < 0.2)
        c2 = FramedComponent(f"a{2 * i + 1}", Atom(rng.choice(KNOT_NAMES)), rng.random() < 0.2)
        pairs.append(
            JointPair(
                c1,
                rng.randint(-span, span),
                c2,
                rng.randint(-span, span),
                Rational(rng.randint(-span, span)),
            )
        )
    isolated = {f"a{2 * i}" for i in unlinked_pairs} | {f"a{2 * i + 1}" for i in unlinked_pairs}
    ids = [c.id for p in pairs for c in (p.c1, p.c2)]
    entries = []
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            if ids[x] in isolated or ids[y] in isolated:
                continue
            if rng.random() < lk_probability:
                entries.append((ids[x], ids[y], rng.randint(-span, span)))
    return RoundDiagram(pairs, (), LinkingMatrix(entries))


def random_loose(rng: random.Random, cid: str) -> LooseKnot:
    return LooseKnot(comp(cid, rng.choice(KNOT_NAMES)), Rational(rng.randint(-5, 5)))


# the fields each round move kind takes; the reference box tries every value
_REFERENCE_FIELDS = {
    MoveKind.EQ_MOVE1: ("pair", "k"),
    MoveKind.SHUFFLE_A: ("pair", "k"),
    MoveKind.SHUFFLE_B: ("pair", "pair2", "k", "k2"),
    MoveKind.EQ_MOVE3_ADD: ("k", "delta", "sign"),
    MoveKind.EQ_MOVE3_DEL: ("pair",),
    MoveKind.EQ_MOVE4: ("variant", "pair", "pair2", "k"),
}


@functools.lru_cache(maxsize=None)
def reference_box(n_pairs: int, ks: tuple[int, ...]) -> tuple[MoveDescriptor, ...]:
    """Every round move descriptor over the parameter box, sorted."""
    values = {
        "pair": (None, *range(n_pairs)),
        "pair2": (None, *range(n_pairs)),
        "variant": EQ_MOVE4_VARIANTS,
        "k": ks,
        "k2": ks,
        "delta": (-2, 0, 2),
        "sign": (-1, 1),
    }
    moves = [
        MoveDescriptor(kind, **dict(zip(names, combo)))
        for kind, names in _REFERENCE_FIELDS.items()
        for combo in itertools.product(*(values[name] for name in names))
    ]
    return tuple(sorted(moves, key=MoveDescriptor.sort_key))
