"""Moves on surgery diagrams and a bounded equivalence search.

Dehn diagrams carry the two classical Kirby moves: blow-up/blow-down of a
(+-1)-framed unknot, and the handle slide, under which the slid component
gets framing n_a + n_b + 2*lk(a, b) and absorbs b's linking row.

Round diagrams of joint pairs carry four equivalence moves:

  1. recoefficient one pair:      (n1, n2, m) -> (n1 - n2 + k, k, m)
  2. shuffle moves: A moves the round 2-surgery coefficient to the other
     component of a pair, and B exchanges the round 2-surgery knots of two
     pairs, each knot keeping its coefficient
  3. add/delete an unlinked unknot pair whose Dehn image is two
     (+-1)-framed unknots; its preconditions are the blow-up and
     blow-down rules of Kirby move 1 (_BLOW_UPS, _blow_down_refusal)
  4. six band-sum slide variants, one per choice of slid component and
     partner among two pairs; each commutes with the handle slide through
     the joint-pair/Dehn correspondence.

Every move is a pure function returning a new diagram.  Every round move
keeps one rule, the joint-pair/Dehn correspondence of the bridge module: it
reads a joint pair only through its Dehn framings (n1 - n2 + m, m), and
writes each pair it rewrites back from Dehn framings as (f1 - f2 + k, k,
m = f2), with its free integer k as n2.  So on the Dehn image a round move
is no move at all (moves 1 and 2) or a Kirby move: move 3 adds or deletes
two blow-ups, and move 4 is the handle slide, by the same framing, linking
and band-sum rule as kirby2_slide.  The free integers never change the
Dehn diagram; they are the gauge freedom of the joint-pair presentation.
Every MoveError precondition of a round move likewise reads a pair only
through its Dehn framings, that is through n1 - n2 and m.

Knots only grow.  The slide (move 4) is the only round move that changes a
knot: it wraps the slid component's knot K into band(K, cable(...)).  No
move removes a band sum, move 3 adds and deletes only unknots, and the
other moves carry components over unchanged.  So along any sequence of
round moves, following BandSum.left from a later knot of a component id
leads to each earlier one, one band sum per slide: the knot grows along
its left spine.  The search reads this in its drops (see
bounded_equivalence_search).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from itertools import product
from typing import Callable, Container, Iterable, Iterator, Mapping, Optional, Sequence

from .bridge import _dehn_framings, _pair_from_framings
from .model import (
    BandSum,
    ComponentId,
    DehnDiagram,
    Diagram,
    FramedComponent,
    JointPair,
    KnotExpr,
    LinkingMatrix,
    RoundDiagram,
    SurgeryError,
    UNKNOT,
    fresh_id,
)


class MoveError(SurgeryError):
    """The move's preconditions do not hold on this diagram."""


class MoveKind(str, Enum):
    KIRBY1_ADD = "Kirby1Add"
    KIRBY1_DEL = "Kirby1Del"
    KIRBY2_SLIDE = "Kirby2Slide"
    EQ_MOVE1 = "EqMove1"
    SHUFFLE_A = "ShuffleA"
    SHUFFLE_B = "ShuffleB"
    EQ_MOVE3_ADD = "EqMove3Add"
    EQ_MOVE3_DEL = "EqMove3Del"
    EQ_MOVE4 = "EqMove4"


#: The slide of each eq_move4 variant: (slot of pair i that slides, partner
#: pair "i" or "j", slot of the partner pair it slides over), slots counted
#: from 0.  "12over21" reads: the round 2-surgery knot of pair i slides over
#: the first component of pair j.
_EQ_MOVE4_SLIDES = {
    "11over12": (0, "i", 1),
    "11over21": (0, "j", 0),
    "11over22": (0, "j", 1),
    "12over11": (1, "i", 0),
    "12over21": (1, "j", 0),
    "12over22": (1, "j", 1),
}
#: The six slide variants of eq_move4, in the order of _EQ_MOVE4_SLIDES.
EQ_MOVE4_VARIANTS = tuple(_EQ_MOVE4_SLIDES)
_SINGLE_PAIR_VARIANTS = tuple(v for v, (_, partner, _) in _EQ_MOVE4_SLIDES.items() if partner == "i")
_DOUBLE_PAIR_VARIANTS = tuple(v for v, (_, partner, _) in _EQ_MOVE4_SLIDES.items() if partner == "j")


@dataclass(frozen=True)
class MoveDescriptor:
    """One move plus all of its arguments, in a form that can be sorted,
    printed and replayed."""

    kind: MoveKind
    pair: Optional[int] = None
    pair2: Optional[int] = None
    component: Optional[ComponentId] = None
    component2: Optional[ComponentId] = None
    variant: Optional[str] = None
    k: Optional[int] = None
    k2: Optional[int] = None
    delta: Optional[int] = None
    sign: Optional[int] = None

    def _arguments(self) -> Iterator[tuple[str, object]]:
        """(field name, value) for every field but ``kind``, in order."""
        for f in fields(self)[1:]:
            yield f.name, getattr(self, f.name)

    def sort_key(self) -> tuple:
        # None sorts before every value; each field holds values of one type.
        return (self.kind.value, *((0,) if v is None else (1, v) for _, v in self._arguments()))

    def to_line(self) -> str:
        return " ".join([self.kind.value, *(f"{name}={v}" for name, v in self._arguments() if v is not None)])


MoveSequence = tuple[MoveDescriptor, ...]


# ---------------------------------------------------------------------------
# Kirby moves on Dehn diagrams

#: The framings of a blow-up, and of a component that can be blown down.
_BLOW_UPS = (1, -1)


def kirby1_add(d: DehnDiagram, sign: int) -> DehnDiagram:
    """Blow up: adjoin a fresh unknot with framing +-1, unlinked from
    everything."""
    if sign not in _BLOW_UPS:
        raise MoveError(f"blow-up framing must be +1 or -1, got {sign}")
    new = FramedComponent(fresh_id("u", d.ids), UNKNOT)
    framing = dict(d.framing)
    framing[new.id] = sign
    return DehnDiagram((*d.components, new), framing, d.lk)


def _blow_down_refusal(
    comps: Sequence[tuple[FramedComponent, int]], lk: LinkingMatrix, ids: Iterable[ComponentId]
) -> Optional[str]:
    """Why the components, each given with its framing, cannot be blown
    down, or None: each must be an unknot framed +-1, and none may link
    any of ids.  Every knot and framing is read before any link."""
    for c, f in comps:
        if c.knot != UNKNOT:
            return f"{c.id} is not an unknot; cannot blow down"
        if f not in _BLOW_UPS:
            return f"{c.id} has framing {f}, expected +-1"
    for c, _ in comps:
        linked = [x for x in sorted(ids) if x != c.id and lk.get(c.id, x) != 0]
        if linked:
            return f"{c.id} links {', '.join(linked)}; cannot blow down"
    return None


def kirby1_del(d: DehnDiagram, c: ComponentId) -> DehnDiagram:
    """Blow down an unlinked (+-1)-framed unknot.  It links nothing, so the
    linking matrix, which holds only nonzero entries, is kept as it is."""
    reason = _blow_down_refusal(((d.component(c), d.framing[c]),), d.lk, d.ids)
    if reason is not None:
        raise MoveError(reason)
    framing = {k: v for k, v in d.framing.items() if k != c}
    keep = [x for x in d.components if x.id != c]
    return DehnDiagram(keep, framing, d.lk)


def _slide(
    lk: LinkingMatrix, ids: Iterable[ComponentId], a: FramedComponent, na: int, b: FramedComponent, nb: int
) -> tuple[FramedComponent, int, LinkingMatrix]:
    """a's component and framing, and the linking matrix, after the handle
    slide of a, framed na, over b, framed nb (see kirby2_slide)."""
    ab = lk.get(a.id, b.id)
    kept = ((x, y, v) for (x, y), v in lk.items() if a.id not in (x, y))
    row = ((a.id, x, lk.get(a.id, x) + lk.get(b.id, x)) for x in ids if x not in (a.id, b.id))
    slid = FramedComponent(a.id, BandSum(a.knot, b.knot, nb), a.fibred)
    return slid, na + nb + 2 * ab, LinkingMatrix((*kept, *row, (a.id, b.id, ab + nb)))


def kirby2_slide(d: DehnDiagram, a: ComponentId, b: ComponentId) -> DehnDiagram:
    """Handle slide of component a over component b.

    a becomes the band sum of a with b's framing curve; its framing becomes
    n_a + n_b + 2*lk(a, b), it absorbs b's linking row, and lk(a, b) grows
    by b's framing.  Everything else is untouched.  Only the
    orientation-preserving band sum is modelled; reversed slides are out of
    scope.
    """
    if a == b:
        raise MoveError("cannot slide a component over itself")
    ca, cb = d.component(a), d.component(b)
    framing = dict(d.framing)
    slid, framing[a], lk = _slide(d.lk, d.ids, ca, framing[a], cb, framing[b])
    comps = [slid if x.id == a else x for x in d.components]
    return DehnDiagram(comps, framing, lk)


# ---------------------------------------------------------------------------
# Equivalence moves on round diagrams of joint pairs


def _joint(r: RoundDiagram, index: int) -> tuple[JointPair, tuple[int, int]]:
    """Pair ``index`` and its Dehn framings; raises MoveError unless it is a
    joint pair with integral m."""
    p = r.pair(index)
    if p.m is None:
        raise MoveError(f"pair {index} ({p.c1.id}, {p.c2.id}) is not a joint pair")
    if not p.m.is_integer:
        raise MoveError(f"pair {index} has non-integral coefficient {p.m}")
    return p, _dehn_framings(p)


def _replace_pair(r: RoundDiagram, index: int, new: JointPair, lk: Optional[LinkingMatrix] = None) -> RoundDiagram:
    pairs = list(r.pairs)
    pairs[index] = new
    return RoundDiagram(pairs, r.loose, r.lk if lk is None else lk)


def eq_move1(r: RoundDiagram, pair_index: int, k: int) -> RoundDiagram:
    """Regauge one joint pair: (n1, n2, m) -> (n1 - n2 + k, k, m).
    Taking k = n2 is the identity."""
    p, framings = _joint(r, pair_index)
    return _replace_pair(r, pair_index, _pair_from_framings(p.c1, p.c2, framings, k))


def shuffle_a(r: RoundDiagram, pair_index: int, k: int) -> RoundDiagram:
    """Move the round 2-surgery coefficient to the other component of a
    joint pair.  The components swap roles; the new pair is
    (k - n1 + n2, k) with coefficient n1 + m - n2 on the new second slot."""
    p, (f1, f2) = _joint(r, pair_index)
    return _replace_pair(r, pair_index, _pair_from_framings(p.c2, p.c1, (f2, f1), k))


def shuffle_b(r: RoundDiagram, i: int, j: int, k1: int, k2: int) -> RoundDiagram:
    """Exchange the round 2-surgery knots of two joint pairs.

    Pair i keeps its first component and adopts pair j's second component,
    which keeps its coefficient m_j; symmetrically for pair j.  With
    A = n1 - n2 of pair i and B that of pair j, pair i becomes
    (A + m_i - m_j + k2, k2, m_j) and pair j (B + m_j - m_i + k1, k1, m_i):
    every component keeps its Dehn framing, so the Dehn diagram is the same
    for every k1 and k2.
    """
    if i == j:
        raise MoveError("shuffle of type B needs two distinct pairs")
    pi, (fi1, fi2) = _joint(r, i)
    pj, (fj1, fj2) = _joint(r, j)
    pairs = list(r.pairs)
    pairs[i] = _pair_from_framings(pi.c1, pj.c2, (fi1, fj2), k2)
    pairs[j] = _pair_from_framings(pj.c1, pi.c2, (fj1, fi2), k1)
    return RoundDiagram(pairs, r.loose, r.lk)


def eq_move3_add(r: RoundDiagram, k: int, delta: int, sign: int) -> RoundDiagram:
    """Adjoin an unlinked joint pair of unknots with coefficients
    (k + delta, k, m = sign).

    delta is 0 or +-2 and sign is +-1, constrained so the pair's Dehn image
    (delta + sign, sign) consists of two (+-1)-framed unknots, that is two
    blow-ups; other combinations would change the manifold."""
    if sign not in _BLOW_UPS or delta + sign not in _BLOW_UPS:
        raise MoveError(
            f"(delta, sign) = ({delta}, {sign}) does not yield +-1 Dehn framings"
        )
    u1, u2 = _fresh_pair_ids(r)
    pair = _pair_from_framings(FramedComponent(u1, UNKNOT), FramedComponent(u2, UNKNOT), (delta + sign, sign), k)
    return RoundDiagram((*r.pairs, pair), r.loose, r.lk)


def _fresh_pair_ids(r: RoundDiagram) -> tuple[ComponentId, ComponentId]:
    """The ids of the two unknots eq_move3_add appends to r: the two least
    ``u<n>`` that r does not use."""
    u1 = fresh_id("u", r.ids)
    return u1, fresh_id("u", r.ids | {u1})


def _check_move3_del(r: RoundDiagram, index: int) -> Optional[str]:
    """Why eq_move3_del refuses pair ``index``, or None when its two
    components, at their Dehn framings, can be blown down: the blow-down
    rule of kirby1_del (_blow_down_refusal), whose refusal names the
    component.  A pair that is not joint with integral m raises MoveError
    (_joint)."""
    p, (f1, f2) = _joint(r, index)
    return _blow_down_refusal(((p.c1, f1), (p.c2, f2)), r.lk, r.ids)


def eq_move3_del(r: RoundDiagram, pair_index: int) -> RoundDiagram:
    """Delete a pair matching the eq_move3_add pattern: two unlinked unknots
    whose Dehn framings are both +-1.  They link nothing, so the linking
    matrix is kept as it is."""
    reason = _check_move3_del(r, pair_index)
    if reason is not None:
        raise MoveError(reason)
    pairs = [q for t, q in enumerate(r.pairs) if t != pair_index]
    return RoundDiagram(pairs, r.loose, r.lk)


def eq_move4(r: RoundDiagram, variant: str, i: int, j: Optional[int] = None, k: int = 0) -> RoundDiagram:
    """Band-sum slide on joint pairs; the variant names the slid component
    and the partner (see EQ_MOVE4_VARIANTS).

    The slid component's Dehn framing and knot and the linking matrix
    change as in the handle slide, and pair i is rebuilt from its Dehn
    framings with n2 = k, so converting to a Dehn diagram commutes exactly
    with kirby2_slide; the free k regauges the pair as in eq_move1.
    """
    if variant not in EQ_MOVE4_VARIANTS:
        raise MoveError(f"unknown variant {variant!r}")
    slot, partner, over_slot = _EQ_MOVE4_SLIDES[variant]
    if partner == "i":
        if j is not None and j != i:
            raise MoveError(f"variant {variant} acts on a single pair; drop j")
        j = i
    elif j is None:
        raise MoveError(f"variant {variant} needs a second pair index")
    elif i == j:
        raise MoveError(f"variant {variant} needs two distinct pairs")
    pi, fi = _joint(r, i)
    pj, fj = (pi, fi) if j == i else _joint(r, j)
    comps, framings = [pi.c1, pi.c2], list(fi)
    over = (pj.c1, pj.c2)[over_slot]
    comps[slot], framings[slot], lk = _slide(r.lk, r.ids, comps[slot], fi[slot], over, fj[over_slot])
    return _replace_pair(r, i, _pair_from_framings(*comps, framings, k), lk)


# ---------------------------------------------------------------------------
# Replay and bounded search


@dataclass(frozen=True)
class MoveSpec:
    """How apply_move calls one move kind, and what the move can change.

    fn is the move function and acts_on the diagram type it acts on;
    fields are the MoveDescriptor fields passed to fn in call order (those
    in ``optional`` may be None).  pair_delta is the change in the number
    of round pairs, -1, 0 or 1 (Dehn diagrams have none).  rewrites names
    the descriptor fields that hold the indices of the pairs a round move
    rewrites or deletes: every other pair keeps its value, and its index
    unless a pair before it is deleted.  band_sums is the number of band
    sums the move adds to the knots: the slid component's knot K becomes
    band(K, cable(...)), and no move removes one.  Only a move that adds a
    band sum, the slide, changes the linking matrix.  No move changes the
    loose knots.  The search's drops read these fields (see
    bounded_equivalence_search)."""

    fn: Callable[..., Diagram]
    acts_on: type
    fields: tuple[str, ...]
    pair_delta: int = 0
    optional: tuple[str, ...] = ()
    rewrites: tuple[str, ...] = ()
    band_sums: int = 0


#: The move registry: every MoveKind and how to apply it.
MOVES: dict[MoveKind, MoveSpec] = {
    MoveKind.KIRBY1_ADD: MoveSpec(kirby1_add, DehnDiagram, ("sign",)),
    MoveKind.KIRBY1_DEL: MoveSpec(kirby1_del, DehnDiagram, ("component",)),
    MoveKind.KIRBY2_SLIDE: MoveSpec(kirby2_slide, DehnDiagram, ("component", "component2"), band_sums=1),
    MoveKind.EQ_MOVE1: MoveSpec(eq_move1, RoundDiagram, ("pair", "k"), rewrites=("pair",)),
    MoveKind.SHUFFLE_A: MoveSpec(shuffle_a, RoundDiagram, ("pair", "k"), rewrites=("pair",)),
    MoveKind.SHUFFLE_B: MoveSpec(shuffle_b, RoundDiagram, ("pair", "pair2", "k", "k2"), rewrites=("pair", "pair2")),
    MoveKind.EQ_MOVE3_ADD: MoveSpec(eq_move3_add, RoundDiagram, ("k", "delta", "sign"), pair_delta=1),
    MoveKind.EQ_MOVE3_DEL: MoveSpec(eq_move3_del, RoundDiagram, ("pair",), pair_delta=-1, rewrites=("pair",)),
    MoveKind.EQ_MOVE4: MoveSpec(
        eq_move4,
        RoundDiagram,
        ("variant", "pair", "pair2", "k"),
        optional=("pair2",),
        rewrites=("pair",),
        band_sums=1,
    ),
}

#: The registry entries of the round moves.
_ROUND_SPECS = {kind: spec for kind, spec in MOVES.items() if spec.acts_on is RoundDiagram}
#: The most band sums one round move adds.
_MOST_BAND_SUMS = max(spec.band_sums for spec in _ROUND_SPECS.values())
#: (delta, sign) of every EqMove3Add, ascending: the pair's Dehn image
#: (delta + sign, sign) is two blow-ups.
_MOVE3_ADD_ARGS = tuple(sorted((f1 - f2, f2) for f1 in _BLOW_UPS for f2 in _BLOW_UPS))


def apply_move(d: Diagram, move: MoveDescriptor) -> Diagram:
    """Apply a descriptor to a diagram.  Raises MoveError when the move's
    arguments or preconditions do not fit."""
    spec = MOVES.get(move.kind)
    if spec is None:
        raise MoveError(f"unknown move kind {move.kind!r}")
    if not isinstance(d, spec.acts_on):
        raise MoveError(f"{move.kind.value} does not apply to {type(d).__name__}")
    args = [getattr(move, name) for name in spec.fields]
    for name, value in zip(spec.fields, args):
        if value is None and name not in spec.optional:
            raise MoveError(f"move is missing argument {name!r}")
    return spec.fn(d, *args)


def apply_sequence(d: Diagram, seq: Iterable[MoveDescriptor]) -> Diagram:
    for move in seq:
        d = apply_move(d, move)
    return d


def _is_joint(p: JointPair) -> bool:
    """Whether the round moves act on p: a joint pair with integral m."""
    return p.m is not None and p.m.is_integer


def _round_moves(
    r: RoundDiagram,
    slot_ks: Sequence[Sequence[int]],
    spines: Mapping[ComponentId, Container[KnotExpr]],
    kinds: Container[MoveKind],
) -> Iterator[MoveDescriptor]:
    """Candidate round moves of the given kinds on r, in ascending sort_key
    order, on which the search's lexicographically-least contract rests.

    Every round move writes its free k into n2 of the pair it rewrites
    (ShuffleB writes k into pair2 and k2 into pair); slot_ks[i] holds the k
    values tried for pair i, and slot_ks[len(r.pairs)] those for the pair
    EqMove3Add appends, each ascending.  Every candidate is one apply_move
    accepts on r.  No EqMove1 that gives r back is yielded, no EqMove4
    whose slid component's new knot is not in spines under its id, and no
    ShuffleB with pair > pair2, whose twin builds the same diagram (drops
    2, 3 and 9 of bounded_equivalence_search).
    """
    n = len(r.pairs)
    joint = [i for i, p in enumerate(r.pairs) if _is_joint(p)]

    def on_spine(variant: str, i: int, j: int) -> bool:
        slot, _, over_slot = _EQ_MOVE4_SLIDES[variant]
        slid, over = (r.pairs[i].c1, r.pairs[i].c2)[slot], (r.pairs[j].c1, r.pairs[j].c2)[over_slot]
        knot = BandSum(slid.knot, over.knot, _dehn_framings(r.pairs[j])[over_slot])
        return knot in spines.get(slid.id, ())

    if MoveKind.EQ_MOVE1 in kinds:
        for i in joint:
            for k in slot_ks[i]:
                if k != r.pairs[i].n2:
                    yield MoveDescriptor(MoveKind.EQ_MOVE1, pair=i, k=k)
    if MoveKind.EQ_MOVE3_ADD in kinds:
        for k in slot_ks[n]:
            for delta, sign in _MOVE3_ADD_ARGS:
                yield MoveDescriptor(MoveKind.EQ_MOVE3_ADD, k=k, delta=delta, sign=sign)
    if MoveKind.EQ_MOVE3_DEL in kinds:
        for i in joint:
            if _check_move3_del(r, i) is None:
                yield MoveDescriptor(MoveKind.EQ_MOVE3_DEL, pair=i)
    if MoveKind.EQ_MOVE4 in kinds:
        for i in joint:
            if not slot_ks[i]:
                continue  # no k to write into pair i, so no slide's knot is built
            for j in (None, *joint):  # pair2=None sorts first
                if j != i:
                    for variant in _SINGLE_PAIR_VARIANTS if j is None else _DOUBLE_PAIR_VARIANTS:
                        if on_spine(variant, i, i if j is None else j):
                            for k in slot_ks[i]:
                                yield MoveDescriptor(MoveKind.EQ_MOVE4, pair=i, pair2=j, variant=variant, k=k)
    if MoveKind.SHUFFLE_A in kinds:
        for i in joint:
            for k in slot_ks[i]:
                yield MoveDescriptor(MoveKind.SHUFFLE_A, pair=i, k=k)
    if MoveKind.SHUFFLE_B in kinds:
        # pair i takes k2 as its n2 and pair j takes k
        for i in joint:
            for j in joint:
                if j > i:
                    for k1, k2 in product(slot_ks[j], slot_ks[i]):
                        yield MoveDescriptor(MoveKind.SHUFFLE_B, pair=i, pair2=j, k=k1, k2=k2)


def _gauge_class(r: RoundDiagram) -> RoundDiagram:
    """The representative of r's gauge class: every pair eq_move1 accepts
    rebuilt from its Dehn framings with n2 = 0, that is (n1 - n2, 0, m);
    other pairs as they are."""
    if not any(p.n2 != 0 and _is_joint(p) for p in r.pairs):
        return r
    pairs = [_pair_from_framings(p.c1, p.c2, _dehn_framings(p), 0) if _is_joint(p) else p for p in r.pairs]
    return RoundDiagram(pairs, r.loose, r.lk)


def _spines(goal: RoundDiagram) -> dict[ComponentId, dict[KnotExpr, int]]:
    """For each component id of goal, the knots on the left spine of its
    knot (see the module docstring), each with the number of band sums
    above it there."""
    spines: dict[ComponentId, dict[KnotExpr, int]] = {}
    for c in goal.components():
        knot, spine = c.knot, {c.knot: 0}
        while isinstance(knot, BandSum):
            knot = knot.left
            spine[knot] = len(spine)
        spines[c.id] = spine
    return spines


def _band_sum_bound(spines: dict[ComponentId, dict[KnotExpr, int]], state: RoundDiagram) -> Optional[int]:
    """The number of band sums that the knots of the goal with these spines
    (see _spines) have and state's still lack, or None when no move
    sequence carries state's knots to the goal's (drops 4 and 5 of
    bounded_equivalence_search)."""
    total = 0
    for c in state.components():
        lacks = spines.get(c.id, {UNKNOT: 0}).get(c.knot)
        if lacks is None:
            return None
        total += lacks
    for cid in spines.keys() - state.ids:
        lacks = spines[cid].get(UNKNOT)
        if lacks is None:
            return None
        total += lacks
    return total


def _is_fresh(cid: ComponentId) -> bool:
    """Whether cid has the u<n> form of every id _fresh_pair_ids gives."""
    return cid[:1] == "u" and cid[1:].isdigit()


def _start_apart(r1: RoundDiagram, r2: RoundDiagram, k_range: Iterable[int]) -> Optional[tuple[int, ...]]:
    """The k values the exact search writes (_search_ks), or None when drop
    12 or drop 13 of bounded_equivalence_search rules out every move
    sequence from r1 to r2: r2 has an id that r1 lacks and that is not of
    the fresh form, or a finished component of r1 has a Dehn framing other
    than r2's, or r2 has a pair whose n2 the k values lack and that is no
    pair of r1.  Drop 12 reads no k, so the k values are built only for a
    query that it does not end."""
    new = r2.ids - r1.ids
    if new and any(not _is_fresh(cid) for cid in new):
        return None
    # the Dehn framing and knot of each component of r2's joint pairs, keyed
    # by id, so that only a framing that differs leads to comparing knots
    framed: dict[ComponentId, tuple[int, KnotExpr]] = {}
    for p in r2.pairs:
        if _is_joint(p):
            f1, f2 = _dehn_framings(p)
            framed[p.c1.id], framed[p.c2.id] = (f1, p.c1.knot), (f2, p.c2.knot)
    for p in r1.pairs:
        if _is_joint(p):
            f1, f2 = _dehn_framings(p)
            for c, f in ((p.c1, f1), (p.c2, f2)):
                goal = framed.get(c.id)
                if goal is not None and goal[0] != f and goal[1] == c.knot and not _is_fresh(c.id):
                    return None
    ks = _search_ks(k_range, r2)
    unwritten = [p for p in r2.pairs if p.n2 not in ks]
    if unwritten and not set(r1.pairs).issuperset(unwritten):
        return None
    return ks


def _can_yield(
    state: RoundDiagram, goal: RoundDiagram, need: int, left: int, ks: Sequence[int]
) -> tuple[frozenset[MoveKind], list[Sequence[int]]]:
    """The round move kinds whose moves on state can still lead to goal
    within left more moves, read off MOVES, and the k values _round_moves
    tries in each pair slot: drops 1 and 5-8 of bounded_equivalence_search.
    Inner levels try ks in every slot.  The last level tries only goal's n2,
    if ks holds it, and only in the slots in which state differs from goal.
    need is the number of band sums the state lacks (_band_sum_bound), and
    state's loose knots are goal's."""
    if need == 0 and state.lk != goal.lk:
        return frozenset(), []
    n, delta = len(state.pairs), len(goal.pairs) - len(state.pairs)
    kinds = {
        kind
        for kind, spec in _ROUND_SPECS.items()
        if abs(delta - spec.pair_delta) <= left and 0 <= need - spec.band_sums <= left * _MOST_BAND_SUMS
    }
    if left <= 1 and MoveKind.EQ_MOVE3_ADD in kinds and not goal.ids.issuperset(_fresh_pair_ids(state)):
        kinds.remove(MoveKind.EQ_MOVE3_ADD)
    if left:
        return frozenset(kinds), [ks] * (n + 1)
    if delta < 0 and not any(state.pairs[:i] + state.pairs[i + 1 :] == goal.pairs for i in range(n)):
        return frozenset(), []
    differ = [i for i, (p, q) in enumerate(zip(state.pairs, goal.pairs)) if p != q] if delta >= 0 else []
    kinds = {kind for kind in kinds if len(MOVES[kind].rewrites) >= len(differ)}
    written = differ + [n] if delta == 1 else differ
    slot_ks = [(goal.pairs[i].n2,) if i in written and goal.pairs[i].n2 in ks else () for i in range(n + 1)]
    return frozenset(kinds), slot_ks


def _breadth_first(start: RoundDiagram, goal: RoundDiagram, depth: int, ks: Sequence[int]) -> Optional[MoveSequence]:
    """The first sequence of at most depth moves, level by level and in
    _round_moves order, that carries start to goal, which start is not;
    None if there is none.  The k values it writes are read off ks by
    _can_yield.  It applies drops 1-10 of bounded_equivalence_search."""
    spines = _spines(goal)
    need = _band_sum_bound(spines, start)
    frontier: list[tuple[RoundDiagram, MoveSequence, int]] = []
    if need is not None and start.loose == goal.loose:
        frontier.append((start, (), need))
    seen = {start}
    for level in range(depth):
        if not frontier:
            return None
        left = depth - 1 - level  # moves after this level's
        next_frontier: list[tuple[RoundDiagram, MoveSequence, int]] = []
        for state, path, need in frontier:
            kinds, slot_ks = _can_yield(state, goal, need, left, ks)
            if not kinds:
                continue
            for move in _round_moves(state, slot_ks, spines, kinds):
                new = apply_move(state, move)
                if new == goal:
                    return path + (move,)
                if left and new not in seen:
                    seen.add(new)
                    next_frontier.append((new, path + (move,), need - MOVES[move.kind].band_sums))
        frontier = next_frontier
    return None


def _search_ks(k_range: Iterable[int], goal: RoundDiagram) -> tuple[int, ...]:
    """The k values the exact search writes on its inner levels, ascending:
    the least of k_range and every n2 of goal's pairs that k_range holds; ()
    if k_range is empty.  A range is read in O(1) time; any other k_range
    is read once, as ints, and never stored."""
    wanted = {p.n2 for p in goal.pairs}
    if isinstance(k_range, range):
        if not k_range:
            return ()
        return tuple(sorted({k for k in wanted if k in k_range} | {min(k_range[0], k_range[-1])}))
    least, held = None, set()
    for k in map(int, k_range):
        if least is None or k < least:
            least = k
        if k in wanted:
            held.add(k)
    return () if least is None else tuple(sorted(held | {least}))


def bounded_equivalence_search(
    r1: RoundDiagram,
    r2: RoundDiagram,
    depth: int,
    k_range: Iterable[int],
) -> Optional[MoveSequence]:
    """Breadth-first search for a move sequence carrying r1 to a diagram
    structurally equal to r2, trying all free parameters from k_range.

    Returns the lexicographically least sequence among the shortest ones, or
    None if r2 is unreachable within the depth bound.  Absence of a result
    is not a proof of inequivalence.

    Each level applies to every state of the level before its candidate
    moves in sort_key order (_round_moves), and the first state equal to r2
    ends the search.  The search drops only moves and states that lie on no
    path reaching r2 within the depth, or only on paths that sort after one
    it keeps, and the moves kept keep their order; so its first hit is the
    one the search without the drops finds, and the contract holds.  These
    are all the drops, each with its argument:

    1. k values.  Every level but the last writes into each pair slot only
       the least k of k_range and those of r2's n2 values that k_range
       holds (_search_ks), so the cost does not grow with k_range, which
       is read at most once, only for a query that drop 12 does not end
       (_start_apart), and never stored.  Take a k that a move on an inner
       level writes into a pair.  If a later move rewrites or deletes that
       pair, it read the pair only through its Dehn framings (see the
       module docstring), as did every move in between, so the same
       sequence with the least k in its place reaches r2 as well, is as
       short, and sorts earlier unless k is the least already.  Otherwise
       the k survives as an n2 of r2, in some slot: EqMove3Del shifts the
       pairs after the one it deletes, so every slot gets the whole set.
       So the lexicographically least among the shortest sequences writes
       only these values on inner levels; any larger set would find it too.
       The last move must write r2's n2 into each pair it writes, so the
       last level writes only that, if k_range holds it.
    2. Identity regauge.  EqMove1 with k equal to the pair's n2 gives the
       state itself, which has been seen and is not r2.
    3. Slides off r2's spines.  Knots only grow along their left spines,
       one band sum per slide (see the module docstring), so a state's knot
       of an id r2 has must lie on the left spine of r2's knot for that id.
       A slide changes one knot, so its arguments alone decide whether its
       new knot is on that spine; one that is not is never applied.
    4. The start.  It is not expanded if its loose knots differ from r2's,
       since no move changes them, or if its knots cannot grow into r2's
       (_band_sum_bound is None): by drop 3's argument, and because an id
       the state lacks can only be added, as an unknot, and an id r2 lacks
       can only be deleted, and only unknots are.
    5. Band sums.  Every band sum above a state's knot on r2's spine for
       its id is one the state lacks (_band_sum_bound).  A move adds its
       kind's band_sums (MoveSpec) and keeps every other knot, so a new
       state lacks its parent's count less that.  A move is dropped when
       after it the count is below none or above what the moves left can
       add, so the last level applies only the kinds that add exactly the
       band sums the state lacks.  So a state that lacks none takes no
       slide, and only a move that adds a band sum changes the linking
       matrix (MoveSpec; EqMove3Del deletes components that link nothing):
       the state's matrix is final, and a state whose matrix differs from
       r2's is not expanded.  This holds on every level.
    6. Pair count.  A move changes the pair count by its kind's pair_delta,
       -1, 0 or 1 (MOVES), so one after which the count is further from
       r2's than the moves left is dropped.
    7. Fresh ids.  With at most one move left, an EqMove3Add whose two
       fresh ids (_fresh_pair_ids) are not both r2's is dropped.  Only
       EqMove3Del removes ids, so the last move would have to delete the
       appended pair, which gives back the state: it has been compared
       with r2 and is not r2.
    8. The last move's pairs.  The last move rewrites exactly the pairs in
       which the state differs from r2.  Every round move changes each
       pair it rewrites (MOVES declares which): EqMove1 writes a k other
       than the pair's n2 (drop 2), ShuffleA swaps the pair's two
       components, ShuffleB gives each of its pairs the other's second
       component, and EqMove4 adds a band sum to a knot.  This assumes
       that a diagram's component ids are distinct, as validate_diagram
       requires.  So a last move that rewrites a pair in which the state
       equals r2 gives no r2, and neither does one that leaves unchanged a
       pair in which the state differs.  On the last level only the slots
       of the differing pairs, and that of the pair EqMove3Add appends, get
       r2's n2 (drop 1), every other slot gets no k, and a kind that
       rewrites fewer pairs than differ is not tried.  A last move that
       keeps a linking matrix that differs adds no band sum, so the state
       lacks none and drop 5 has not expanded it.  A deletion rewrites no
       other pair, so it can yield r2 only at an index whose removal
       leaves r2's pairs; with no such index the state is not expanded.
    9. Mirrored shuffles.  ShuffleB is symmetric in its two pairs:
       shuffle_b(r, j, i, k, k2) builds the same diagram as shuffle_b(r,
       i, j, k2, k), and with i < j the second sorts first.  So ShuffleB
       is tried only with pair < pair2; its twin has built the state
       already, so no frontier changes.
    10. Seen states.  A state reached before is not expanded again: every
       path through it again is no shorter and sorts later.  States are
       compared exactly: moves address pairs by index, so a state whose
       pairs are a reordering of a seen state's reaches other diagrams and
       is kept.  The last level stores nothing, and a level with no state
       left ends the search.
    11. Gauge classes.  Above depth 1 a cheaper pass runs first: the same
       breadth-first search, drops included, from r1's gauge class to r2's
       (_gauge_class: every joint pair regauged to n2 = 0) with k = 0
       only, so the free k of a move no longer multiplies the states.
       Every round move, and every MoveError precondition of one, reads a
       joint pair only through its Dehn framings and writes it back with
       n2 = k (see the module docstring), so a move on a class is the same
       move on its representative, and with k = 0 the result is again a
       representative.  So every sequence of moves maps to a sequence of
       class moves of the same length, and when r2's class is out of reach
       within the depth no sequence reaches r2 and the result is None
       without the exact search.  Otherwise the exact search runs
       unchanged.  At depth 1 the exact search's one pruned level is
       already as cheap, so the class pass is skipped there.  The class
       pass pays for goals that the other drops admit: a goal one slide
       from r1 whose slid component's n1 is raised by 1 is unreachable,
       and at depth 4 with k in -2..2 the class pass says so after 365
       apply_move calls, where the exact search alone makes 19,491
       (tests/reference_counts.py prints both, and tests/test_moves.py
       bounds each by that count).  The out-of-reach queries of the
       benchmark's search workload no longer reach it: the start check of
       drops 12 and 13 (_start_apart) ends them before either pass, each
       by drop 12 (its goal changes one pair's m) before any k value is
       built, and with it, a search without the class pass gives the same
       listings on the workload's op sets.
    12. The frozen Dehn image, read on r1 once, before either pass and
       before any k value is built (_start_apart).  Call a component of r1
       finished when it lies in a joint pair with integral m, its id is not
       of the u<n> form of the ids _fresh_pair_ids gives, and its knot is
       r2's knot for its id, which r2 holds in a joint pair with integral
       m.  A finished component is never slid on a path to r2: the slide
       would add a band sum to its knot, which then lies off r2's spine for
       good (drop 3).  Nor is it deleted: only EqMove3Add adds ids, and
       only of the u<n> form, so its id, which r2 has, would not come back.
       Only a slide changes a Dehn framing, and only the slid component's;
       every other move keeps every Dehn framing or adds fresh components
       only (see the module docstring).  So a finished component keeps its
       Dehn framing on every path to r2, and when it differs from r2's no
       sequence reaches r2.  Neither does one when r2 has an id that r1
       lacks and that is not of the u<n> form.  A gauge class keeps every
       Dehn framing, so the drop covers the starts of both passes.  It
       reads no link: a start that lacks no band sum and whose linking
       matrix differs from r2's is not expanded (drop 5), so no move is
       applied.
    13. Unwritten pairs, read right after drop 12 (_start_apart), on the k
       values of drop 1, which are built only for a query that drop 12 does
       not end.  Every move writes a k of k_range into the n2 of each pair
       it rewrites (drop 1 keeps the search to those of ks), and no move
       changes a pair it does not rewrite: a slide changes only the slid
       component's pair and the linking matrix, EqMove3Add only appends a
       pair, and EqMove3Del only shifts the indices of the pairs after the
       one it deletes.  ks holds every n2 of r2 that k_range holds, so a
       pair of r2 whose n2 ks lacks was never written: it is a pair of r1
       carried over unchanged, though its index may shift.  When r1 has no
       equal pair, no sequence reaches r2.  The drop reads ks, not k_range,
       and it too ends the query before either pass.  Each of the two drops
       alone ends the query, so the order in which they are read does not
       change the result.  Neither drop fires when r1 equals r2: r2 then
       has no id that r1 lacks, every pair of r2 is one of r1, and every
       Dehn framing is r2's.  So the equality test may follow them, and the
       result () is unchanged.
    """
    if depth < 0:
        raise MoveError(f"depth must be non-negative, got {depth}")
    ks = _start_apart(r1, r2, k_range)
    if ks is None:
        return None
    if r1 == r2:
        return ()
    if depth > 1:
        start, goal = _gauge_class(r1), _gauge_class(r2)
        if start != goal and _breadth_first(start, goal, depth, (0,) if ks else ()) is None:
            return None
    return _breadth_first(r1, r2, depth, ks)
