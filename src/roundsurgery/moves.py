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
     (+-1)-framed unknots
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
its left spine.  The search prunes every state whose knots cannot grow
into the goal's within the moves it has left.
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


def kirby1_add(d: DehnDiagram, sign: int) -> DehnDiagram:
    """Blow up: adjoin a fresh unknot with framing +-1, unlinked from
    everything."""
    if sign not in (1, -1):
        raise MoveError(f"blow-up framing must be +1 or -1, got {sign}")
    new = FramedComponent(fresh_id("u", d.ids), UNKNOT)
    framing = dict(d.framing)
    framing[new.id] = sign
    return DehnDiagram((*d.components, new), framing, d.lk)


def kirby1_del(d: DehnDiagram, c: ComponentId) -> DehnDiagram:
    """Blow down an unlinked (+-1)-framed unknot."""
    comp = d.component(c)
    if comp.knot != UNKNOT:
        raise MoveError(f"{c} is not an unknot; cannot blow down")
    if d.framing[c] not in (1, -1):
        raise MoveError(f"{c} has framing {d.framing[c]}, expected +-1")
    linked = [x for x in sorted(d.ids) if x != c and d.lk.get(c, x) != 0]
    if linked:
        raise MoveError(f"{c} links {', '.join(linked)}; cannot blow down")
    framing = {k: v for k, v in d.framing.items() if k != c}
    keep = [x for x in d.components if x.id != c]
    return DehnDiagram(keep, framing, d.lk.restricted(k for k in d.ids if k != c))


def _slide(
    lk: LinkingMatrix, ids: Iterable[ComponentId], a: FramedComponent, na: int, b: FramedComponent, nb: int
) -> tuple[FramedComponent, int, LinkingMatrix]:
    """a's component and framing, and the linking matrix, after the handle
    slide of a, framed na, over b, framed nb (see kirby2_slide)."""
    ab = lk.get(a.id, b.id)
    updates = {(a.id, x): lk.get(a.id, x) + lk.get(b.id, x) for x in ids if x not in (a.id, b.id)}
    updates[(a.id, b.id)] = ab + nb
    slid = FramedComponent(a.id, BandSum(a.knot, b.knot, nb), a.fibred)
    return slid, na + nb + 2 * ab, lk.with_entries(updates)


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
    if sign not in (1, -1) or delta + sign not in (1, -1):
        raise MoveError(
            f"(delta, sign) = ({delta}, {sign}) does not yield +-1 Dehn framings"
        )
    u1 = fresh_id("u", r.ids)
    u2 = fresh_id("u", set(r.ids) | {u1})
    pair = _pair_from_framings(FramedComponent(u1, UNKNOT), FramedComponent(u2, UNKNOT), (delta + sign, sign), k)
    return RoundDiagram((*r.pairs, pair), r.loose, r.lk)


def _check_move3_del(r: RoundDiagram, index: int) -> JointPair:
    """The preconditions of eq_move3_del: pair ``index`` is two unlinked
    unknots whose Dehn framings are both +-1, that is two blow-downs.
    Returns the pair, or raises MoveError naming the first that fails."""
    p, (f1, f2) = _joint(r, index)
    if p.c1.knot != UNKNOT or p.c2.knot != UNKNOT:
        raise MoveError(f"pair {index} is not a pair of unknots")
    if f2 not in (1, -1):
        raise MoveError(f"pair {index} has coefficient {f2}, expected +-1")
    if f1 not in (1, -1):
        raise MoveError(
            f"pair {index} coefficients ({p.n1}, {p.n2}, {f2}) do not match "
            "the (k + delta, k, +-1) pattern"
        )
    for cid in (p.c1.id, p.c2.id):
        linked = [x for x in sorted(r.ids) if x != cid and r.lk.get(cid, x) != 0]
        if linked:
            raise MoveError(f"{cid} links {', '.join(linked)}; cannot delete the pair")
    return p


def _deletable(r: RoundDiagram, index: int) -> bool:
    try:
        _check_move3_del(r, index)
    except MoveError:
        return False
    return True


def eq_move3_del(r: RoundDiagram, pair_index: int) -> RoundDiagram:
    """Delete a pair matching the eq_move3_add pattern: two unlinked unknots
    whose Dehn framings are both +-1."""
    p = _check_move3_del(r, pair_index)
    pairs = [q for t, q in enumerate(r.pairs) if t != pair_index]
    keep = r.ids - {p.c1.id, p.c2.id}
    return RoundDiagram(pairs, r.loose, r.lk.restricted(keep))


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
    of round pairs (Dehn diagrams have none).  rewrites names the
    descriptor fields that hold the indices of the pairs a round move
    rewrites or deletes: every other pair keeps its value, and its index
    unless a pair before it is deleted.  rewrites_lk says whether the
    result's linking matrix can differ from the input's.  band_sums is the
    number of band sums the move adds to the knots: the slid component's
    knot K becomes band(K, cable(...)), and no move removes one.  No move
    changes the loose knots.  The search's last level relies on pair_delta,
    rewrites, rewrites_lk and band_sums, and its inner levels on band_sums
    (see bounded_equivalence_search).  Both only skip moves and states from
    which the goal cannot be reached within the depth, so the first hit in
    sort_key order is the one the unpruned search finds."""

    fn: Callable[..., Diagram]
    acts_on: type
    fields: tuple[str, ...]
    pair_delta: int = 0
    optional: tuple[str, ...] = ()
    rewrites: tuple[str, ...] = ()
    rewrites_lk: bool = False
    band_sums: int = 0


#: The move registry: every MoveKind and how to apply it.
MOVES: dict[MoveKind, MoveSpec] = {
    MoveKind.KIRBY1_ADD: MoveSpec(kirby1_add, DehnDiagram, ("sign",)),
    MoveKind.KIRBY1_DEL: MoveSpec(kirby1_del, DehnDiagram, ("component",)),
    MoveKind.KIRBY2_SLIDE: MoveSpec(
        kirby2_slide, DehnDiagram, ("component", "component2"), rewrites_lk=True, band_sums=1
    ),
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
        rewrites_lk=True,
        band_sums=1,
    ),
}

#: The most band sums one round move adds.
_MOST_BAND_SUMS = max(spec.band_sums for spec in MOVES.values() if spec.acts_on is RoundDiagram)


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
    kinds: Optional[frozenset[MoveKind]] = None,
) -> Iterator[MoveDescriptor]:
    """Candidate round moves on r, in ascending sort_key order so that
    breadth-first search returns the lexicographically least sequence among
    the shortest ones.

    Every round move writes its free k into n2 of the pair it rewrites
    (ShuffleB writes k into pair2 and k2 into pair); slot_ks[i] holds the k
    values tried for pair i, and slot_ks[len(r.pairs)] those for the pair
    EqMove3Add appends, each ascending: on inner levels of the search the
    few values of _search_ks, so ShuffleB's (k, k2) product stays small.
    When kinds is given, only moves of those kinds are yielded.  Every
    candidate is one apply_move accepts on r.

    Two kinds of candidate are never yielded, because the search would
    drop what they build: EqMove1 with k equal to the pair's n2, which
    yields r itself, and an EqMove4 whose slid component's new knot is not
    in spines under its id (the goal's spines, see _spines), so that the
    state it builds cannot grow into the goal.
    """
    n = len(r.pairs)
    joint = [_is_joint(p) for p in r.pairs]

    def wanted(kind: MoveKind) -> bool:
        return kinds is None or kind in kinds

    def on_spine(variant: str, i: int, j: int) -> bool:
        slot, _, over_slot = _EQ_MOVE4_SLIDES[variant]
        slid, over = (r.pairs[i].c1, r.pairs[i].c2)[slot], (r.pairs[j].c1, r.pairs[j].c2)[over_slot]
        knot = BandSum(slid.knot, over.knot, _dehn_framings(r.pairs[j])[over_slot])
        return knot in spines.get(slid.id, ())

    if wanted(MoveKind.EQ_MOVE1):
        for i in range(n):
            if joint[i]:
                for k in slot_ks[i]:
                    if k != r.pairs[i].n2:
                        yield MoveDescriptor(MoveKind.EQ_MOVE1, pair=i, k=k)
    if wanted(MoveKind.EQ_MOVE3_ADD):
        for k in slot_ks[n]:
            for delta, sign in ((-2, 1), (0, -1), (0, 1), (2, -1)):
                yield MoveDescriptor(MoveKind.EQ_MOVE3_ADD, k=k, delta=delta, sign=sign)
    if wanted(MoveKind.EQ_MOVE3_DEL):
        for i in range(n):
            if _deletable(r, i):
                yield MoveDescriptor(MoveKind.EQ_MOVE3_DEL, pair=i)
    if wanted(MoveKind.EQ_MOVE4):
        for i in range(n):
            if not joint[i]:
                continue
            for variant in _SINGLE_PAIR_VARIANTS:
                if on_spine(variant, i, i):
                    for k in slot_ks[i]:
                        yield MoveDescriptor(MoveKind.EQ_MOVE4, pair=i, variant=variant, k=k)
            for j in range(n):
                if j == i or not joint[j]:
                    continue
                for variant in _DOUBLE_PAIR_VARIANTS:
                    if on_spine(variant, i, j):
                        for k in slot_ks[i]:
                            yield MoveDescriptor(MoveKind.EQ_MOVE4, pair=i, pair2=j, variant=variant, k=k)
    if wanted(MoveKind.SHUFFLE_A):
        for i in range(n):
            if joint[i]:
                for k in slot_ks[i]:
                    yield MoveDescriptor(MoveKind.SHUFFLE_A, pair=i, k=k)
    if wanted(MoveKind.SHUFFLE_B):
        # pair i takes k2 as its n2 and pair j takes k
        for i in range(n):
            if not joint[i]:
                continue
            for j in range(n):
                if j == i or not joint[j]:
                    continue
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


def _band_sum_bound(spines: dict[ComponentId, dict[KnotExpr, int]]) -> Callable[[RoundDiagram], Optional[int]]:
    """Given a goal's spines (see _spines), a function giving, for a state,
    the number of band sums goal's knots have that the state's still lack,
    or None when no move sequence carries the state to goal.

    Knots only grow along their left spine (see the module docstring), so
    the state's knot of an id goal has must lie on the left spine of goal's
    knot, and every band sum above it there is one the state lacks.  An id
    the state lacks can only be added, as an unknot; an id goal lacks can
    only be deleted, and only unknots are.
    """
    goal_ids = frozenset(spines)
    deletable = {UNKNOT: 0}

    def bound(state: RoundDiagram) -> Optional[int]:
        total = 0
        for c in state.components():
            lacks = spines.get(c.id, deletable).get(c.knot)
            if lacks is None:
                return None
            total += lacks
        for cid in goal_ids - state.ids:
            lacks = spines[cid].get(UNKNOT)
            if lacks is None:
                return None
            total += lacks
        return total

    return bound


def _can_yield(
    state: RoundDiagram, goal: RoundDiagram, need: int
) -> tuple[frozenset[MoveKind], Callable[[MoveDescriptor], bool]]:
    """The round move kinds whose result can equal goal, read off MOVES, and
    a test that every such move passes; need is the number of band sums the
    state lacks (see _band_sum_bound).

    A move cannot yield goal when it leaves unchanged something in which
    state differs from goal: the pair count, the loose knots, the linking
    matrix unless its kind rewrites it, or a pair at an index it does not
    rewrite.  A kind that deletes a pair rewrites no other, so it can yield
    goal only at an index i where state.pairs without pair i are goal's
    pairs; if there is none, no kind is named.  Nor can a move yield goal
    when it adds other than need band sums: fewer leave a knot short of
    goal's, and more put one off goal's spine.
    """
    if state.loose != goal.loose:
        return frozenset(), lambda move: False
    delta = len(goal.pairs) - len(state.pairs)
    if delta < 0:
        at = {i for i in range(len(state.pairs)) if state.pairs[:i] + state.pairs[i + 1 :] == goal.pairs}
        if not at:
            return frozenset(), lambda move: False
    same_lk = state.lk == goal.lk
    differ = [i for i, (p, q) in enumerate(zip(state.pairs, goal.pairs)) if p != q] if delta >= 0 else []
    rewrites = {
        kind: spec.rewrites
        for kind, spec in MOVES.items()
        if spec.acts_on is RoundDiagram
        and spec.pair_delta == delta
        and spec.band_sums == need
        and (same_lk or spec.rewrites_lk)
        and len(spec.rewrites) >= len(differ)
    }

    def test(move: MoveDescriptor) -> bool:
        rewritten = [getattr(move, name) for name in rewrites[move.kind]]
        return rewritten[0] in at if delta < 0 else all(i in rewritten for i in differ)

    return frozenset(rewrites), test


def _breadth_first(start: RoundDiagram, goal: RoundDiagram, depth: int, ks: Sequence[int]) -> Optional[MoveSequence]:
    """The first sequence of at most depth moves, level by level and in
    _round_moves order, that carries start to goal; None if there is none.
    Inner levels write every k of ks (ascending; the exact search passes
    _search_ks) into every pair slot.  A state reached before is not
    expanded again, nor is one that lacks more band sums of goal than the
    moves left can add, or cannot reach goal at all (_band_sum_bound); an
    empty level ends the search.  The last level stores nothing, tries only
    the kinds _can_yield names and the moves its test passes, and writes
    into each pair slot only goal's n2 there, if ks holds it.  _round_moves
    yields no identity regauge and no slide off goal's spines, whose states
    would be dropped."""
    spines = _spines(goal)
    bound = _band_sum_bound(spines)
    goal_ks = [(p.n2,) if p.n2 in ks else () for p in goal.pairs]
    need = bound(start)
    frontier: list[tuple[RoundDiagram, MoveSequence, int]] = []
    if need is not None and need <= depth * _MOST_BAND_SUMS:
        frontier.append((start, (), need))
    seen = {start}
    for level in range(depth):
        if not frontier:
            return None
        left = depth - 1 - level  # moves after this level's
        next_frontier: list[tuple[RoundDiagram, MoveSequence, int]] = []
        for state, path, need in frontier:
            n = len(state.pairs)
            if left:
                moves = _round_moves(state, [ks] * (n + 1), spines)
            else:
                kinds, test = _can_yield(state, goal, need)
                slot_ks = goal_ks + [()] * (n + 1 - len(goal_ks))
                moves = filter(test, _round_moves(state, slot_ks, spines, kinds)) if kinds else ()
            for move in moves:
                new = apply_move(state, move)
                if new == goal:
                    return path + (move,)
                if left:
                    lacks = bound(new)
                    if lacks is not None and lacks <= left * _MOST_BAND_SUMS and new not in seen:
                        seen.add(new)
                        next_frontier.append((new, path + (move,), lacks))
        frontier = next_frontier
    return None


def _class_reachable(r1: RoundDiagram, r2: RoundDiagram, depth: int, ks: Sequence[int]) -> bool:
    """Whether at most depth moves with free parameters from ks can carry
    r1's gauge class to r2's.

    Every move reads a joint pair only through its Dehn framings, so a move
    on a class is the same move on its representative, and it writes its
    free k only into n2: with k = 0 the result is again a representative.
    """
    start, goal = _gauge_class(r1), _gauge_class(r2)
    return start == goal or _breadth_first(start, goal, depth, (0,) if ks else ()) is not None


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

    Every level but the last tries only the least k of k_range and those of
    r2's n2 values that k_range holds, in every pair slot (_search_ks); the
    cost does not grow with k_range, which is read once and never stored.
    Take a k that a move on an inner level writes into a pair.  If a later
    move rewrites or deletes that pair, it read the pair only through its
    Dehn framings (see the module docstring), as did every move in between,
    so the same sequence with the least k in its place reaches r2 as well,
    is as short, and sorts earlier unless k is the least already.
    Otherwise the k survives as an n2 of r2, in some slot: EqMove3Del
    shifts the pairs after the one it deletes, so every slot gets the whole
    set.  So the lexicographically least among the shortest sequences
    writes only these values on inner levels, and the search finds it; any
    larger set of values would too.

    The last level tries only the moves whose result can be r2.  A move
    cannot yield r2 when it leaves unchanged something in which the state
    differs from r2: the pair count, the loose knots (no move touches
    them), the linking matrix when its kind does not rewrite it, or a pair
    at an index it does not rewrite; MOVES declares what each kind
    rewrites.  A deletion rewrites only the pair it deletes, so it can
    yield r2 only at an index whose removal leaves r2's pairs.  Nor can a
    move yield r2 when it writes into a pair an n2 other than r2's.  The
    survivors keep their sort_key order and every move skipped could not
    have matched, so the first hit is the one the unpruned level would
    find, and the result is still the lexicographically least.

    Knots only grow along their left spines, one band sum per slide (see
    the module docstring), so every level also counts the band sums of
    r2's knots that a state lacks.  A state whose knots cannot grow into
    r2's, or that lacks more band sums than the moves left can add
    (MoveSpec.band_sums), is not expanded, and the last level applies only
    the kinds that add exactly the band sums the state lacks.  A slide
    changes one knot, so its arguments alone decide the first test: a
    slide whose new knot is off r2's spine for its id is never applied.
    When the new knot is on the spine, the state lacks one band sum fewer
    than the state it came from, and the second test holds too.  A pruned
    state lies on no path that reaches r2 within the depth, and the states
    kept keep their order, so the first hit, and the result, are the same
    as without the prune.  A level with no state left ends the search.

    A state reached before is not expanded again.  States are compared
    exactly: moves address pairs by index, so a state whose pairs are a
    reordering of a seen state's reaches other diagrams and is kept.
    EqMove1 with k equal to the pair's n2 gives the state itself, which
    has been seen and is not r2, so it is never applied.

    Above depth 1 a cheaper pass runs first: the same breadth-first search
    from r1's gauge class to r2's (every joint pair regauged to n2 = 0)
    with k = 0 only, so the free k of a move no longer multiplies the
    states.  Every round move, and every MoveError precondition of one,
    reads a joint pair only through its Dehn framings and writes it back
    with n2 = k (see the module docstring).  So every sequence of moves
    maps to a sequence of class moves of the same length, and when r2's
    class is out of reach within the depth no sequence reaches r2 and the
    result is None without the exact search.
    Otherwise the exact search above runs unchanged, so its result, and the
    lexicographically-least contract, are the same as without the class
    pass.  At depth 1 the exact search's one pruned level is already as
    cheap, so the class pass is skipped there.  The class pass still pays
    with the prunes above: without it the benchmark's search workload ran
    at 1,958 queries/s instead of 3,534 (three alternating 30 s pairs,
    seed 41), because its out-of-reach queries end there.
    """
    if depth < 0:
        raise MoveError(f"depth must be non-negative, got {depth}")
    ks = _search_ks(k_range, r2)
    if r1 == r2:
        return ()
    if depth == 0 or (depth > 1 and not _class_reachable(r1, r2, depth, ks)):
        return None
    return _breadth_first(r1, r2, depth, ks)
