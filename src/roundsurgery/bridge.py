"""Exact conversions between round surgery diagrams and other presentations.

A joint pair with round 1-surgery coefficients (n1, n2) and integral round
2-surgery coefficient m presents the same 3-manifold as integral Dehn surgery
on the same link with framing n1 - n2 + m on the first component and m on the
second.  That correspondence is exact and invertible, which is what makes a
diagram calculus on joint pairs possible.  It is spelled once, by
_dehn_framings and _pair_from_framings, which the conversions here and every
round move read and write joint pairs through.

A pure round 1-surgery pair (no round 2-surgery coefficient) instead
corresponds to a 4-manifold handle picture with one 1-handle and one
2-handle; the import/export functions for that case round out the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .model import (
    BandSum,
    ComponentId,
    DehnDiagram,
    FramedComponent,
    JointPair,
    KnotExpr,
    LinkingMatrix,
    Rational,
    RoundDiagram,
    SurgeryError,
    UNKNOT,
    _knot_violations,
    _lk_violations,
    _Diagram,
    fresh_id,
)

HandleId = str


class BridgeError(SurgeryError):
    """Input diagram is outside the domain of a conversion."""


# ---------------------------------------------------------------------------
# Kirby diagrams (one 1-handle + 2-handles), the export target for pure
# round 1-surgery pairs.


@dataclass(frozen=True)
class TwoHandle:
    """A 2-handle: attaching knot, framing, and how many strands of the
    attaching circle run over each 1-handle (orientation-agreeing count).
    Canonical when built: run-over entries are kept sorted with zero counts
    dropped, and a 1-handle named twice raises SurgeryError."""

    id: ComponentId
    knot: KnotExpr
    framing: int
    runs_over: tuple[tuple[HandleId, int], ...] = ()

    def __post_init__(self):
        given = sorted((h, int(c)) for h, c in self.runs_over)
        for (h, _), (next_h, _) in zip(given, given[1:]):
            if h == next_h:
                raise SurgeryError(f"2-handle {self.id}: duplicate run-over entry for {h}")
        object.__setattr__(self, "runs_over", tuple((h, c) for h, c in given if c != 0))


class KirbyDiagram(_Diagram):
    """Handles of index 1 and 2; linking is recorded between 2-handle
    attaching circles only."""

    __slots__ = ("one_handles", "two_handles", "lk")

    def __init__(
        self,
        one_handles: Iterable[HandleId] = (),
        two_handles: Iterable[TwoHandle] = (),
        lk: Optional[LinkingMatrix] = None,
    ):
        self.one_handles = tuple(sorted(one_handles))
        self.two_handles = tuple(sorted(two_handles, key=lambda h: h.id))
        self.lk = lk if lk is not None else LinkingMatrix()
        self._set_key((self.one_handles, self.two_handles, self.lk))

    def __repr__(self) -> str:
        return f"KirbyDiagram(one_handles={len(self.one_handles)}, two_handles={len(self.two_handles)})"


def validate_kirby(k: KirbyDiagram) -> list[str]:
    """The id and type checks of validate_diagram, for a Kirby diagram."""
    out: list[str] = []
    seen: set[str] = set()
    for hid in k.one_handles:
        if hid in seen:
            out.append(f"handle {hid}: duplicate id")
        seen.add(hid)
    for h in k.two_handles:
        if h.id in seen:
            out.append(f"handle {h.id}: duplicate id")
        seen.add(h.id)
        out.extend(_knot_violations(h.knot, f"2-handle {h.id}"))
        for hid, _count in h.runs_over:
            if hid not in k.one_handles:
                out.append(f"2-handle {h.id}: runs over unknown 1-handle {hid}")
    out.extend(_lk_violations(k.lk, frozenset(h.id for h in k.two_handles)))
    return out


# ---------------------------------------------------------------------------
# Joint pairs <-> integral Dehn diagrams


def _dehn_framings(p: JointPair) -> tuple[int, int]:
    """The Dehn framings (n1 - n2 + m, m) of joint pair p; m must be integral."""
    m = p.m.p
    return p.n1 - p.n2 + m, m


def _pair_from_framings(
    c1: FramedComponent, c2: FramedComponent, framings: tuple[int, int], k: int
) -> JointPair:
    """The joint pair (f1 - f2 + k, k, m = f2) on c1 and c2, whose Dehn
    framings are (f1, f2) for every k, the gauge freedom of joint pairs."""
    f1, f2 = framings
    return JointPair(c1, f1 - f2 + k, c2, k, Rational(f2))


def joint_pair_to_dehn(r: RoundDiagram) -> DehnDiagram:
    """Convert a round surgery diagram of joint pairs to the corresponding
    integral Dehn diagram on the same link.

    Pair i with coefficients (n1, n2, m) yields framing n1 - n2 + m on its
    first component and m on its second; linking numbers carry over
    unchanged.  Every pair must carry a finite integral m.
    """
    if r.loose:
        ids = ", ".join(l.component.id for l in r.loose)
        raise BridgeError(
            f"loose round 2-surgery knots ({ids}) give a disconnected manifold; "
            "split them off first"
        )
    framing: dict[ComponentId, int] = {}
    components: list[FramedComponent] = []
    for i, p in enumerate(r.pairs):
        if p.m is None:
            raise BridgeError(f"pair {i} ({p.c1.id}, {p.c2.id}) has no round 2-surgery coefficient")
        if p.m.is_infinite:
            raise BridgeError(
                f"pair {i} has coefficient 1/0; the diagram is trivial there "
                "(see analysis.is_trivial), not an integral Dehn surgery"
            )
        if not p.m.is_integer:
            raise BridgeError(f"pair {i} has non-integral coefficient {p.m}")
        components.append(p.c1)
        components.append(p.c2)
        framing[p.c1.id], framing[p.c2.id] = _dehn_framings(p)
    return DehnDiagram(components, framing, r.lk)


def dehn_to_joint_pairs(
    d: DehnDiagram, k_choices: list[int], pad_sign: int = 1
) -> RoundDiagram:
    """Convert an integral Dehn diagram to a round surgery diagram of joint
    pairs.

    Components are paired two at a time in id order; a pair with framings
    (f1, f2) becomes the joint pair (f1 - f2 + k, k, m = f2), where k is the
    caller's free choice for that pair.  An odd component count is padded
    with a fresh unlinked unknot framed ``pad_sign`` before pairing.
    Converting the result back yields ``d`` again (plus the padding unknot,
    if any) for every choice of k.
    """
    if pad_sign not in (1, -1):
        raise BridgeError(f"pad_sign must be +1 or -1, got {pad_sign}")
    comps = list(d.components)
    framing = dict(d.framing)
    if len(comps) % 2 == 1:
        pad = FramedComponent(fresh_id("u", d.ids), UNKNOT)
        comps.append(pad)
        framing[pad.id] = pad_sign
    n_pairs = len(comps) // 2
    if len(k_choices) != n_pairs:
        raise BridgeError(f"need {n_pairs} k choices, got {len(k_choices)}")
    pairs = []
    for i in range(n_pairs):
        c1, c2 = comps[2 * i], comps[2 * i + 1]
        pairs.append(_pair_from_framings(c1, c2, (framing[c1.id], framing[c2.id]), k_choices[i]))
    return RoundDiagram(pairs, (), d.lk)


# ---------------------------------------------------------------------------
# Pure round 1-surgery pairs <-> Kirby diagrams


def round1_to_kirby(r: RoundDiagram) -> KirbyDiagram:
    """Export a single pure round 1-surgery pair as a Kirby diagram.

    The two components fuse into one 2-handle attaching circle running twice
    over a single 1-handle (strand orientations agreeing), and the fused
    circle gets framing n1 + n2 + 2*lk(c1, c2).
    """
    if r.loose:
        raise BridgeError("loose round 2-surgery knots have no Kirby export")
    if len(r.pairs) != 1:
        raise BridgeError(f"expected exactly one round 1-surgery pair, got {len(r.pairs)}")
    p = r.pairs[0]
    if p.m is not None:
        raise BridgeError(
            f"pair ({p.c1.id}, {p.c2.id}) carries a round 2-surgery coefficient; "
            "use joint_pair_to_dehn"
        )
    handle = fresh_id("h", r.ids)
    fused = TwoHandle(
        id=p.c1.id,
        knot=BandSum(p.c1.knot, p.c2.knot, p.n2),
        framing=p.n1 + p.n2 + 2 * r.lk.get(p.c1.id, p.c2.id),
        runs_over=((handle, 2),),
    )
    return KirbyDiagram((handle,), (fused,), LinkingMatrix())


def kirby_to_round1(k: KirbyDiagram) -> RoundDiagram:
    """Import a Kirby diagram with one 1-handle and one independently
    attached 2-handle (framing n) as the pure round 1-surgery pair
    (unknot with coefficient 0, attaching knot with coefficient n), with the
    two components unlinked."""
    if len(k.one_handles) != 1:
        raise BridgeError(f"expected exactly one 1-handle, got {len(k.one_handles)}")
    if len(k.two_handles) != 1:
        raise BridgeError(f"expected exactly one 2-handle, got {len(k.two_handles)}")
    h = k.two_handles[0]
    if any(count != 0 for _hid, count in h.runs_over):
        raise BridgeError(
            f"2-handle {h.id} runs over the 1-handle; the handles are not "
            "independently attached"
        )
    unknot = FramedComponent(fresh_id("u", {h.id}), UNKNOT)
    pair = JointPair(unknot, 0, FramedComponent(h.id, h.knot), h.framing, None)
    return RoundDiagram((pair,), (), LinkingMatrix())
