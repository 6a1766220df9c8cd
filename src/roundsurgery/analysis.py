"""Diagram-level predicates and the slope arithmetic for taut foliations.

A pure round 1-surgery on a fibred two-component link with equal
coefficients n extends the fibration's foliation across the glued thickened
torus along the boundary slope lk(c1, c2) - n.  Since the surgered manifold
is the same for every n, each integer n yields its own foliation, and any of
them perturbs to a tight contact structure.  This module only does the
bookkeeping: hypotheses are gated on the diagram's flags and coefficients,
never inferred.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .model import RoundDiagram, SurgeryError


class AnalysisError(SurgeryError):
    """A predicate was asked about a diagram outside its domain."""


@dataclass(frozen=True)
class FoliationWitness:
    """One taut foliation on the surgered manifold: the coefficient n it is
    built from and the boundary slope lk - n it induces."""

    pair_index: int
    n: int
    slope: int


@dataclass(frozen=True)
class FoliationRefusal:
    """A failed hypothesis, returned (not raised) by taut_foliation_family."""

    reason: str


FoliationResult = Union[list[FoliationWitness], FoliationRefusal]


def is_trivial(r: RoundDiagram) -> bool:
    """True when the round 2-surgery coefficient of every pair is 1/0 (the
    pairs' surgery then gives back the 3-sphere).  Vacuously true when there
    are no pairs.  Only pairs are read: loose knots, each of which adds a
    disconnected summand (see LooseKnot), are ignored."""
    for i, p in enumerate(r.pairs):
        if p.m is None:
            raise AnalysisError(f"pair {i} ({p.c1.id}, {p.c2.id}) has no round 2-surgery coefficient")
    return all(p.m.is_infinite for p in r.pairs)


def split_connected_sum(r: RoundDiagram) -> list[RoundDiagram]:
    """Partition the diagram into its split summands.

    Two components belong to the same summand when they are connected in the
    graph whose edges are pair membership and nonzero linking numbers.  A
    summand consisting of a single loose round 2-surgery knot is a
    disconnected factor of the surgered manifold.  Nonzero linking is an
    algebraic criterion only: geometrically split sublinks with vanishing
    linking numbers stay merged with nothing, but linked-looking ones are
    never split.
    """
    parent: dict[str, str] = {c.id: c.id for c in r.components()}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for p in r.pairs:
        union(p.c1.id, p.c2.id)
    for (a, b), _v in r.lk.items():
        union(a, b)

    blocks: dict[str, tuple[list, list]] = {}  # in order of first appearance
    for p in r.pairs:
        blocks.setdefault(find(p.c1.id), ([], []))[0].append(p)
    for l in r.loose:
        blocks.setdefault(find(l.component.id), ([], []))[1].append(l)

    out = []
    for pairs, loose in blocks.values():
        ids = {c.id for p in pairs for c in (p.c1, p.c2)} | {l.component.id for l in loose}
        out.append(RoundDiagram(pairs, loose, r.lk.restricted(ids)))
    return out


def suture_slope(r: RoundDiagram, pair_index: int) -> FoliationWitness:
    """The boundary slope lk(c1, c2) - n along which a foliation can extend,
    for a pair with the same coefficient n on both components."""
    p = r.pair(pair_index)
    if p.n1 != p.n2:
        raise AnalysisError(
            f"pair {pair_index} has coefficients ({p.n1}, {p.n2}); the slope "
            "needs the same coefficient on both components"
        )
    lk = r.lk.get(p.c1.id, p.c2.id)
    return FoliationWitness(pair_index, p.n1, lk - p.n1)


def taut_foliation_family(
    r: RoundDiagram, pair_index: int, n_values: Iterable[int]
) -> FoliationResult:
    """Witnesses for one taut foliation per requested n, or the failed
    hypothesis.

    Requires both components of the pair to be flagged fibred and the pair's
    coefficients to agree; the surgered manifold is then independent of the
    common coefficient, so every integer n contributes a foliation of slope
    lk - n.
    """
    result = iter_taut_foliation_family(r, pair_index, n_values)
    return result if isinstance(result, FoliationRefusal) else list(result)


def iter_taut_foliation_family(
    r: RoundDiagram, pair_index: int, n_values: Iterable[int]
) -> Union[Iterator[FoliationWitness], FoliationRefusal]:
    """taut_foliation_family with each witness made as the result is
    iterated, so memory does not grow with the range of n.  The pair index
    and the hypotheses are checked at the call, before any witness."""
    p = r.pair(pair_index)
    if not (p.c1.fibred and p.c2.fibred):
        return FoliationRefusal("not fibred")
    if p.n1 != p.n2:
        return FoliationRefusal("coefficients differ")
    lk = r.lk.get(p.c1.id, p.c2.id)
    return (FoliationWitness(pair_index, n, lk - n) for n in n_values)


def tight_contact_exists(r: RoundDiagram, pair_index: int) -> bool:
    """True when the pair admits at least one taut foliation witness (each
    perturbs to a tight contact structure)."""
    p = r.pair(pair_index)
    return not isinstance(iter_taut_foliation_family(r, pair_index, (p.n1,)), FoliationRefusal)
