"""Shared data model for round and Dehn surgery diagrams.

A diagram here is a framed link in the 3-sphere described purely
combinatorially: knot types are opaque expression trees, and all geometric
content lives in integer framings, rational round 2-surgery coefficients and
the symmetric matrix of pairwise linking numbers.  Equality is value
equality: two knots are equal when their expressions are, and two diagrams
when their parts are, with no attempt to decide isotopy.  The canonical
text of :mod:`roundsurgery.textio` is the normal form of that equality.

Every value is immutable after construction, and canonical when built: a
knot is an atom or a band sum, a coefficient is a slope in lowest terms, and
a linking matrix holds only its nonzero entries, with no diagonal entry or
pair given two values; building anything else raises SurgeryError.  A
diagram accepts any component ids, framings and linking ids, so that
:func:`validate_diagram`, which checks ids and types only, can report a
problem instead of a constructor hiding it; operations in the other modules
assume their inputs validate cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Union

ComponentId = str


class SurgeryError(Exception):
    """An operation was applied to a diagram that violates its preconditions."""


class UnknownComponentError(SurgeryError):
    """A referenced component id is not present in the diagram."""


# ---------------------------------------------------------------------------
# Knot expressions


@dataclass(frozen=True)
class Atom:
    """An opaque knot type, identified by its label alone."""

    label: str


@dataclass(frozen=True)
class BandSum:
    """Band connected sum of ``left`` with the framing curve of ``of``: a
    parallel push-off of ``of`` with linking number ``framing`` against it."""

    left: "KnotExpr"
    of: "KnotExpr"
    framing: int


KnotExpr = Union[Atom, BandSum]

#: The conventional label for an unknotted component.  Moves that require an
#: unknot (blow-downs, padding components) recognise exactly this atom.
UNKNOT = Atom("unknot")


def _knot_violations(expr: object, where: str) -> list[str]:
    if isinstance(expr, Atom):
        return []
    if isinstance(expr, BandSum):
        return _knot_violations(expr.of, where) + _knot_violations(expr.left, where)
    return [f"{where}: not a knot expression"]


# ---------------------------------------------------------------------------
# Surgery coefficients


@dataclass(frozen=True)
class Rational:
    """A surgery slope p/q in lowest terms, with q >= 0; 1/0 is the only
    infinite slope.  Any other p, q raises SurgeryError, so that equal
    slopes are equal values."""

    p: int
    q: int = 1

    def __post_init__(self):
        if self.q == 1:  # every slope the search builds
            return
        p, q = self.p, self.q
        if q < 0:
            raise SurgeryError(f"denominator of {p}/{q} is negative")
        if q == 0 and p != 1:
            raise SurgeryError(f"infinity slope must be written 1/0, got {p}/0")
        if q and math.gcd(p, q) != 1:
            raise SurgeryError(f"coefficient {p}/{q} is not reduced")

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    @property
    def is_integer(self) -> bool:
        return self.q == 1

    def __str__(self) -> str:
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"


# ---------------------------------------------------------------------------
# Components and linking


@dataclass(frozen=True)
class FramedComponent:
    """One link component.  ``fibred`` is caller-supplied metadata consumed
    by the analysis module; it is never inferred."""

    id: ComponentId
    knot: KnotExpr
    fibred: bool = False


class LinkingMatrix:
    """Pairwise linking numbers keyed by unordered component pairs, in
    canonical form: one store of the nonzero entries, symmetric and sorted
    by unordered key.  An entry may be given twice with the same value; a
    diagonal entry, or one pair given two values, raises SurgeryError.
    """

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Iterable[tuple[ComponentId, ComponentId, int]] = ()):
        given: dict[tuple[ComponentId, ComponentId], int] = {}
        for a, b, v in entries:
            if a == b:
                raise SurgeryError(f"lk({a}, {a}): diagonal entries are not allowed (framings live on diagrams)")
            key = (a, b) if a <= b else (b, a)
            v = int(v)
            if given.setdefault(key, v) != v:
                raise SurgeryError(f"lk({key[0]}, {key[1]}): conflicting asymmetric entries")
        self._entries = {key: given[key] for key in sorted(given) if given[key]}
        # made on first use and kept: most matrices built are shared by many
        # diagrams, whose keys hold the matrix
        self._hash = None

    def get(self, a: ComponentId, b: ComponentId) -> int:
        key = (a, b) if a <= b else (b, a)
        return self._entries.get(key, 0)

    def items(self) -> Iterator[tuple[tuple[ComponentId, ComponentId], int]]:
        """Nonzero entries, sorted by unordered key."""
        return iter(self._entries.items())

    def restricted(self, keep: Iterable[ComponentId]) -> "LinkingMatrix":
        keep = set(keep)
        return LinkingMatrix(
            (a, b, v) for (a, b), v in self._entries.items() if a in keep and b in keep
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkingMatrix):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._entries.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}-{b}: {v}" for (a, b), v in self.items())
        return f"LinkingMatrix({{{inner}}})"


# ---------------------------------------------------------------------------
# Diagrams


@dataclass(frozen=True)
class JointPair:
    """A round 1-surgery link of two components.  When ``m`` is present the
    pair is a joint pair: ``c2`` is simultaneously a round 2-surgery knot
    with coefficient ``m`` (the coefficient always sits on ``c2``)."""

    c1: FramedComponent
    n1: int
    c2: FramedComponent
    n2: int
    m: Optional[Rational] = None


@dataclass(frozen=True)
class LooseKnot:
    """A round 2-surgery knot not in a pair; it always contributes a
    disconnected summand to the surgered manifold."""

    component: FramedComponent
    m: Rational


class _Diagram:
    """Equality and hashing on ``_key``, the tuple of a diagram's values that
    each subclass sets once in its constructor.  Diagrams of different types
    never compare equal.  The hash is computed on the first __hash__ call:
    most diagrams built are only compared or printed, never hashed."""

    __slots__ = ("_key", "_hash")

    def _set_key(self, key: tuple) -> None:
        self._key = key
        self._hash = None

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash


class RoundDiagram(_Diagram):
    """An ordered list of round 1-surgery pairs, optional standalone round
    2-surgery knots, and the linking matrix over all components.

    Pair order is meaningful (moves address pairs by index); loose knots are
    kept sorted by component id.
    """

    __slots__ = ("pairs", "loose", "lk", "ids")

    def __init__(
        self,
        pairs: Iterable[JointPair] = (),
        loose: Iterable[LooseKnot] = (),
        lk: Optional[LinkingMatrix] = None,
    ):
        self.pairs = tuple(pairs)
        self.loose = tuple(sorted(loose, key=lambda l: l.component.id))
        self.lk = lk if lk is not None else LinkingMatrix()
        self.ids = frozenset(c.id for c in self.components())
        self._set_key((self.pairs, self.loose, self.lk))

    def components(self) -> Iterator[FramedComponent]:
        for p in self.pairs:
            yield p.c1
            yield p.c2
        for l in self.loose:
            yield l.component

    def pair(self, index: int) -> JointPair:
        if not 0 <= index < len(self.pairs):
            raise SurgeryError(f"pair index {index} out of range (have {len(self.pairs)} pairs)")
        return self.pairs[index]

    def __repr__(self) -> str:
        return f"RoundDiagram(pairs={len(self.pairs)}, loose={len(self.loose)})"


class DehnDiagram(_Diagram):
    """An integral Dehn surgery presentation: framed components plus the
    linking matrix.

    Components are kept sorted by id; that id order is also the pairing
    order used when converting to round surgery pairs, so callers choose a
    pairing by choosing ids.
    """

    __slots__ = ("components", "framing", "lk", "ids")

    def __init__(
        self,
        components: Iterable[FramedComponent],
        framing: Mapping[ComponentId, int],
        lk: Optional[LinkingMatrix] = None,
    ):
        self.components = tuple(sorted(components, key=lambda c: c.id))
        self.framing = MappingProxyType(dict(framing))
        self.lk = lk if lk is not None else LinkingMatrix()
        self.ids = frozenset(c.id for c in self.components)
        self._set_key((self.components, tuple(sorted(self.framing.items())), self.lk))

    def component(self, cid: ComponentId) -> FramedComponent:
        for c in self.components:
            if c.id == cid:
                return c
        raise UnknownComponentError(f"no component {cid!r}")

    def __repr__(self) -> str:
        return f"DehnDiagram(components={len(self.components)})"


Diagram = Union[RoundDiagram, DehnDiagram]


# ---------------------------------------------------------------------------
# Validation and elementary queries


def _rational_violations(r: Rational) -> list[str]:
    return [] if isinstance(r, Rational) else ["coefficient is not a rational slope"]


def _lk_violations(lk: LinkingMatrix, known: frozenset[ComponentId]) -> list[str]:
    named = {cid for key, _ in lk.items() for cid in key}
    return [f"lk: unknown component {cid}" for cid in sorted(named - known)]


def validate_diagram(d: Diagram) -> list[str]:
    """Check the ids and types of a diagram's parts, whose values are
    canonical when built; return one message per violation.

    An empty list means the diagram is well-formed.  Violations are
    reported, never raised, so the caller can surface all of them at once.
    """
    if isinstance(d, RoundDiagram):
        components = tuple(d.components())
    elif isinstance(d, DehnDiagram):
        components = d.components
    else:
        raise SurgeryError(f"not a diagram: {d!r}")
    out: list[str] = []
    seen: set[ComponentId] = set()
    for c in components:
        if c.id in seen:
            out.append(f"component {c.id}: duplicate id")
        seen.add(c.id)
        out.extend(_knot_violations(c.knot, f"component {c.id}"))
    if isinstance(d, RoundDiagram):
        for i, p in enumerate(d.pairs):
            if p.m is not None:
                out.extend(f"pair {i} ({p.c1.id}, {p.c2.id}): {v}" for v in _rational_violations(p.m))
        for l in d.loose:
            out.extend(f"loose knot {l.component.id}: {v}" for v in _rational_violations(l.m))
    else:
        for cid in sorted(d.ids - set(d.framing)):
            out.append(f"component {cid}: missing framing")
        for cid in sorted(set(d.framing) - d.ids):
            out.append(f"framing for unknown component {cid}")
    out.extend(_lk_violations(d.lk, d.ids))
    return out


def fresh_id(prefix: str, used: Iterable[ComponentId]) -> ComponentId:
    """The smallest ``prefix<n>`` (n >= 1) not in ``used``.  Deterministic,
    which keeps move application reproducible inside the search."""
    used = set(used)
    n = 1
    while f"{prefix}{n}" in used:
        n += 1
    return f"{prefix}{n}"
