"""Count the work of the bounded search on its reference queries.

Prints, for each query, the depth, the number of apply_move calls the
search makes and its result: the moves found, one descriptor line each
joined by " ; ", or None.  Every query searches with k in -2..2.

- 4-pair regauge, depths 3 and 4: the start is random_joint_diagram(
  Random(43), min_pairs=4, max_pairs=4, span=3), and the goal raises each
  pair's n2 by 1, or sets it to -2 where that leaves the range.
- 3-pair out-of-reach, depth 4: the start is Random(34) with 3 pairs and
  span=3, and the goal is eq_move1(start, 0, 9), which is out of reach but
  in the start's gauge class.  Its pair 0 has n2 = 9, outside the range,
  and the start holds no equal pair, so the search ends at its start
  (drop 13 of bounded_equivalence_search) with no apply_move call.
- 1-pair other m, depth 2: the shape of the query that sets the search
  workload's median, one pair whose goal has m changed.  The start is
  random_joint_diagram(Random(7), min_pairs=1, max_pairs=1, span=3), and
  the goal raises its m by 1, which changes the Dehn framing of a
  component whose knot is already the goal's, so the search ends at its
  start (drop 12 of bounded_equivalence_search) with no apply_move call,
  before it builds any k value.
- Pinned reframed slide, depth 4: the query of
  test_the_gauge_class_pass_ends_a_reframed_slide_goal_early, a goal one
  slide away with the slid component's n1 raised by 1: 365 calls, and
  19,491 in the exact pass alone, which is counted too (drop 11 of
  bounded_equivalence_search).

A last row sums the apply_move calls of 300 seeded random queries and
prints the sha256 of their listings, one result line each, so that two
trees that search alike print the same digest; tests/test_moves.py pins
it, and bounds their apply_move calls by today's count.  Query i starts
from random_joint_diagram(Random(i), min_pairs=2, max_pairs=3, span=2).
Its goal is 1-3 legal moves of reference_box(n, (-1, 0, 2)) away, each
drawn kind first, with that depth; every sixth goal is instead
eq_move1(start, 0, 9), out of reach, at depth 3, which drop 13 ends at the
start.

The counts depend on the code only, not on the machine.  Tier-1
(tests/test_moves.py) reads the same table, QUERIES, and bounds each row's
calls by today's count, its last field.

    PYTHONPATH=src python tests/reference_counts.py
"""

from __future__ import annotations

import contextlib
import hashlib
import random
from typing import Iterator

from helpers import random_joint_diagram, reference_box
from roundsurgery import (
    JointPair,
    MoveError,
    Rational,
    RoundDiagram,
    apply_move,
    bounded_equivalence_search,
    eq_move1,
    eq_move4,
    moves,
)

K_RANGE = range(-2, 3)


def _regauge() -> tuple[RoundDiagram, RoundDiagram]:
    start = random_joint_diagram(random.Random(43), min_pairs=4, max_pairs=4, span=3)
    goal = start
    for i, p in enumerate(start.pairs):
        goal = eq_move1(goal, i, p.n2 + 1 if p.n2 + 1 in K_RANGE else -2)
    return start, goal


def _out_of_reach() -> tuple[RoundDiagram, RoundDiagram]:
    start = random_joint_diagram(random.Random(34), min_pairs=3, max_pairs=3, span=3)
    return start, eq_move1(start, 0, 9)


def _other_m() -> tuple[RoundDiagram, RoundDiagram]:
    start = random_joint_diagram(random.Random(7), min_pairs=1, max_pairs=1, span=3)
    p = start.pairs[0]
    return start, RoundDiagram((JointPair(p.c1, p.n1, p.c2, p.n2, Rational(p.m.p + 1)),), start.loose, start.lk)


def _reframed_slide() -> tuple[RoundDiagram, RoundDiagram]:
    start = random_joint_diagram(random.Random(1), min_pairs=2, max_pairs=2, span=2, lk_probability=0.6)
    slid = eq_move4(start, "11over21", 0, 1, 0)
    p = slid.pairs[0]
    return start, RoundDiagram((JointPair(p.c1, p.n1 + 1, p.c2, p.n2, p.m),) + slid.pairs[1:], slid.loose, slid.lk)


def _exact_pass(start: RoundDiagram, goal: RoundDiagram, depth: int, k_range: range):
    return moves._breadth_first(start, goal, depth, moves._search_ks(k_range, goal))


def _random_queries(count: int = 300) -> list[tuple[RoundDiagram, RoundDiagram, int]]:
    """(start, goal, depth) of the random queries (see the module docstring)."""
    queries = []
    for i in range(count):
        rng = random.Random(i)
        start = random_joint_diagram(rng, min_pairs=2, max_pairs=3, span=2)
        if i % 6 == 5:
            queries.append((start, eq_move1(start, 0, 9), 3))
            continue
        goal, depth = start, rng.randint(1, 3)
        for _ in range(depth):
            legal: dict = {}
            for move in reference_box(len(goal.pairs), (-1, 0, 2)):
                try:
                    result = apply_move(goal, move)
                except MoveError:
                    continue
                legal.setdefault(move.kind, []).append(result)
            goal = rng.choice(legal[rng.choice(sorted(legal, key=lambda kind: kind.value))])
        queries.append((start, goal, depth))
    return queries


def _result(found) -> str:
    return "None" if found is None else " ; ".join(move.to_line() for move in found)


# (name, start and goal, depth, search, most apply_move calls): tier-1
# bounds each row's calls by its last field, today's count, so a change that
# lowers a count lowers its bound (tests/test_moves.py)
QUERIES = [
    ("4-pair regauge", _regauge, 3, bounded_equivalence_search, 2_070),
    ("4-pair regauge", _regauge, 4, bounded_equivalence_search, 43_955),
    ("3-pair out-of-reach", _out_of_reach, 4, bounded_equivalence_search, 0),
    ("1-pair other m", _other_m, 2, bounded_equivalence_search, 0),
    ("pinned reframed slide", _reframed_slide, 4, bounded_equivalence_search, 365),
    ("pinned reframed slide, exact pass alone", _reframed_slide, 4, _exact_pass, 19_491),
]


@contextlib.contextmanager
def counted_calls() -> Iterator[list[int]]:
    """Count the moves.apply_move calls made inside the block in the one
    item of the list it yields."""
    calls = [0]
    apply = moves.apply_move

    def counted(d, move):
        calls[0] += 1
        return apply(d, move)

    moves.apply_move = counted
    try:
        yield calls
    finally:
        moves.apply_move = apply


def main() -> None:
    print(f"{'query':40} {'depth':>5} {'apply_move calls':>16}  result")
    for name, make, depth, search, _ in QUERIES:
        start, goal = make()
        with counted_calls() as calls:
            found = search(start, goal, depth, K_RANGE)
        print(f"{name:40} {depth:5} {calls[0]:16,}  {_result(found)}")
    queries = _random_queries()
    with counted_calls() as calls:
        found = [bounded_equivalence_search(start, goal, depth, K_RANGE) for start, goal, depth in queries]
    listing = "".join(_result(f) + "\n" for f in found)
    digest = hashlib.sha256(listing.encode()).hexdigest()
    hits = sum(f is not None for f in found)
    print(f"{f'{len(queries)} random queries':40} {'1-3':>5} {calls[0]:16,}  {hits} found, sha256 {digest}")


if __name__ == "__main__":
    main()
