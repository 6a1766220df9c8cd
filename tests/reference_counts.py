"""Count the work of the bounded search on its reference queries.

Prints, for each query, the depth, the number of apply_move calls the
search makes and its result: the moves found, one descriptor line each
joined by " ; ", or None.  Every query searches with k in -2..2.

- 4-pair regauge, depths 3 and 4: the start is random_joint_diagram(
  Random(43), min_pairs=4, max_pairs=4, span=3), and the goal raises each
  pair's n2 by 1, or sets it to -2 where that leaves the range.
- 3-pair out-of-reach, depth 4: the start is Random(34) with 3 pairs and
  span=3, and the goal is eq_move1(start, 0, 9), which is out of reach but
  in the start's gauge class.
- Pinned reframed slide, depth 4: the query of
  test_the_gauge_class_pass_ends_a_reframed_slide_goal_early, a goal one
  slide away with the slid component's n1 raised by 1; the exact pass alone
  is counted too (drop 11 of bounded_equivalence_search).

The counts depend on the code only, not on the machine.

    PYTHONPATH=src python tests/reference_counts.py
"""

from __future__ import annotations

import random

from helpers import random_joint_diagram
from roundsurgery import JointPair, RoundDiagram, bounded_equivalence_search, eq_move1, eq_move4, moves

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


def _reframed_slide() -> tuple[RoundDiagram, RoundDiagram]:
    start = random_joint_diagram(random.Random(1), min_pairs=2, max_pairs=2, span=2, lk_probability=0.6)
    slid = eq_move4(start, "11over21", 0, 1, 0)
    p = slid.pairs[0]
    return start, RoundDiagram((JointPair(p.c1, p.n1 + 1, p.c2, p.n2, p.m),) + slid.pairs[1:], slid.loose, slid.lk)


def _exact_pass(start: RoundDiagram, goal: RoundDiagram, depth: int, k_range: range):
    return moves._breadth_first(start, goal, depth, moves._search_ks(k_range, goal))


# (name, start and goal, depth, search)
QUERIES = [
    ("4-pair regauge", _regauge, 3, bounded_equivalence_search),
    ("4-pair regauge", _regauge, 4, bounded_equivalence_search),
    ("3-pair out-of-reach", _out_of_reach, 4, bounded_equivalence_search),
    ("pinned reframed slide", _reframed_slide, 4, bounded_equivalence_search),
    ("pinned reframed slide, exact pass alone", _reframed_slide, 4, _exact_pass),
]


def main() -> None:
    calls = [0]
    apply = moves.apply_move

    def counted(d, move):
        calls[0] += 1
        return apply(d, move)

    moves.apply_move = counted
    try:
        print(f"{'query':40} {'depth':>5} {'apply_move calls':>16}  result")
        for name, make, depth, search in QUERIES:
            start, goal = make()
            calls[0] = 0
            found = search(start, goal, depth, K_RANGE)
            result = "None" if found is None else " ; ".join(move.to_line() for move in found)
            print(f"{name:40} {depth:5} {calls[0]:16,}  {result}")
    finally:
        moves.apply_move = apply


if __name__ == "__main__":
    main()
