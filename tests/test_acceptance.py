"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  All checks are exact (integer/group equality); the only tolerance
anywhere is the 10-second wall-clock budget of the search criterion.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

from helpers import comp, one_pair_diagram, random_dehn, random_joint_diagram
from roundsurgery import (
    AbelianGroup,
    DehnDiagram,
    LinkingMatrix,
    MoveDescriptor,
    MoveKind,
    apply_move,
    apply_sequence,
    bounded_equivalence_search,
    dehn_to_joint_pairs,
    eq_move1,
    eq_move3_add,
    eq_move3_del,
    eq_move4,
    first_homology,
    first_homology_round,
    joint_pair_to_dehn,
    kirby2_slide,
    parse,
    print_diagram,
    round1_to_kirby,
    shuffle_a,
    shuffle_b,
    smith_normal_form,
    suture_slope,
    taut_foliation_family,
)
from roundsurgery.homology import determinant, matrix_multiply
from roundsurgery.moves import EQ_MOVE4_VARIANTS, _check_move3_del

CORPUS = Path(__file__).parent / "corpus"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_bridge_formulas():
    with criterion(1, "bridge coefficient formulas"):
        for n1, n2, m in itertools.product(range(-5, 6), repeat=3):
            d = joint_pair_to_dehn(one_pair_diagram(n1, n2, m))
            assert d.framing["a"] == n1 - n2 + m
            assert d.framing["b"] == m


def _strip_padding(back, original):
    extra = back.ids - original.ids
    assert len(extra) <= 1
    if not extra:
        return back
    (pad,) = extra
    assert back.framing[pad] in (1, -1)
    assert all(back.lk.get(pad, o) == 0 for o in original.ids)
    keep = [c for c in back.components if c.id != pad]
    framing = {k: v for k, v in back.framing.items() if k != pad}
    return DehnDiagram(keep, framing, back.lk.restricted(original.ids))


def test_criterion_02_round_trip():
    with criterion(2, "round trip through joint pairs"):
        rng = random.Random(20240601)
        for _ in range(1000):
            d = random_dehn(rng, max_components=6, span=9)
            n_pairs = (len(d.components) + 1) // 2
            sign = rng.choice((1, -1))
            for k in range(-5, 6):  # one shared k per conversion, all of [-5, 5]
                back = joint_pair_to_dehn(dehn_to_joint_pairs(d, [k] * n_pairs, sign))
                assert _strip_padding(back, d) == d
            for _ in range(3):  # mixed per-pair choices
                ks = [rng.randint(-5, 5) for _ in range(n_pairs)]
                back = joint_pair_to_dehn(dehn_to_joint_pairs(d, ks, sign))
                assert _strip_padding(back, d) == d


def test_criterion_03_kirby_export_framing():
    with criterion(3, "Kirby export framing"):
        for n1, n2, lk in itertools.product(range(-5, 6), repeat=3):
            k = round1_to_kirby(one_pair_diagram(n1, n2, None, lk=lk))
            assert k.two_handles[0].framing == n1 + n2 + 2 * lk
        hopf = round1_to_kirby(one_pair_diagram(0, 0, None, lk=1))
        assert hopf.two_handles[0].framing == 2
        assert len(hopf.one_handles) == 1


def test_criterion_04_move_soundness_via_homology():
    with criterion(4, "move soundness via first homology"):
        rng = random.Random(20240604)
        for _ in range(500):
            r = random_joint_diagram(rng, max_pairs=4, min_pairs=1, span=9)
            h = first_homology_round(r)
            n = len(r.pairs)
            i = rng.randrange(n)
            k = rng.randint(-9, 9)
            assert first_homology_round(eq_move1(r, i, k)) == h
            assert first_homology_round(shuffle_a(r, i, k)) == h
            delta, sign = rng.choice(((0, 1), (0, -1), (2, -1), (-2, 1)))
            grown = eq_move3_add(r, k, delta, sign)
            assert first_homology_round(grown) == h
            assert first_homology_round(eq_move3_del(grown, n)) == h
            if n >= 2:
                j = rng.choice([x for x in range(n) if x != i])
                for variant in EQ_MOVE4_VARIANTS:
                    jj = None if variant in ("11over12", "12over11") else j
                    assert first_homology_round(eq_move4(r, variant, i, jj, k)) == h
            else:
                for variant in ("11over12", "12over11"):
                    assert first_homology_round(eq_move4(r, variant, i, None, k)) == h
        # shuffle move B, with any k1 and k2 and pairs linked to everything
        for _ in range(500):
            r = random_joint_diagram(rng, max_pairs=4, min_pairs=2, span=9)
            h = first_homology_round(r)
            i, j = rng.sample(range(len(r.pairs)), 2)
            assert first_homology_round(shuffle_b(r, i, j, rng.randint(-9, 9), rng.randint(-9, 9))) == h


SLIDE_TARGETS = {
    "11over12": lambda pi, pj: (pi.c1.id, pi.c2.id),
    "12over11": lambda pi, pj: (pi.c2.id, pi.c1.id),
    "11over21": lambda pi, pj: (pi.c1.id, pj.c1.id),
    "11over22": lambda pi, pj: (pi.c1.id, pj.c2.id),
    "12over21": lambda pi, pj: (pi.c2.id, pj.c1.id),
    "12over22": lambda pi, pj: (pi.c2.id, pj.c2.id),
}


def test_criterion_05_bridge_commutes_with_slides():
    with criterion(5, "slide moves commute with the bridge"):
        rng = random.Random(20240605)
        for _ in range(500):
            r = random_joint_diagram(rng, max_pairs=4, min_pairs=2, span=9)
            i, j = rng.sample(range(len(r.pairs)), 2)
            k = rng.randint(-9, 9)
            image = joint_pair_to_dehn(r)
            for variant in EQ_MOVE4_VARIANTS:
                jj = None if variant in ("11over12", "12over11") else j
                pi, pj = r.pairs[i], r.pairs[j]
                a, b = SLIDE_TARGETS[variant](pi, pj)
                assert joint_pair_to_dehn(eq_move4(r, variant, i, jj, k)) == kirby2_slide(image, a, b)


def test_criterion_06_smith_normal_form():
    with criterion(6, "Smith normal form contract"):
        rng = random.Random(20240606)
        for _ in range(1000):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = [[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)]
            d, u, v = smith_normal_form(m)
            assert matrix_multiply(matrix_multiply(u, m), v) == d
            assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
            diag = [d[i][i] for i in range(min(rows, cols))]
            assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a > 0 and b % a == 0)
            assert diag == _minors_gcd_oracle(m)  # the unique Smith diagonal


def _minors_gcd_oracle(m):
    rows, cols = len(m), len(m[0]) if m else 0
    out, divisors = [], [1]
    for k in range(1, min(rows, cols) + 1):
        g = 0
        minors = itertools.product(itertools.combinations(range(rows), k), itertools.combinations(range(cols), k))
        for rsel, csel in minors:
            g = math.gcd(g, determinant([[m[i][j] for j in csel] for i in rsel]))
            if g == 1:
                break  # no further minor can lower the gcd
        out.append(0 if g == 0 else g // divisors[-1])
        divisors.append(g)
    return out


def test_criterion_07_worked_homology_instances():
    with criterion(7, "worked first-homology instances"):
        instances = [
            (DehnDiagram([comp("k")], {"k": 1}), AbelianGroup(0)),
            (DehnDiagram([comp("k")], {"k": 0}), AbelianGroup(1)),
            (DehnDiagram([comp("k")], {"k": 5}), AbelianGroup(0, (5,))),
            (
                DehnDiagram([comp("a"), comp("b")], {"a": 0, "b": 0}, LinkingMatrix([("a", "b", 1)])),
                AbelianGroup(0),
            ),
        ]
        from roundsurgery.homology import presentation_matrix

        for diagram, expected in instances:
            oracle_factors = _minors_gcd_oracle(presentation_matrix(diagram))
            free = sum(1 for f in oracle_factors if f == 0)
            torsion = tuple(f for f in oracle_factors if f >= 2)
            assert AbelianGroup(free, torsion) == expected  # oracle agrees with frozen value
            assert first_homology(diagram) == expected


def test_criterion_08_suture_slopes_and_gates():
    with criterion(8, "suture slope arithmetic and hypothesis gates"):
        hopf = one_pair_diagram(0, 0, None, lk=1, fibred=True)
        assert suture_slope(hopf, 0).slope == 1
        witnesses = taut_foliation_family(hopf, 0, range(-2, 3))
        assert [w.slope for w in witnesses] == [3, 2, 1, 0, -1]
        from roundsurgery import AnalysisError, FoliationRefusal
        import pytest

        not_fibred = one_pair_diagram(0, 0, None, lk=1)
        assert taut_foliation_family(not_fibred, 0, (0,)) == FoliationRefusal("not fibred")
        unequal = one_pair_diagram(0, 3, None, lk=1, fibred=True)
        assert taut_foliation_family(unequal, 0, (0,)) == FoliationRefusal("coefficients differ")
        with pytest.raises(AnalysisError):
            suture_slope(unequal, 0)
        for lk in range(-5, 6):
            for n in range(-5, 6):
                assert suture_slope(one_pair_diagram(n, n, None, lk=lk), 0).slope == lk - n


def _random_move(rng, r):
    kinds = ["EqMove1", "ShuffleA", "EqMove3Add", "EqMove4single"]
    if len(r.pairs) >= 2:
        kinds += ["ShuffleB", "EqMove4double"]
    deletable = [i for i in range(len(r.pairs)) if _check_move3_del(r, i) is None]
    if deletable:
        kinds.append("EqMove3Del")
    kind = rng.choice(kinds)
    n = len(r.pairs)
    k = rng.randint(-3, 3)
    if kind == "EqMove1":
        return MoveDescriptor(MoveKind.EQ_MOVE1, pair=rng.randrange(n), k=k)
    if kind == "ShuffleA":
        return MoveDescriptor(MoveKind.SHUFFLE_A, pair=rng.randrange(n), k=k)
    if kind == "EqMove3Add":
        delta, sign = rng.choice(((0, 1), (0, -1), (2, -1), (-2, 1)))
        return MoveDescriptor(MoveKind.EQ_MOVE3_ADD, k=k, delta=delta, sign=sign)
    if kind == "EqMove3Del":
        return MoveDescriptor(MoveKind.EQ_MOVE3_DEL, pair=rng.choice(deletable))
    if kind == "ShuffleB":
        i, j = rng.sample(range(n), 2)
        return MoveDescriptor(MoveKind.SHUFFLE_B, pair=i, pair2=j, k=k, k2=rng.randint(-3, 3))
    if kind == "EqMove4single":
        return MoveDescriptor(
            MoveKind.EQ_MOVE4, pair=rng.randrange(n), variant=rng.choice(("11over12", "12over11")), k=k
        )
    i, j = rng.sample(range(n), 2)
    return MoveDescriptor(
        MoveKind.EQ_MOVE4,
        pair=i,
        pair2=j,
        variant=rng.choice(("11over21", "11over22", "12over21", "12over22")),
        k=k,
    )


def test_criterion_09_search_recovers_scrambles():
    with criterion(9, "bounded search recovers two-move scrambles"):
        rng = random.Random(20240609)
        start = time.monotonic()
        for _ in range(100):
            r1 = random_joint_diagram(rng, max_pairs=2, min_pairs=2, span=3, lk_probability=0.4)
            first = _random_move(rng, r1)
            middle = apply_move(r1, first)
            second = _random_move(rng, middle)
            r2 = apply_move(middle, second)
            sequence = bounded_equivalence_search(r1, r2, 2, range(-3, 4))
            assert sequence is not None
            assert apply_sequence(r1, sequence) == r2
        elapsed = time.monotonic() - start
        assert elapsed <= 10.0, f"search criterion took {elapsed:.1f}s"


def test_criterion_10_dsl_corpus_byte_exact():
    with criterion(10, "DSL corpus print/parse byte identity"):
        files = sorted(CORPUS.glob("*.rsd"))
        assert len(files) == 30
        kinds = set()
        statements = set()
        for path in files:
            text = path.read_text(encoding="utf-8")
            doc = parse(text)
            kinds.add(doc.kind)
            for line in text.splitlines():
                statements.add(line.split(" ", 1)[0])
            assert print_diagram(doc.diagram) == text, path.name
        assert kinds == {"ROUND", "DEHN", "KIRBY"}
        assert {"COMP", "PAIR", "LOOSE", "LK", "HANDLE1", "HANDLE2"} <= statements
        assert any("m=1/0" in p.read_text() for p in files)
