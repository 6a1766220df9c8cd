import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from helpers import comp, one_pair_diagram, random_dehn
from roundsurgery import (
    AbelianGroup,
    DehnDiagram,
    LinkingMatrix,
    cokernel,
    first_homology,
    first_homology_round,
    invariant_factors,
    kirby2_slide,
    presentation_matrix,
    smith_normal_form,
)
from roundsurgery.homology import _eliminate, determinant, matrix_multiply


def minors_gcd_invariant_factors(m):
    """Independent oracle: d_k = D_k / D_{k-1} with D_k the gcd of all
    k x k minors (and d_k = 0 once the minors vanish)."""
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


def snf_diagonal(m):
    d, _, _ = smith_normal_form(m)
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def assert_snf_contract(m):
    rows, cols = len(m), len(m[0]) if m else 0
    d, u, v = smith_normal_form(m)
    assert matrix_multiply(matrix_multiply(u, m), v) == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert a >= 0 and b % a == 0
    return diag


# Oracle-computed values, frozen: diag(1,1) since det = 1 and gcd of entries
# is 1; diag(2,4) since gcd = 2 and |det| = 8.
def test_snf_example_2111():
    assert snf_diagonal([[2, 1], [1, 1]]) == [1, 1]
    assert minors_gcd_invariant_factors([[2, 1], [1, 1]]) == [1, 1]


def test_snf_example_zero():
    d, u, v = smith_normal_form([[0]])
    assert d == [[0]] and u == [[1]] and v == [[1]]


def test_snf_example_6444():
    assert snf_diagonal([[6, 4], [4, 4]]) == [2, 4]
    assert minors_gcd_invariant_factors([[6, 4], [4, 4]]) == [2, 4]


def test_snf_agrees_with_minors_oracle_on_small_matrices():
    rng = random.Random(101)
    for _ in range(150):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert assert_snf_contract(m) == minors_gcd_invariant_factors(m)


def test_snf_diagonal_equals_the_minors_oracle_on_wider_entries():
    rng = random.Random(5)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)]
        assert snf_diagonal(m) == minors_gcd_invariant_factors(m)


def test_cokernel_of_a_matrix_without_entries():
    assert [str(cokernel(m)) for m in ([], [[]], [[], [], []])] == ["0", "Z", "Z^3"]


def test_snf_rejects_ragged_matrix():
    with pytest.raises(Exception):
        smith_normal_form([[1, 2], [3]])


def test_abelian_group_canonical_form():
    g = AbelianGroup.from_factors([1, 2, 0, 4], extra_free=1)
    assert g.free_rank == 2 and g.torsion == (2, 4)
    assert str(g) == "Z^2 + Z/2 + Z/4"
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1, (5,))) == "Z + Z/5"
    with pytest.raises(ValueError):
        AbelianGroup(0, (2, 3))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))


def test_first_homology_unknot_framings():
    # Oracle: coker([[5]]) = Z/5, coker([[0]]) = Z, coker([[1]]) trivial.
    for framing, expected in ((5, AbelianGroup(0, (5,))), (0, AbelianGroup(1)), (1, AbelianGroup(0))):
        d = DehnDiagram([comp("k")], {"k": framing})
        assert first_homology(d) == expected


def test_first_homology_hopf_zero_zero_is_trivial():
    d = DehnDiagram([comp("a"), comp("b")], {"a": 0, "b": 0}, LinkingMatrix([("a", "b", 1)]))
    assert first_homology(d) == AbelianGroup(0)


def test_first_homology_empty_diagram():
    assert first_homology(DehnDiagram((), {})) == AbelianGroup(0)


def test_first_homology_round_of_joint_pair():
    # bridge image diag(4, 2); SNF diag(2, 4)
    assert first_homology_round(one_pair_diagram(3, 1, 2)) == AbelianGroup(0, (2, 4))


def test_first_homology_round_unimodular_cases():
    for n in (-3, 0, 5):
        for sign in (1, -1):
            assert first_homology_round(one_pair_diagram(n, n, sign)) == AbelianGroup(0)


def test_first_homology_round_of_move3_pair_alone():
    from roundsurgery import eq_move3_add, RoundDiagram

    for k in (-2, 0, 3):
        for delta, sign in ((0, 1), (0, -1), (2, -1), (-2, 1)):
            r = eq_move3_add(RoundDiagram(), k, delta, sign)
            assert first_homology_round(r) == AbelianGroup(0)


def test_cokernel_invariant_under_slides_and_permutation():
    rng = random.Random(31)
    for _ in range(60):
        d = random_dehn(rng, max_components=5)
        h = first_homology(d)
        ids = [c.id for c in d.components]
        if len(ids) >= 2:
            a, b = rng.sample(ids, 2)
            assert first_homology(kirby2_slide(d, a, b)) == h
        m = presentation_matrix(d)
        perm = list(range(len(m)))
        rng.shuffle(perm)
        pm = [[m[perm[i]][perm[j]] for j in range(len(m))] for i in range(len(m))]
        assert cokernel(pm) == h


def test_det_equals_product_of_invariant_factors_when_rank_zero():
    rng = random.Random(77)
    seen = 0
    while seen < 40:
        d = random_dehn(rng, max_components=5)
        m = presentation_matrix(d)
        group = first_homology(d)
        if group.free_rank != 0:
            continue
        seen += 1
        product = 1
        for t in group.torsion:
            product *= t
        assert abs(determinant(m)) == product


@st.composite
def _matrices(draw, entry=st.integers(-30, 30)):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


#: Zeros, small values and multi-limb values around +-10**20, so that floor
#: quotients meet large pivots of either sign.
_BIG_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(10**20 - 10**6, 10**20 + 10**6),
    st.integers(-(10**20) - 10**6, -(10**20) + 10**6),
)


@given(st.one_of(_matrices(), _matrices(_BIG_ENTRIES)))
def test_snf_contract_property(m):
    assert assert_snf_contract(m) == invariant_factors(m) == minors_gcd_invariant_factors(m)


@st.composite
def _shaped_matrices(draw):
    """Rectangular, symmetric or singular (zero rows and columns, a row that
    is a combination of two others) integer matrices."""
    shape = draw(st.sampled_from(("rectangular", "symmetric", "singular")))
    rows = draw(st.integers(0, 7))
    cols = rows if shape == "symmetric" else draw(st.integers(0, 7))
    entry = st.integers(-40, 40)
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if shape == "symmetric":
        m = [[m[min(i, j)][max(i, j)] for j in range(cols)] for i in range(rows)]
    if shape == "singular" and rows and cols:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            m[i] = [0] * cols
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in m:
                row[j] = 0
        if rows >= 3:
            a, b = draw(entry), draw(entry)
            m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


@given(_shaped_matrices())
def test_invariant_factors_is_the_smith_diagonal(m):
    d, _, _ = smith_normal_form(m)
    diagonal = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    assert invariant_factors(m) == diagonal == minors_gcd_invariant_factors(m)
    assert _eliminate(m, transforms=False) == (d, None, None)


def test_invariant_factors_is_the_smith_diagonal_on_larger_matrices():
    rng = random.Random(2718)
    for _ in range(12):
        d = random_dehn(rng, max_components=24, span=6)
        m = presentation_matrix(d)
        assert invariant_factors(m) == snf_diagonal(m)


def test_invariant_factors_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    rng = random.Random(1618)
    for _ in range(10):
        n = rng.randint(8, 16)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-9, 9)
        expected = [abs(int(x)) for x in sympy_factors(sympy.Matrix(m), domain=sympy.ZZ)]
        assert invariant_factors(m) == expected


def _workload_shaped(rng, n, zeros):
    """A dense symmetric n x n block like the benchmark's homology documents,
    framings in -6..6 and links in -2..2, then zeros unlinked 0-framed
    components."""
    size = n + zeros
    m = [[0] * size for _ in range(size)]
    for i in range(n):
        m[i][i] = rng.randint(-6, 6)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.randint(-2, 2)
    return m


def test_invariant_factors_agree_with_sympy_at_workload_size():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    rng = random.Random(3141)
    for _ in range(6):
        m = _workload_shaped(rng, rng.randint(24, 40), rng.randint(1, 2))
        expected = [abs(int(x)) for x in sympy_factors(sympy.Matrix(m), domain=sympy.ZZ)]
        assert invariant_factors(m) == expected
    m = _workload_shaped(rng, 32, 0)
    assert assert_snf_contract(m) == invariant_factors(m)


def test_presentation_matrix_reads_each_entry_as_lk_get_does():
    rng = random.Random(1414)
    for _ in range(200):
        d = random_dehn(rng, max_components=12)
        comps = [c.id for c in d.components]
        expected = [[d.framing[a] if a == b else d.lk.get(a, b) for b in comps] for a in comps]
        assert presentation_matrix(d) == expected
    # an entry naming an id outside the components
    d = DehnDiagram([comp("a"), comp("b")], {"a": 3, "b": -1}, LinkingMatrix([("a", "b", 2), ("a", "z", 5)]))
    assert presentation_matrix(d) == [[3, 2], [2, -1]]
