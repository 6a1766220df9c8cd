"""First homology of surgered 3-manifolds via Smith normal form.

The presentation matrix of H1 for an integral Dehn diagram is the symmetric
integer matrix with framings on the diagonal and linking numbers off it; the
group is its cokernel.  All arithmetic is exact: intermediate entries during
the reduction can grow far beyond machine width even for small inputs, so
Python's unbounded integers are load-bearing here, not a convenience.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bridge import joint_pair_to_dehn
from .model import DehnDiagram, RoundDiagram, SurgeryError

#: Rectangular matrix of exact integers, row-major.
IntegerMatrix = list[list[int]]


@dataclass(frozen=True)
class AbelianGroup:
    """A finitely generated abelian group in canonical form: free rank plus
    invariant factors d1 | d2 | ... with every di >= 2."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2 (1s are dropped, 0s become free rank)")
            if prev is not None and d % prev != 0:
                raise ValueError(f"invariant factors {prev}, {d} break the divisibility chain")
            prev = d

    @classmethod
    def from_factors(cls, factors: list[int], extra_free: int = 0) -> "AbelianGroup":
        """Canonicalise raw diagonal entries: drop units, zeros become Z."""
        torsion = tuple(sorted(abs(d) for d in factors if abs(d) >= 2))
        rank = extra_free + sum(1 for d in factors if d == 0)
        return cls(rank, torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def identity_matrix(n: int) -> IntegerMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matrix_multiply(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    if a and b and len(a[0]) != len(b):
        raise SurgeryError("matrix dimensions do not match")
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)] for i in range(len(a))]


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise SurgeryError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _check_rectangular(m: IntegerMatrix) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise SurgeryError("matrix is not rectangular")
    return rows, cols


def _select_pivot(d: IntegerMatrix, t: int, rows: int, cols: int):
    """The smallest nonzero entry by absolute value in the submatrix from
    (t, t), the first in row-major order on ties; None if there is none."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = abs(d[i][j])
            if v != 0 and (best is None or v < best[0]):
                best = (v, i, j)
                if v == 1:  # nothing is smaller, and later ties lose
                    return i, j
    return None if best is None else (best[1], best[2])


def _eliminate(m: IntegerMatrix, transforms: bool):
    """Reduce a copy d of m to Smith normal form.  Returns (d, u, v) with
    u @ m @ v == d, or (d, None, None) without tracking the transforms; the
    same operations run on d either way, so d does not depend on it.

    One matrix a holds u to the right of d and v below it, so that a row
    operation on d acts on u and a column operation on v; without the
    transforms a is d.  Each pivot's column is cleared first, by row
    operations; then, as column t is zero below the pivot, a column
    operation changes only row t of d, so the row is cleared by floor
    remainders in place, and a nonzero one becomes the next, smaller
    pivot.  d is the unique Smith form; u and v satisfy the contract but
    are not fixed values."""
    rows, cols = _check_rectangular(m)
    a = [row[:] for row in m]
    if transforms:
        a = [row + unit for row, unit in zip(a, identity_matrix(rows))] + identity_matrix(cols)
    v = a[rows:]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    t = 0
    while True:
        found = _select_pivot(a, t, rows, cols)
        if found is None:
            break
        pi, pj = found
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            swap_cols(t, pj)
        while True:
            # Clear the pivot column: row_i -= (d[i][t] // p) * row_t on d
            # and u, then promote the smallest nonzero residue (first row on
            # ties) until none is left.  Rows of d are zero left of column t.
            while True:
                p, prow = a[t][t], a[t][t:]
                for i in range(t + 1, rows):
                    q = a[i][t] // p
                    if q:
                        a[i][t:] = [x - q * y for x, y in zip(a[i][t:], prow)]
                k = min(((abs(a[i][t]), i) for i in range(t + 1, rows) if a[i][t]), default=None)
                if k is None:
                    break
                a[t], a[k[1]] = a[k[1]], a[t]
            # Clear the pivot row: col_j -= (d[t][j] // p) * col_t for j > t.
            # Column t of d is zero below the pivot, so on d that is the floor
            # remainder of each entry of row t; v takes the whole operation.
            row = a[t]
            if v:
                qs = [(j, row[j] // p) for j in range(t + 1, cols) if row[j]]
                for vrow in v:
                    x = vrow[t]
                    if x:
                        for j, q in qs:
                            vrow[j] -= q * x
            row[t + 1:cols] = [x % p for x in row[t + 1:cols]]
            k = min(((abs(x), j) for j, x in enumerate(row[t + 1:cols], t + 1) if x), default=None)
            if k is not None:
                swap_cols(t, k[1])  # a strictly smaller pivot; clear again
                continue
            # Column and row are clear.  Make the pivot divide the whole
            # remaining submatrix before moving on: this is what guarantees
            # the divisibility chain of the final diagonal.  A unit divides
            # everything.
            bad_row = None if abs(p) == 1 else next(
                (i for i in range(t + 1, rows) if any(a[i][j] % p for j in range(t + 1, cols))), None
            )
            if bad_row is None:
                break
            # Pull the offending row into row t, on d and u.
            a[t][t:] = [x + y for x, y in zip(a[t][t:], a[bad_row][t:])]
        t += 1

    for i in range(t):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
    if not transforms:
        return a, None, None
    return [row[:cols] for row in a[:rows]], [row[cols:] for row in a[:rows]], v


def smith_normal_form(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Diagonalise an integer matrix by unimodular row and column operations.

    Returns (d, u, v) with u @ m @ v == d, u and v unimodular, and d diagonal
    with non-negative entries satisfying d1 | d2 | ... .  Each pivot is the
    smallest nonzero absolute value left (ties broken row-major).
    """
    return _eliminate(m, transforms=True)


def invariant_factors(m: IntegerMatrix) -> list[int]:
    """The diagonal of the Smith normal form of m, d1 | d2 | ..., one entry
    per min(rows, cols); zeros come last and stand for free rank.  It runs
    ``smith_normal_form``'s elimination without the transforms, whose
    entries grow far faster than the diagonal."""
    d, _, _ = _eliminate(m, transforms=False)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def presentation_matrix(d: DehnDiagram) -> IntegerMatrix:
    """Framings on the diagonal, linking numbers off it, components in id
    order.  Linking entries that name other ids are left out."""
    index = {c.id: i for i, c in enumerate(d.components)}
    m = [[0] * len(index) for _ in index]
    for (a, b), value in d.lk.items():
        if a in index and b in index:
            m[index[a]][index[b]] = m[index[b]][index[a]] = value
    for i, c in enumerate(d.components):
        m[i][i] = d.framing[c.id]
    return m


def cokernel(m: IntegerMatrix) -> AbelianGroup:
    """The cokernel of m acting on column vectors, in canonical form."""
    factors = invariant_factors(m)
    return AbelianGroup.from_factors(factors, extra_free=len(m) - len(factors))


def first_homology(d: DehnDiagram) -> AbelianGroup:
    """H1 of the 3-manifold presented by an integral Dehn diagram."""
    return cokernel(presentation_matrix(d))


def first_homology_round(r: RoundDiagram) -> AbelianGroup:
    """H1 of the manifold of a joint-pair round diagram, computed through
    its Dehn surgery presentation."""
    return first_homology(joint_pair_to_dehn(r))
