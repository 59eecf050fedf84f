"""Exact linear algebra over Q and Q(chi).

Entries are int, Fraction or Cyclotomic, all in the field Q(chi), so ordinary
Gaussian elimination with exact division is used throughout.  A pivot is
inverted as Fraction(1) / pivot, which a Cyclotomic pivot answers through
its __rtruediv__, so this module imports nothing from kronlab.
"""

from __future__ import annotations

from fractions import Fraction


def _eliminate(mat: list[list], ncols: int) -> list[int]:
    """Gauss-Jordan on the first ncols columns of mat, in place.

    Row operations act on whole rows, so columns past ncols (a right-hand
    side) are carried along.  Pivot row i ends up with a 1 in column
    pivot_cols[i] and zeros above and below it; rows past the last pivot
    are zero in the first ncols columns.
    """
    pivot_cols = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [inv * x for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def rank(rows: list[list]) -> int:
    """Exact rank by Gaussian elimination; does not modify its input."""
    if not rows:
        return 0
    return len(_eliminate([list(r) for r in rows], len(rows[0])))


def solve(A: list[list], b: list) -> list:
    """Solve A x = b exactly; A may be rectangular (consistency is enforced).

    Returns the unique solution when the column rank is full; raises
    ValueError when b does not have one entry per row of A, or on an
    inconsistent or underdetermined system.
    """
    if len(b) != len(A):
        raise ValueError(f"A has {len(A)} rows but b has {len(b)}")
    if not A:
        return []
    n = len(A[0])
    aug = [list(row) + [rhs] for row, rhs in zip(A, b)]
    piv_cols = _eliminate(aug, n)
    if len(piv_cols) < n:
        raise ValueError("underdetermined system")
    if any(row[n] != 0 for row in aug[len(piv_cols):]):
        raise ValueError("inconsistent system")
    # every column is a pivot column, so pivot row i holds unknown i
    return [row[n] for row in aug[:n]]
