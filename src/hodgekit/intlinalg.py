"""Exact integer matrix utilities: rank and Smith normal form.

No floating point anywhere: rank uses fraction-free (Bareiss)
elimination over the integers, and the Smith form uses the classical
pivot-and-reduce loop.  Matrices are lists of equal-length integer rows;
an entry that is not an int (a bool included) is refused, not coerced.
"""

from __future__ import annotations

from .numth import _require_ints


def _checked(rows: list[list[int]]) -> list[list[int]]:
    mat = [list(row) for row in rows]
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("ragged matrix")
    for row in mat:
        _require_ints(row, "matrix entry")
    return mat


def integer_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by Bareiss elimination."""
    mat = _checked(rows)
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                # Bareiss: the division by the previous pivot is exact.
                mat[r][c] = (
                    mat[row][col] * mat[r][c] - mat[r][col] * mat[row][c]
                ) // prev
            mat[r][col] = 0
        prev = mat[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def smith_normal_form(rows: list[list[int]]) -> list[int]:
    """Positive invariant factors d_1 | d_2 | ... of an integer matrix."""
    mat = _checked(rows)
    if not mat or not mat[0]:
        return []
    nrows, ncols = len(mat), len(mat[0])

    def min_entry(s: int):
        best = None
        for i in range(s, nrows):
            for j in range(s, ncols):
                v = abs(mat[i][j])
                if v and (best is None or v < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        return best

    factors: list[int] = []
    s = 0
    while s < min(nrows, ncols):
        pos = min_entry(s)
        if pos is None:
            break
        i, j = pos
        mat[s], mat[i] = mat[i], mat[s]
        for r in range(nrows):
            mat[r][s], mat[r][j] = mat[r][j], mat[r][s]
        if mat[s][s] < 0:
            mat[s] = [-v for v in mat[s]]
        p = mat[s][s]
        clean = True
        for r in range(s + 1, nrows):
            q = mat[r][s] // p
            if q:
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[s])]
            if mat[r][s]:
                clean = False  # remainder < p survives; pivot will shrink
        for c in range(s + 1, ncols):
            q = mat[s][c] // p
            if q:
                for r in range(nrows):
                    mat[r][c] -= q * mat[r][s]
            if mat[s][c]:
                clean = False
        if not clean:
            continue
        fixed = False
        for i2 in range(s + 1, nrows):
            if any(mat[i2][j2] % p for j2 in range(s + 1, ncols)):
                # Fold the offending row in; the next pass gcd-shrinks p.
                mat[s] = [a + b for a, b in zip(mat[s], mat[i2])]
                fixed = True
                break
        if fixed:
            continue
        factors.append(p)
        s += 1
    return factors
