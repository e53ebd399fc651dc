"""Exact rational Gaussian elimination for small integer systems.

Nullspaces and solves for incidence-type matrices are computed over
the rationals, so dimension counts are exact integers rather than numerical
rank estimates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def rref(rows: Sequence[Sequence[float]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices."""
    mat = [[Fraction(x).limit_denominator(10**12) if not isinstance(x, Fraction) else x
            for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def nullspace(rows: Sequence[Sequence[float]], ncols: int) -> list[list[Fraction]]:
    """Basis of the kernel, one vector per free column, in column order."""
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def solve_exact(
    rows: Sequence[Sequence[float]], rhs: Sequence[float]
) -> Optional[list[Fraction]]:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero.
    """
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    mat, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = mat[r][ncols]
    return x
