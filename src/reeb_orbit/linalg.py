"""Exact linear algebra for small integer systems.

Kernels of node-arc incidence matrices come from a spanning forest and its
fundamental cycles, and solves use Gaussian elimination over the rationals,
so dimension counts are exact integers rather than numerical rank estimates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Optional, Sequence

import numpy as np

from .levels import DSU


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


def fundamental_cycles(
    arcs: Sequence[tuple[Hashable, Hashable]]
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Fundamental cycles of the spanning forest that takes the arcs
    (tail, head) greedily in the given order.

    One entry per arc that closes a cycle, in arc order: its index and the
    forest path from its head back to its tail as (arc index, sign) steps,
    with sign +1 where the step runs from the arc's tail to its head.
    """
    dsu = DSU()
    adj: dict[Hashable, list[tuple[Hashable, int]]] = {}
    cycles = []
    for i, (t, h) in enumerate(arcs):
        if dsu.find(t) != dsu.find(h):
            dsu.union(t, h)
            adj.setdefault(t, []).append((h, i))
            adj.setdefault(h, []).append((t, i))
            continue
        # the forest so far already holds the whole path
        reached: dict[Hashable, Optional[tuple[Hashable, int]]] = {h: None}
        stack = [h]
        while t not in reached:
            x = stack.pop()
            for y, j in adj[x]:
                if y not in reached:
                    reached[y] = (x, j)
                    stack.append(y)
        steps = []
        while reached[t] is not None:
            x, j = reached[t]
            steps.append((j, 1 if arcs[j][1] == t else -1))
            t = x
        cycles.append((i, steps[::-1]))
    return cycles


def nullspace(rows: Sequence[Sequence[float]], ncols: int) -> list[list[int]]:
    """Kernel basis of a node-arc incidence matrix, one vector per free column,
    in column order.

    Each column is an arc: its +1 row is the head, its -1 row the tail, and a
    missing end is one shared ground node.  The pivot columns of the reduced
    row echelon form are then the spanning forest taken greedily in column
    order, and the kernel vector of a free column is its fundamental cycle.
    Raises ValueError on any other matrix.
    """
    a = np.asarray(rows, dtype=float).reshape(len(rows), ncols)
    plus, minus = a == 1.0, a == -1.0
    if not (plus | minus | (a == 0.0)).all() or (plus.sum(0) > 1).any() or (minus.sum(0) > 1).any():
        raise ValueError("not a node-arc incidence matrix")
    # the ground node is row len(rows)
    ground = np.ones((1, ncols), dtype=bool)
    heads = np.vstack([plus, ground]).argmax(0).tolist()
    tails = np.vstack([minus, ground]).argmax(0).tolist()
    basis = []
    for c, steps in fundamental_cycles(list(zip(tails, heads))):
        vec = [0] * ncols
        vec[c] = 1
        for arc, sign in steps:
            vec[arc] = sign
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
