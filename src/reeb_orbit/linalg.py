"""Exact linear algebra for small integer systems.

Systems whose matrix is the node-arc incidence matrix of a list of arcs are
solved on the spanning forest that takes the arcs greedily in order: the
kernel is spanned by the fundamental cycles of the arcs that close a cycle,
and one solution comes from peeling the trees from their leaves.  Other
systems are solved by Gaussian elimination over the rationals.  Dimension
counts are exact integers rather than numerical rank estimates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Hashable, Optional, Sequence

from .levels import DSU


def rref(rows: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot column indices."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
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


def spanning_forest(
    arcs: Sequence[tuple[Hashable, Hashable]], roots: Sequence[Hashable] = ()
) -> tuple[dict[Hashable, Optional[tuple[Hashable, int]]], list[int]]:
    """The spanning forest that takes the arcs (tail, head) greedily in the
    given order, rooted at the first of ``roots`` in each tree, or else at the
    first node of its tree arcs.

    Returns the (parent, arc index) of each node of ``roots`` or of a tree
    arc, None at a root, in breadth-first order tree by tree, so a parent
    always comes before its children; and the indices of the arcs that close
    a cycle, in order.
    """
    dsu = DSU()
    adj: dict[Hashable, list[tuple[Hashable, int]]] = {}
    closing = []
    for i, (t, h) in enumerate(arcs):
        if dsu.find(t) == dsu.find(h):
            closing.append(i)
        else:
            dsu.union(t, h)
            adj.setdefault(t, []).append((h, i))
            adj.setdefault(h, []).append((t, i))
    up: dict[Hashable, Optional[tuple[Hashable, int]]] = {}
    for r in chain(roots, adj):
        if r in up:
            continue
        up[r] = None
        tree = [r]
        for x in tree:
            for y, j in adj.get(x, ()):
                if y not in up:
                    up[y] = (x, j)
                    tree.append(y)
    return up, closing


def fundamental_cycles(
    arcs: Sequence[tuple[Hashable, Hashable]]
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Fundamental cycles of the spanning forest that takes the arcs
    (tail, head) greedily in the given order.

    One entry per arc that closes a cycle, in arc order: its index and the
    forest path from its head back to its tail as (arc index, sign) steps,
    with sign +1 where the step runs from the arc's tail to its head.
    """
    up, closing = spanning_forest(arcs)
    rank = {x: k for k, x in enumerate(up)}
    cycles = []
    for i in closing:
        t, h = arcs[i]
        # climb from the later end until both meet: a parent ranks first
        from_head, to_tail = [], []
        while h != t:
            if rank[h] > rank[t]:
                x, j = up[h]
                from_head.append((j, 1 if arcs[j][1] == x else -1))
                h = x
            else:
                x, j = up[t]
                to_tail.append((j, 1 if arcs[j][1] == t else -1))
                t = x
        cycles.append((i, from_head + to_tail[::-1]))
    return cycles


def nullspace(arcs: Sequence[tuple[Hashable, Hashable]]) -> list[list[int]]:
    """Kernel basis of the node-arc incidence matrix of the arcs (tail,
    head), one vector per arc that closes a cycle, in arc order: its
    fundamental cycle, +1 on the arc itself."""
    basis = []
    for c, steps in fundamental_cycles(arcs):
        vec = [0] * len(arcs)
        vec[c] = 1
        for arc, sign in steps:
            vec[arc] = sign
        basis.append(vec)
    return basis


def solve_exact(
    rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
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
