"""The least-squares curl of one-form synthesis under closed-curve
constraints, solved on a breadth-first spanning tree of the dual graph with
no sparse factorization, BLAS or LAPACK routine.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .surface import PLSurface


def side_signs(s: PLSurface) -> np.ndarray:
    """+1 where half-edge 3t+i runs along its edge's orientation, else -1."""
    return np.where(s.triangles < s.triangles[:, [1, 2, 0]], 1.0, -1.0).ravel()


class DualTree(NamedTuple):
    """Breadth-first spanning tree of the dual graph of a surface.

    The dual nodes are the triangles plus node T outside the surface, which
    every boundary edge joins to its triangle; the root is node T, or
    triangle 0 on a closed surface.  Entry i holds a node other than the
    root, its parent, the mesh edge between them and the side sign of the
    node's triangle on that edge; ``height`` is the greatest depth.

    Sums along the tree move by pointer jumping: in round j every node
    passes what it holds 2^j levels, so ``height.bit_length()`` rounds reach
    from each node to the root.
    """

    node: np.ndarray
    parent: np.ndarray
    edge: np.ndarray
    sign: np.ndarray
    height: int

    def _jumps(self, size: int):
        """Each node's ancestor 2^j levels up, or the root, for each round j."""
        up = np.arange(size)
        up[self.node] = self.parent
        for _ in range(self.height.bit_length()):
            yield up
            up = up[up]

    def peel(self, y: np.ndarray, ne: int) -> np.ndarray:
        """The cochain on the tree edges whose curl is y: each tree edge
        carries the sum of y over the subtree below it, times its node's side
        sign.  The sums pass from the leaves to the root: each round adds to
        a node what the nodes 2^j levels below it hold.  On a closed surface
        y must sum to zero."""
        below = np.append(y, 0.0)
        for up in self._jumps(len(below)):
            below += np.bincount(up[self.node], weights=below[self.node], minlength=len(below))
        x = np.zeros(ne)
        x[self.edge] = self.sign * below[self.node]
        return x

    def path_sums(self, w: np.ndarray, nt: int) -> np.ndarray:
        """Row k of ``w`` times the peel, per triangle: the sum of
        ``w[k, e] * sign`` over the tree edges e on the triangle's path to
        the root.  The sums pass from the root to the leaves: each round adds
        to a node what its ancestor 2^j levels up holds."""
        above = np.zeros((nt + 1, len(w)))
        above[self.node] = (w[:, self.edge] * self.sign).T
        for up in self._jumps(nt + 1):
            above += above[up]
        return above[:nt].T.copy()


def dual_tree(s: PLSurface) -> DualTree:
    """The breadth-first tree of the dual graph.  One numpy pass per depth
    finds the depths; then each node hangs from its first side into the
    depth before."""
    nt = len(s.triangles)
    across = s.twin.reshape(-1, 3)
    # depth[-1], the outside node's, is also what the twin -1 of a boundary side reads
    depth = np.full(nt + 1, -1)
    closed = not s.boundary_polygons
    depth[0 if closed else nt] = 0
    reached = across[0] if closed else np.flatnonzero(s.twin < 0) // 3
    height = 0
    while reached.size:
        height += 1
        reached = np.sort(reached)
        reached = reached[np.concatenate(([True], reached[1:] != reached[:-1]))]
        depth[reached] = height
        nearby = across[reached].ravel()
        reached = nearby[depth[nearby] < 0]
    node = np.flatnonzero(depth[:nt] > 0)
    side = 3 * node + (depth[across[node]] == depth[node, None] - 1).argmax(axis=1)
    parent = s.twin[side]
    return DualTree(
        node, np.where(parent < 0, nt, parent), s.edge_of[side], side_signs(s)[side], height
    )


def _solve_small(rows: list[list[float]], rhs: list[float]) -> list[float]:
    """A solution of a small square system by Gaussian elimination with
    partial pivoting, in plain floats and a fixed order.  A column whose best
    pivot is within rounding of zero is dependent and its unknown is 0; a
    row left unmet then shows in the caller's check."""
    n = len(rhs)
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    tol = 1e-12 * n * max((abs(v) for row in rows for v in row), default=0.0)
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        if r == n:
            break
        p = max(range(r, n), key=lambda i: abs(aug[i][c]))
        if abs(aug[p][c]) <= tol:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        for i in range(r + 1, n):
            factor = aug[i][c] / aug[r][c]
            if factor:
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
    x = [0.0] * n
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        x[c] = (aug[r][n] - math.fsum(aug[r][j] * x[j] for j in range(c + 1, n))) / aug[r][c]
    return x


def dual_tree_solve(
    s: PLSurface, m: np.ndarray, con_rows: list[dict[int, float]], con_rhs: list[float]
) -> np.ndarray:
    """The cochain x whose curl D x is nearest m in least squares subject to
    the rows ``con_rows`` x = ``con_rhs``, each the integral over a closed
    curve; row t of D holds the side signs of triangle t.

    Every cochain is x = P y + z with y = D x, P the peel of ``dual_tree``
    and z closed, and a closed curve's integral of z depends only on z's
    class.  So with C the constraint rows, A = C P and R = C - A D, which
    vanishes on tree edges and is an integer elsewhere (a closed curve's
    crossings of the cycle that the edge closes in the dual tree), the
    exactly independent columns of rint(R) stand for the cohomology
    generators that C sees.  Minimising |y - m|^2 subject to
    A y + R_G a = b, and sum(y) = 0 on a closed surface, is one symmetric
    system in the multipliers and the generator weights a; the form is a on
    the generator edges plus P(y - D a).
    """
    tree = dual_tree(s)
    ne, nt, nc = len(s.edge_rows), len(s.triangles), len(con_rows)
    signs = side_signs(s)
    c = np.zeros((nc, ne))
    for k, coeffs in enumerate(con_rows):
        c[k, list(coeffs)] = list(coeffs.values())
    a = tree.path_sums(c, nt)
    # R = C - A D, with A D summed over each edge's sides
    ad = np.bincount(
        (np.arange(nc)[:, None] * ne + s.edge_of).ravel(),
        weights=(np.repeat(a, 3, axis=1) * signs).ravel(),
        minlength=nc * ne,
    ).reshape(nc, ne)
    r = np.rint(c - ad).astype(np.int64)
    hit = np.flatnonzero(r.any(axis=0))
    # the distinct columns, each at its first edge, then the exactly independent ones
    first: dict[tuple[int, ...], int] = {}
    for e, column in zip(hit.tolist(), zip(*r[:, hit].tolist())):
        first.setdefault(column, e)
    distinct = list(first)
    _, pivots = linalg.rref(list(zip(*distinct)))
    gens = [first[distinct[p]] for p in pivots]
    gen_columns = [distinct[p] for p in pivots]
    if not s.boundary_polygons:
        # the curl on a closed surface sums to zero: one more row, on y alone
        a = np.vstack([a, np.ones(nt)])
        con_rhs = [*con_rhs, 0.0]
        gen_columns = [(*column, 0) for column in gen_columns]

    n = len(a) + len(gens)
    rows = [[0.0] * n for _ in range(n)]
    for k in range(len(a)):
        for l, v in enumerate((a[k] * a[k:]).sum(axis=1).tolist(), start=k):
            rows[k][l] = rows[l][k] = v
        for j, column in enumerate(gen_columns, start=len(a)):
            rows[k][j] = rows[j][k] = -float(column[k])
    rhs = (a * m).sum(axis=1) - np.asarray(con_rhs, dtype=float)
    u = _solve_small(rows, rhs.tolist() + [0.0] * len(gens))

    y = m.copy()
    for k in range(len(a)):
        y -= u[k] * a[k]
    x = np.zeros(ne)
    x[gens] = u[len(a) :]
    curl = (signs * x[s.edge_of]).reshape(-1, 3)
    return x + tree.peel(y - (curl[:, 0] + curl[:, 1] + curl[:, 2]), ne)
