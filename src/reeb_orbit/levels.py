"""Level-set machinery on PL surfaces: tracing and slab connectivity.

Level polylines are traced at regular values only (no mesh vertex sits on the
level), so every crossed triangle contains exactly one chord.  Chords are
oriented so that the sublevel set lies on the left, which is the boundary
orientation of sublevel sets on an oriented surface; all circulation and
cyclic-order conventions downstream inherit this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, LevelOnVertex, TopologyError
from .surface import EdgeKey, PLSurface, edge_key, min_labels


class DSU:
    """Union-find over arbitrary hashable items."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = self.parent.setdefault(p, p)
            x = self.parent[x]
            p = self.parent.setdefault(x, x)
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller root wins, keeps labels deterministic
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def midpoints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """0.5 * (a + b), and where a + b overflows the sum of the halves, which
    is the same float wherever the halves are normal."""
    with np.errstate(over="ignore", invalid="ignore"):
        mid = 0.5 * (a + b)
        return mid if np.isfinite(mid).all() else np.where(np.isfinite(mid), mid, 0.5 * a + 0.5 * b)


def regular_values(cuts, values) -> np.ndarray:
    """For each interval (cuts[j], cuts[j + 1]), the midpoint of its first widest gap
    between its ends and the ascending ``values`` inside it, by one maximum.reduceat.
    A DataError names the two values of a widest gap that holds no float."""
    ends = list(cuts)
    cuts, values = np.asarray(ends, dtype=float), np.asarray(values, dtype=float)
    if not np.all(cuts[:-1] < cuts[1:]):
        j = np.argmin(cuts[:-1] < cuts[1:])
        raise TopologyError(f"empty interval ({ends[j]}, {ends[j + 1]})")
    stops = np.unique(np.concatenate((values[(values > cuts[0]) & (values < cuts[-1])], cuts)))
    at = np.searchsorted(stops, cuts)
    gaps = np.diff(stops)
    widest = np.maximum.reduceat(gaps, at[:-1])
    best = np.flatnonzero(gaps == np.repeat(widest, np.diff(at)))
    best = best[np.searchsorted(best, at[:-1])]
    lo, hi = stops[best], stops[best + 1]
    mid = midpoints(lo, hi)
    # a widest gap of one ulp has no float inside it
    tight = (mid <= lo) | (mid >= hi)
    if tight.any():
        j = int(np.argmax(tight))
        raise DataError(f"no regular value separates the field values {float(lo[j])!r} and {float(hi[j])!r}")
    return mid


def pick_regular_value(lo: float, hi: float, values: np.ndarray) -> float:
    """Value in (lo, hi) farthest from every value in ``values``, which ascends."""
    return float(regular_values([lo, hi], values)[0])


class Chord(NamedTuple):
    tri: int
    entry: EdgeKey
    exit: EdgeKey


@dataclass
class LevelComponent:
    """One connected component of a regular level, as an oriented polyline."""

    t: float
    chords: list[Chord]
    is_circle: bool

    @property
    def start_key(self) -> EdgeKey:
        if self.is_circle:
            raise ValueError("circle component has no endpoints")
        return self.chords[0].entry

    @property
    def end_key(self) -> EdgeKey:
        if self.is_circle:
            raise ValueError("circle component has no endpoints")
        return self.chords[-1].exit


@dataclass(frozen=True)
class LevelTables:
    """Per-surface arrays that the level passes read.

    ``values`` holds the distinct field values in ascending order, row k of
    ``sorted_f`` the k-th smallest corner value of each triangle (so
    ``fmin``/``fmax`` are its first and last rows), ``adj`` the triangle
    pair of each interior mesh edge and ``adj_fmin``/``adj_fmax`` the field
    extent of that shared edge; ``boundary_positions`` maps each boundary edge
    key to (polygon index, position in the polygon, directed pair).
    """

    values: np.ndarray
    sorted_f: np.ndarray
    fmin: np.ndarray
    fmax: np.ndarray
    adj: np.ndarray
    adj_fmin: np.ndarray
    adj_fmax: np.ndarray
    boundary_positions: dict[EdgeKey, tuple[int, int, tuple[int, int]]]


def level_tables(s: PLSurface) -> LevelTables:
    """The surface's level tables, built on first use and kept on the surface.

    Built lazily rather than in ``PLSurface.__init__``: surfaces that are only
    realized for their topology never run a level pass.
    """
    tables = getattr(s, "_level_tables", None)
    if tables is None:
        sorted_f = np.sort(s.f[s.triangles], axis=1).T.copy()
        # the ends and the triangle pair of each interior edge, in edge order
        interior = s.edge_rows[s.edge_rows[:, 3] >= 0]
        edge_f = s.f[interior[:, :2]]
        tables = LevelTables(
            values=np.unique(s.f),
            sorted_f=sorted_f,
            fmin=sorted_f[0],
            fmax=sorted_f[2],
            adj=interior[:, 2:].astype(np.int32),
            adj_fmin=edge_f.min(axis=1),
            adj_fmax=edge_f.max(axis=1),
            boundary_positions={
                edge_key(*directed): (p, i, directed)
                for p, chain in enumerate(s.boundary_polygons)
                for i, directed in enumerate(chain)
            },
        )
        s._level_tables = tables
    return tables


def crossing_param(s: PLSurface, key: EdgeKey, t: float) -> float:
    """Parameter of the level crossing along edge (u, v), measured from u."""
    u, v = key
    return (t - s.f[u]) / (s.f[v] - s.f[u])


def trace_level(s: PLSurface, t: float) -> list[LevelComponent]:
    """All components of the level set at the regular value t."""
    return trace_levels(s, [t])[0]


def trace_levels(s: PLSurface, ts) -> list[list[LevelComponent]]:
    """The components at each of the strictly ascending regular values ``ts``, in
    the order of their smallest triangles: a segment from its boundary entry, a
    circle from the successor of its smallest triangle.  Only the walk is a loop."""
    levels = list(ts)
    t, tables = np.asarray(levels, dtype=float), level_tables(s)
    at = tables.values.take(np.searchsorted(tables.values, t), mode="clip") == t
    if at.any():
        raise LevelOnVertex(f"level {levels[at.argmax()]!r} passes through a mesh vertex")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("levels must ascend strictly")
    # the levels k with fmin < t[k] < fmax cross a triangle, by level, then triangle
    n = len(s.triangles)
    first, stop = np.searchsorted(t, tables.fmin, "right"), np.searchsorted(t, tables.fmax)
    tri, level = _expand_runs(first, stop)
    keys = np.sort(level * n + tri)
    level, tri = np.divmod(keys, n)
    corners = s.triangles[tri]
    above = s.f[corners] > t[level, None]
    # the lone corner is the one on its own side of the level; the chord crosses the
    # two sides at it, entering through the side into it when that corner is above.
    # Side i of triangle t is half-edge 3t+i, from corner i to corner i+1.
    lone_above = above.sum(axis=1) == 1
    lone = np.where(lone_above[:, None], above, ~above).argmax(axis=1)
    sides = np.where(lone_above, ((lone + 2) % 3, lone), (lone, (lone + 2) % 3))  # entry, exit
    u, v = (np.take_along_axis(corners, (sides.T + d) % 3, axis=1).T for d in (0, 1))
    lo, hi = np.minimum(u, v).tolist(), np.maximum(u, v).tolist()
    chords = list(map(Chord, tri.tolist(), zip(lo[0], hi[0]), zip(lo[1], hi[1])))
    # the crossing across the entry and the exit side, -1 on the boundary
    across = s.twin[3 * tri + sides]
    behind, ahead = np.where(across < 0, -1, np.searchsorted(keys, level * n + across)).tolist()
    out, visited = [[] for _ in levels], set()
    for start, k in enumerate(level.tolist()):
        if start in visited:
            continue
        head = start  # back to a boundary entry, or once round a circle
        while behind[head] >= 0 and behind[head] != start:
            head = behind[head]
        seq, nxt = [head], ahead[head]
        while nxt >= 0 and nxt != head:
            seq.append(nxt)
            nxt = ahead[nxt]
        visited.update(seq)
        out[k].append(LevelComponent(levels[k], [chords[i] for i in seq], behind[head] == start))
    return out


def _expand_runs(first: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(item, position) of every position in each item's run [first, stop),
    item by item; an empty or inverted run adds nothing."""
    counts = np.maximum(stop - first, 0)
    item = np.repeat(np.arange(len(first)), counts)
    return item, first[item] + np.arange(len(item)) - (np.cumsum(counts) - counts)[item]


@dataclass(frozen=True)
class SlabLabels:
    """Connected components of the open slabs {cuts[j] < f < cuts[j + 1]}.

    A node is a (slab, triangle) pair whose triangle meets the slab in a
    2-dimensional piece.  Nodes are numbered by slab, then by triangle, and
    the root of a node is the node of the smallest triangle of its component.
    """

    n_tris: int
    keys: np.ndarray  # slab * n_tris + triangle of each node, ascending
    roots: np.ndarray  # root node of each node

    def slab(self, j: int) -> slice:
        """The nodes of slab j, in ascending triangle order."""
        lo, hi = np.searchsorted(self.keys, [j * self.n_tris, (j + 1) * self.n_tris]).tolist()
        return slice(lo, hi)

    def nodes(self, slabs, tris) -> np.ndarray:
        """The node of each (slab, triangle) pair; each triangle must meet its slab."""
        want = np.asarray(slabs) * self.n_tris + np.asarray(tris)
        nodes = np.searchsorted(self.keys, want)
        if not np.array_equal(self.keys.take(nodes, mode="clip"), want):
            raise KeyError("a triangle does not meet its slab")
        return nodes

    def triangles(self, nodes) -> np.ndarray:
        return self.keys[nodes] % self.n_tris


def slab_triangle_components(s: PLSurface, cuts) -> SlabLabels:
    """Connected components of every open slab {cuts[j] < f < cuts[j + 1]},
    for ``cuts`` ascending.

    A triangle, and an interior edge, meets a contiguous run of slabs, so one
    min_labels pass over the nodes labels every slab.  The pass numbers the
    nodes triangle by triangle, as ``_expand_runs`` emits them, so that the
    node of (triangle t, slab j) is ``start[t] + j``; links join nodes of one
    slab only, so in either numbering the smallest node of a component is
    that of its smallest triangle.  One stable sort by slab then gives the
    slab-major numbering of ``SlabLabels``.
    """
    tables = level_tables(s)
    cuts = np.asarray(cuts, dtype=float)
    n = len(tables.fmin)

    def slab_runs(fmin: np.ndarray, fmax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the slabs j with fmin < cuts[j + 1] and cuts[j] < fmax
        return np.searchsorted(cuts[1:], fmin, "right"), np.searchsorted(cuts[:-1], fmax, "left")

    first, stop = slab_runs(tables.fmin, tables.fmax)
    stop[tables.fmin == tables.fmax] = 0  # a flat triangle has no area in any slab
    tri, slab = _expand_runs(first, stop)
    counts = np.maximum(stop - first, 0)
    start = np.cumsum(counts) - counts - first
    a, b = tables.adj[:, 0], tables.adj[:, 1]
    e_first, e_stop = slab_runs(tables.adj_fmin, tables.adj_fmax)
    # an edge links its two triangles in the slabs that both of them meet
    edge, e_slab = _expand_runs(e_first, np.minimum(e_stop, np.minimum(stop[a], stop[b])))
    roots = min_labels(len(tri), start[a[edge]] + e_slab, start[b[edge]] + e_slab)
    order = np.argsort(slab, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return SlabLabels(n, slab[order] * n + tri[order], rank[roots[order]])
