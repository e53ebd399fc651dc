"""Level-set machinery on PL surfaces: tracing and slab connectivity.

Level polylines are traced at regular values only (no mesh vertex sits on the
level), so every crossed triangle contains exactly one chord.  Chords are
oriented so that the sublevel set lies on the left, which is the boundary
orientation of sublevel sets on an oriented surface; all circulation and
cyclic-order conventions downstream inherit this choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LevelOnVertex, TopologyError
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


def pick_regular_value(lo: float, hi: float, values: np.ndarray) -> float:
    """Value in (lo, hi) maximizing distance to every value in ``values``,
    which is sorted ascending."""
    inside = values[np.searchsorted(values, lo, "right") : np.searchsorted(values, hi, "left")]
    stops = np.concatenate(([lo], inside, [hi]))
    gaps = np.diff(stops)
    best = int(np.argmax(gaps))
    if not gaps[best] > 0.0:
        raise TopologyError(f"empty interval ({lo}, {hi})")
    return float(0.5 * (stops[best] + stops[best + 1]))


@dataclass(frozen=True)
class Chord:
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
        edge_f = s.f[s.interior_ends]
        tables = LevelTables(
            values=np.unique(s.f),
            sorted_f=sorted_f,
            fmin=sorted_f[0],
            fmax=sorted_f[2],
            adj=s.interior_tris,
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
    if np.any(s.f == t):
        raise LevelOnVertex(f"level {t!r} passes through a mesh vertex")
    tables = level_tables(s)
    crossed = np.flatnonzero((tables.fmin < t) & (tables.fmax > t))
    corners = s.triangles[crossed]
    above = s.f[corners] > t
    # the lone corner is the one on its own side of the level; the chord
    # crosses the two sides at it, entering through the side into it when
    # that corner is above.  Side i of triangle t is half-edge 3t+i, from
    # corner i to corner i+1.
    lone_above = above.sum(axis=1) == 1
    lone = np.where(lone_above[:, None], above, ~above).argmax(axis=1)
    into = (lone + 2) % 3
    rows = np.arange(len(crossed))
    tris = crossed.tolist()
    keys, across = [], []
    for side in (np.where(lone_above, into, lone), np.where(lone_above, lone, into)):
        u, v = corners[rows, side], corners[rows, (side + 1) % 3]
        keys.append(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
        # the triangle across the side, -1 on the boundary
        across.append(dict(zip(tris, s.twin[3 * crossed + side].tolist())))
    chords = {tri: Chord(tri, entry, out) for tri, entry, out in zip(tris, *keys)}
    behind, ahead = across

    components: list[LevelComponent] = []
    visited: set[int] = set()
    for start in tris:
        if start in visited:
            continue
        # walk backwards to a boundary entry (or detect a circle)
        first = start
        is_circle = False
        while True:
            prev = behind[first]
            if prev < 0:
                break
            if prev == start:
                is_circle = True
                break
            first = prev
        seq = [first]
        visited.add(first)
        cur = first
        while True:
            nxt = ahead[cur]
            if nxt < 0 or nxt == first:
                break
            seq.append(nxt)
            visited.add(nxt)
            cur = nxt
        components.append(LevelComponent(t, [chords[tri] for tri in seq], is_circle))
    return components


def _expand_runs(first: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(item, slab) of every slab in each item's run [first, stop), item by
    item; an empty or inverted run adds nothing."""
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
    min_labels pass over the nodes labels every slab: links join nodes of
    one slab only, so the smallest node of a component is that of its
    smallest triangle.
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
    nodes = np.sort(slab * n + tri)
    a, b = tables.adj[:, 0], tables.adj[:, 1]
    e_first, e_stop = slab_runs(tables.adj_fmin, tables.adj_fmax)
    # an edge links its two triangles in the slabs that both of them meet
    edge, slab = _expand_runs(e_first, np.minimum(e_stop, np.minimum(stop[a], stop[b])))
    roots = min_labels(
        len(nodes),
        np.searchsorted(nodes, slab * n + a[edge]),
        np.searchsorted(nodes, slab * n + b[edge]),
    )
    return SlabLabels(n, nodes, roots)
