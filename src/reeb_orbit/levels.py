"""Level-set machinery on PL surfaces: tracing and slab connectivity.

Level polylines are traced at regular values only (no mesh vertex sits on the
level), so every crossed triangle contains exactly one chord.  Chords are
oriented so that the sublevel set lies on the left, which is the boundary
orientation of sublevel sets on an oriented surface; all circulation and
cyclic-order conventions downstream inherit this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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


def pick_regular_value(lo: float, hi: float, avoid: Iterable[float]) -> float:
    """Value in (lo, hi) maximizing distance to every value in ``avoid``."""
    inside = sorted({float(v) for v in avoid if lo < v < hi})
    stops = [lo] + inside + [hi]
    best_mid, best_gap = None, -1.0
    for a, b in zip(stops, stops[1:]):
        if b - a > best_gap:
            best_gap = b - a
            best_mid = 0.5 * (a + b)
    if best_mid is None or best_gap <= 0.0:
        raise TopologyError(f"empty interval ({lo}, {hi})")
    return best_mid


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

    def triangles(self) -> list[int]:
        return [c.tri for c in self.chords]

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

    ``adj`` holds the triangle pair of each interior mesh edge and
    ``adj_fmin``/``adj_fmax`` the field extent of that shared edge;
    ``boundary_positions`` maps each boundary edge key to (polygon index,
    position in the polygon, directed pair).
    """

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
        tri_f = s.f[s.triangles]
        edge_f = s.f[s.interior_ends]
        tables = LevelTables(
            fmin=tri_f.min(axis=1),
            fmax=tri_f.max(axis=1),
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


def _tri_chord(s: PLSurface, tri: int, t: float) -> Chord:
    """Chord of a triangle with vertices on both sides of the level t."""
    verts = [int(x) for x in s.triangles[tri]]
    above = [s.f[v] > t for v in verts]
    # lone vertex: the one on its own side of the level
    if above.count(True) == 1:
        i = above.index(True)
        lone_above = True
    else:
        i = above.index(False)
        lone_above = False
    x = verts[i]
    prev_e = edge_key(verts[(i + 2) % 3], x)
    next_e = edge_key(x, verts[(i + 1) % 3])
    if lone_above:
        return Chord(tri, prev_e, next_e)
    return Chord(tri, next_e, prev_e)


def trace_level(s: PLSurface, t: float) -> list[LevelComponent]:
    """All components of the level set at the regular value t."""
    if np.any(s.f == t):
        raise LevelOnVertex(f"level {t!r} passes through a mesh vertex")
    tables = level_tables(s)
    crossed = np.flatnonzero((tables.fmin < t) & (tables.fmax > t))
    chords = {tri: _tri_chord(s, tri, t) for tri in crossed.tolist()}

    def neighbor(tri: int, key: EdgeKey) -> Optional[int]:
        ts = s.edge_tris[key]
        if len(ts) == 1:
            return None
        return ts[0] if ts[1] == tri else ts[1]

    components: list[LevelComponent] = []
    visited: set[int] = set()
    for start in chords:
        if start in visited:
            continue
        # walk backwards to a boundary entry (or detect a circle)
        first = start
        is_circle = False
        while True:
            prev = neighbor(first, chords[first].entry)
            if prev is None:
                break
            if prev == start:
                is_circle = True
                break
            first = prev
        seq = [first]
        visited.add(first)
        cur = first
        while True:
            nxt = neighbor(cur, chords[cur].exit)
            if nxt is None or nxt == first:
                break
            seq.append(nxt)
            visited.add(nxt)
            cur = nxt
        components.append(LevelComponent(t, [chords[tri] for tri in seq], is_circle))
    return components


def slab_triangle_components(
    s: PLSurface, lo: float, hi: float
) -> dict[int, int]:
    """Connected components of the open slab {lo < f < hi}.

    Returns a map from each triangle meeting the slab in a 2-dimensional piece
    to a deterministic component root (smallest triangle index), in
    increasing triangle order.
    """
    tables = level_tables(s)
    member = (tables.fmin < hi) & (tables.fmax > lo) & (tables.fmin < tables.fmax)
    a, b = tables.adj[:, 0], tables.adj[:, 1]
    linked = (tables.adj_fmin < hi) & (tables.adj_fmax > lo) & member[a] & member[b]
    label = min_labels(len(member), a[linked], b[linked])
    members = np.flatnonzero(member)
    return dict(zip(members.tolist(), label[members].tolist()))
