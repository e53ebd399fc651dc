"""Surface realization of abstract measured Reeb graphs.

Every edge becomes a fibered block (triangulated cylinder for solid edges,
rectangle strip for dashed ones) whose per-band triangle areas reproduce the
edge's cumulative measure profile exactly at the profile grid.  Blocks are
glued along critical levels by per-type local models: extrema cap with a
fan, interior saddles identify block ends onto a wedge of two loops, saddles
with boundary legs route block ends through short branch paths meeting at
the critical point.  Cyclic orders at vertices with three or more dashed
edges are honored by which strips share a boundary leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidGraph
from .graph_core import iv_order
from .reebgraph import AS_IN_TABLE, MeasuredReebGraph, ReebEdge
from .surface import PLSurface, TopologySummary, topology_summary


@dataclass
class RealizationResult:
    surface: PLSurface


class _Builder:
    def __init__(self) -> None:
        self.f: list[float] = []
        self.xy: list[list[float]] = []
        self.tris: list[tuple[int, int, int]] = []
        self.areas: list[float] = []

    def vertex(self, f: float, x: float, y: float) -> int:
        self.f.append(float(f))
        self.xy.append([float(x), float(y)])
        return len(self.f) - 1

    def triangle(self, a: int, b: int, c: int, area: float) -> None:
        self.tris.append((a, b, c))
        self.areas.append(float(area))

    def finish(self) -> PLSurface:
        ids = list(range(1, len(self.f) + 1))
        return PLSurface(
            ids,
            np.array(self.f),
            np.array(self.tris, dtype=int),
            np.array(self.areas),
            np.array(self.xy),
        )


# Ports describe how a block end attaches at a critical level: either a slot
# sequence (cyclic for solid edges, open for dashed ones) or a cone apex.
_CAP = "cap"
_SLOTS = "slots"


def _band(
    b: _Builder,
    low: list[int],
    high: list[int],
    cyclic: bool,
    area: float,
) -> None:
    """Triangulate between two slot sequences with p+q uniform triangles."""
    p = len(low) if cyclic else len(low) - 1
    q = len(high) if cyclic else len(high) - 1
    if p < 1 or q < 1:
        raise InvalidGraph("band needs at least one step on each side")
    total = p + q
    each = area / total
    i = j = 0
    while i < p or j < q:
        advance_low = i < p and (j >= q or (i + 1) * q <= (j + 1) * p)
        if advance_low:
            b.triangle(low[i], low[(i + 1) % len(low)], high[j % len(high)], each)
            i += 1
        else:
            b.triangle(low[i % len(low)], high[(j + 1) % len(high)], high[j % len(high)], each)
            j += 1


def _cap_band(
    b: _Builder, apex: int, slots: list[int], cyclic: bool, area: float, apex_on_top: bool
) -> None:
    q = len(slots) if cyclic else len(slots) - 1
    each = area / q
    for j in range(q):
        u, v = slots[j % len(slots)], slots[(j + 1) % len(slots)]
        if apex_on_top:
            b.triangle(u, v, apex, each)
        else:
            b.triangle(apex, v, u, each)


def _effective_grid(edge: ReebEdge) -> tuple[np.ndarray, np.ndarray]:
    """(grid values, band areas); a one-band profile gets a midpoint row."""
    grid = edge.profile.grid()
    bands = np.diff(edge.profile.cumulative)
    if len(bands) == 1:
        mid = 0.5 * (grid[0] + grid[-1])
        grid = np.array([grid[0], mid, grid[-1]])
        bands = np.array([bands[0] / 2.0, bands[0] / 2.0])
    return grid, bands


def realize(g: MeasuredReebGraph, resolution: int = 8) -> RealizationResult:
    """Build a surface whose extracted measured Reeb graph is isomorphic to g."""
    g.validate()
    n_solid = max(3, resolution // 2)
    n_dashed = max(2, resolution // 2)
    b = _Builder()

    # ports[(edge id, end)] with end in {"tail", "head"}
    ports: dict[tuple[int, str], tuple[str, object]] = {}

    for v in sorted(g.vertices, key=lambda v: v.id):
        c = v.f
        x0 = -10.0 * v.id

        def new(x_off: float) -> int:
            return b.vertex(c, x0 + x_off, c)

        in_d, out_d, in_s, out_s = (sorted(es, key=lambda e: e.id) for es in g.incidence[v.id])

        def loop(w_loc: Optional[int] = None) -> list[int]:
            if w_loc is None:
                w_loc = new(0.0)
            return [w_loc] + [new(1.0 + k) for k in range(n_solid - 1)]

        kind = (v.vtype, v.orientation)
        as_in_table = v.orientation == AS_IN_TABLE
        # the table's below and above edges (solid, dashed), and the end by
        # which each attaches here: f-reversed swaps them
        ins, outs = (in_s, in_d, "head"), (out_s, out_d, "tail")
        (below_s, below_d, low), (above_s, above_d, high) = (ins, outs) if as_in_table else (outs, ins)
        if v.vtype in ("I", "VII"):
            ports[((above_s or above_d)[0].id, high)] = (_CAP, new(0.0))
        elif v.vtype == "VI":
            w = new(0.0)
            a = loop(w)
            bb = loop(w)
            ports[(below_s[0].id, low)] = (_SLOTS, a)
            ports[(below_s[1].id, low)] = (_SLOTS, bb)
            ports[(above_s[0].id, high)] = (_SLOTS, a + bb)
        elif v.vtype == "V":
            a = loop()
            w = a[0]
            p = new(-2.0)
            q = new(float(n_solid) + 1.0)
            ports[(below_s[0].id, low)] = (_SLOTS, a)
            ports[(below_d[0].id, low)] = (_SLOTS, [p, w, q])
            ports[(above_d[0].id, high)] = (_SLOTS, [p] + a + [w, q])
        elif v.vtype == "III":
            a = loop()
            ports[(below_d[0].id, low)] = (_SLOTS, a + [a[0]])
            ports[(above_s[0].id, high)] = (_SLOTS, a)
        elif v.vtype == "II":
            w = new(0.0)
            la = new(-2.0)
            lb = new(2.0)
            # the slab boundary walk runs opposite to the slot direction, so
            # the cyclic successor of the single-leg edge attaches at the
            # second leaf; the mirror reverses the walk
            order = list(g.cyclic_orders[v.id])
            single = above_d[0]
            k = order.index(single.id)
            step = 1 if as_in_table else -1
            ports[(order[(k + step) % 3], low)] = (_SLOTS, [la, w])
            ports[(order[(k - step) % 3], low)] = (_SLOTS, [w, lb])
            ports[(single.id, high)] = (_SLOTS, [la, w, lb])
        elif v.vtype == "IV":
            w = new(0.0)
            order = iv_order(g, v.id)
            l01 = new(2.0)
            l12 = new(3.0)
            l23 = new(-2.0)
            l30 = new(-3.0)
            x0e, x1e, x2e, x3e = order
            ports[(x0e, "head")] = (_SLOTS, [l30, w, l01])
            ports[(x1e, "tail")] = (_SLOTS, [l12, w, l01])
            ports[(x2e, "head")] = (_SLOTS, [l12, w, l23])
            ports[(x3e, "tail")] = (_SLOTS, [l30, w, l23])
        else:
            raise InvalidGraph(f"unknown vertex type {kind!r}")

    # blocks
    for e in sorted(g.edges, key=lambda e: e.id):
        grid, band_areas = _effective_grid(e)
        cyclic = not e.dashed
        tail_port = ports[(e.id, "tail")]
        head_port = ports[(e.id, "head")]
        rows: list[tuple[str, object]] = [tail_port]
        width = n_solid if cyclic else n_dashed + 1
        for i in range(1, len(grid) - 1):
            row = [
                b.vertex(grid[i], 20.0 * e.id + k, grid[i]) for k in range(width)
            ]
            rows.append((_SLOTS, row))
        rows.append(head_port)

        for i in range(len(band_areas)):
            low_kind, low_val = rows[i]
            high_kind, high_val = rows[i + 1]
            area = float(band_areas[i])
            if low_kind == _CAP and high_kind == _CAP:
                raise InvalidGraph(f"edge {e.id}: degenerate cap-to-cap band")
            if low_kind == _CAP:
                _cap_band(b, low_val, list(high_val), cyclic, area, apex_on_top=False)
            elif high_kind == _CAP:
                _cap_band(b, high_val, list(low_val), cyclic, area, apex_on_top=True)
            else:
                _band(b, list(low_val), list(high_val), cyclic, area)

    return RealizationResult(b.finish())


def surface_of(g: MeasuredReebGraph) -> TopologySummary:
    """Topology of the realizing surface at the default resolution; backend of
    the realized genus."""
    return topology_summary(realize(g).surface)
