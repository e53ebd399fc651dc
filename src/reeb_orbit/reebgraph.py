"""Measured Reeb graph data model.

Vertices carry one of the seven singular-level types together with an
orientation bit: ``as-in-table`` is the transition exactly as tabulated,
``f-reversed`` its mirror under negating the field.  Type IV is its own
mirror and always records ``as-in-table``.  Edges are oriented towards
increasing field value, carry a style (solid for circle level families,
dashed for segment families), and a sampled cumulative measure profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .errors import DataError, InvalidGraph

VERTEX_TYPES = ("I", "II", "III", "IV", "V", "VI", "VII")
AS_IN_TABLE = "as-in-table"
F_REVERSED = "f-reversed"

# (dashed_in, dashed_out, solid_in, solid_out) per (type, orientation)
_INCIDENCE = {
    ("I", AS_IN_TABLE): (0, 1, 0, 0),
    ("I", F_REVERSED): (1, 0, 0, 0),
    ("II", AS_IN_TABLE): (2, 1, 0, 0),
    ("II", F_REVERSED): (1, 2, 0, 0),
    ("III", AS_IN_TABLE): (1, 0, 0, 1),
    ("III", F_REVERSED): (0, 1, 1, 0),
    ("IV", AS_IN_TABLE): (2, 2, 0, 0),
    ("V", AS_IN_TABLE): (1, 1, 1, 0),
    ("V", F_REVERSED): (1, 1, 0, 1),
    ("VI", AS_IN_TABLE): (0, 0, 2, 1),
    ("VI", F_REVERSED): (0, 0, 1, 2),
    ("VII", AS_IN_TABLE): (0, 0, 0, 1),
    ("VII", F_REVERSED): (0, 0, 1, 0),
}


@dataclass
class MeasureProfile:
    """Cumulative measure samples on a uniform field grid over one edge."""

    f_lo: float
    f_hi: float
    cumulative: np.ndarray

    def __post_init__(self) -> None:
        self.cumulative = np.asarray(self.cumulative, dtype=float)

    @property
    def mass(self) -> float:
        return float(self.cumulative[-1])

    @property
    def samples(self) -> int:
        return len(self.cumulative) - 1

    def grid(self) -> np.ndarray:
        return np.linspace(self.f_lo, self.f_hi, len(self.cumulative))

    def value_at(self, x: float) -> float:
        """Cumulative mass below level x, by linear interpolation."""
        return float(np.interp(x, self.grid(), self.cumulative))

    def partial_moment(self, a: float, b: float) -> float:
        """Trapezoid-style moment of the field over [a, b]: sum of slab
        midpoints times slab mass increments on the sample grid."""
        if not (self.f_lo <= a <= b <= self.f_hi):
            raise ValueError("moment interval outside the edge range")
        grid = self.grid()
        stops = [a] + [float(g) for g in grid if a < g < b] + [b]
        parts = []
        prev_x, prev_c = stops[0], self.value_at(stops[0])
        for x in stops[1:]:
            c = self.value_at(x)
            parts.append(0.5 * (x + prev_x) * (c - prev_c))
            prev_x, prev_c = x, c
        return float(math.fsum(parts))

    def check(self) -> None:
        if len(self.cumulative) < 2:
            raise InvalidGraph("profile needs at least two samples")
        # NaN slips through the order checks below, inf through the mass sum
        if not np.all(np.isfinite(self.cumulative)):
            raise DataError("profile samples must be finite")
        if not self.f_lo < self.f_hi:
            raise InvalidGraph("profile range must be increasing")
        if self.cumulative[0] != 0.0:
            raise InvalidGraph("profile must start at zero")
        if np.any(np.diff(self.cumulative) <= 0.0):
            raise InvalidGraph("profile must be strictly increasing")


@dataclass
class ReebVertex:
    id: int
    f: float
    vtype: str
    orientation: str = AS_IN_TABLE


@dataclass
class ReebEdge:
    id: int
    tail: int
    head: int
    style: str
    profile: MeasureProfile

    @property
    def mass(self) -> float:
        return self.profile.mass

    @property
    def dashed(self) -> bool:
        return self.style == "dashed"


@dataclass
class MeasuredReebGraph:
    vertices: list[ReebVertex]
    edges: list[ReebEdge]
    cyclic_orders: dict[int, tuple[int, ...]] = field(default_factory=dict)
    # extraction witness linking graph elements back to a mesh; never serialized
    context: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._vertex_by_id = {v.id: v for v in self.vertices}
        self._edge_by_id = {e.id: e for e in self.edges}
        self.cyclic_orders = {int(k): tuple(v) for k, v in self.cyclic_orders.items()}

    # -- lookups ---------------------------------------------------------------

    def vertex(self, vid: int) -> ReebVertex:
        return self._vertex_by_id[vid]

    def edge(self, eid: int) -> ReebEdge:
        return self._edge_by_id[eid]

    def edges_at(self, vid: int) -> list[ReebEdge]:
        return [e for e in self.edges if e.tail == vid or e.head == vid]

    def dashed_edges_at(self, vid: int) -> list[ReebEdge]:
        return [e for e in self.edges_at(vid) if e.dashed]

    def dashed_degree(self, vid: int) -> int:
        return len(self.dashed_edges_at(vid))

    def solid_edges(self) -> list[ReebEdge]:
        return [e for e in self.edges if not e.dashed]

    def dashed_edges(self) -> list[ReebEdge]:
        return [e for e in self.edges if e.dashed]

    @property
    def total_mass(self) -> float:
        return float(math.fsum(e.mass for e in self.edges))

    def f_range(self) -> tuple[float, float]:
        fs = [v.f for v in self.vertices]
        return min(fs), max(fs)

    def other_end(self, edge: ReebEdge, vid: int) -> int:
        return edge.head if edge.tail == vid else edge.tail

    # -- validity ----------------------------------------------------------------

    def validate(self) -> None:
        """Raise InvalidGraph on any structural invariant violation."""
        if not self.vertices or not self.edges:
            raise InvalidGraph("graph needs at least one vertex and one edge")
        if len(self._vertex_by_id) != len(self.vertices):
            raise InvalidGraph("duplicate vertex ids")
        if len(self._edge_by_id) != len(self.edges):
            raise InvalidGraph("duplicate edge ids")
        if any(e.id < 1 for e in self.edges):
            raise InvalidGraph("edge ids must be positive (signed cycle encoding)")
        fvals = [v.f for v in self.vertices]
        if not all(math.isfinite(f) for f in fvals):
            raise DataError("vertex field values must be finite")
        if len(set(fvals)) != len(fvals):
            raise InvalidGraph("vertex field values must be pairwise distinct")

        for e in self.edges:
            if e.tail not in self._vertex_by_id or e.head not in self._vertex_by_id:
                raise InvalidGraph(f"edge {e.id} references unknown vertex")
            if not self.vertex(e.tail).f < self.vertex(e.head).f:
                raise InvalidGraph(f"edge {e.id} not oriented towards increasing f")
            if e.style not in ("solid", "dashed"):
                raise InvalidGraph(f"edge {e.id} has unknown style {e.style!r}")
            e.profile.check()
            if e.profile.f_lo != self.vertex(e.tail).f or e.profile.f_hi != self.vertex(e.head).f:
                raise InvalidGraph(f"edge {e.id} profile range mismatch")

        for v in self.vertices:
            if v.vtype not in VERTEX_TYPES:
                raise InvalidGraph(f"unknown vertex type {v.vtype!r}")
            if (v.vtype, v.orientation) not in _INCIDENCE:
                raise InvalidGraph(
                    f"vertex {v.id}: invalid orientation {v.orientation!r} for {v.vtype}"
                )
            din = sum(1 for e in self.edges if e.head == v.id and e.dashed)
            dout = sum(1 for e in self.edges if e.tail == v.id and e.dashed)
            sin = sum(1 for e in self.edges if e.head == v.id and not e.dashed)
            sout = sum(1 for e in self.edges if e.tail == v.id and not e.dashed)
            if (din, dout, sin, sout) != _INCIDENCE[(v.vtype, v.orientation)]:
                raise InvalidGraph(
                    f"vertex {v.id}: incidence {(din, dout, sin, sout)} does not "
                    f"match type {v.vtype}/{v.orientation}"
                )

        for v in self.vertices:
            deg = self.dashed_degree(v.id)
            if deg >= 3:
                order = self.cyclic_orders.get(v.id)
                if order is None:
                    raise InvalidGraph(f"vertex {v.id} needs a cyclic order")
                if sorted(order) != sorted(e.id for e in self.dashed_edges_at(v.id)):
                    raise InvalidGraph(f"vertex {v.id}: cyclic order is not a "
                                       "permutation of its dashed edges")
            elif v.id in self.cyclic_orders:
                raise InvalidGraph(f"vertex {v.id} must not carry a cyclic order")

        self._check_connected()

    def _check_connected(self) -> None:
        adj: dict[int, list[int]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            adj[e.tail].append(e.head)
            adj[e.head].append(e.tail)
        start = self.vertices[0].id
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self.vertices):
            raise InvalidGraph("graph is disconnected")
