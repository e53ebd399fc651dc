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
from typing import Any

import numpy as np

from .errors import DataError, InvalidGraph
from .levels import DSU

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


def _slab_moment(x: np.ndarray, c: np.ndarray) -> float:
    return float(math.fsum((0.5 * (x[1:] + x[:-1]) * (c[1:] - c[:-1])).tolist()))


@dataclass
class MeasureProfile:
    """Cumulative measure samples on a uniform field grid over one edge."""

    f_lo: float
    f_hi: float
    cumulative: np.ndarray
    # the last sample, read once: profiles are never mutated; NaN when there
    # are no samples, which check() rejects
    mass: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.cumulative = np.asarray(self.cumulative, dtype=float)
        self.mass = float(self.cumulative[-1]) if self.cumulative.size else math.nan

    @property
    def samples(self) -> int:
        return len(self.cumulative) - 1

    def grid(self) -> np.ndarray:
        return np.linspace(self.f_lo, self.f_hi, len(self.cumulative))

    def partial_moment(self, a: float, b: float) -> float:
        """Trapezoid-style moment of the field over [a, b]: sum of slab
        midpoints times slab mass increments on the sample grid."""
        if not (self.f_lo <= a <= b <= self.f_hi):
            raise ValueError("moment interval outside the edge range")
        grid = self.grid()
        x = np.concatenate(([a], grid[(a < grid) & (grid < b)], [b]))
        return _slab_moment(x, np.interp(x, grid, self.cumulative))

    def moment(self) -> float:
        """``partial_moment`` over the whole edge, whose stops are the grid
        and whose interpolated values are the samples themselves."""
        return _slab_moment(self.grid(), self.cumulative)

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

        flagged = self._flag_profiles()
        # (dashed_in, dashed_out, solid_in, solid_out) per vertex
        incidence = {v.id: [0, 0, 0, 0] for v in self.vertices}
        parts = DSU()
        for e, suspect in zip(self.edges, flagged):
            if e.tail not in self._vertex_by_id or e.head not in self._vertex_by_id:
                raise InvalidGraph(f"edge {e.id} references unknown vertex")
            if not self.vertex(e.tail).f < self.vertex(e.head).f:
                raise InvalidGraph(f"edge {e.id} not oriented towards increasing f")
            if e.style not in ("solid", "dashed"):
                raise InvalidGraph(f"edge {e.id} has unknown style {e.style!r}")
            if suspect:
                e.profile.check()
            if e.profile.f_lo != self.vertex(e.tail).f or e.profile.f_hi != self.vertex(e.head).f:
                raise InvalidGraph(f"edge {e.id} profile range mismatch")
            incidence[e.head][0 if e.dashed else 2] += 1
            incidence[e.tail][1 if e.dashed else 3] += 1
            parts.union(e.tail, e.head)

        for v in self.vertices:
            if v.vtype not in VERTEX_TYPES:
                raise InvalidGraph(f"unknown vertex type {v.vtype!r}")
            if (v.vtype, v.orientation) not in _INCIDENCE:
                raise InvalidGraph(
                    f"vertex {v.id}: invalid orientation {v.orientation!r} for {v.vtype}"
                )
            counts = tuple(incidence[v.id])
            if counts != _INCIDENCE[(v.vtype, v.orientation)]:
                raise InvalidGraph(
                    f"vertex {v.id}: incidence {counts} does not "
                    f"match type {v.vtype}/{v.orientation}"
                )

        for v in self.vertices:
            if sum(incidence[v.id][:2]) >= 3:
                order = self.cyclic_orders.get(v.id)
                if order is None:
                    raise InvalidGraph(f"vertex {v.id} needs a cyclic order")
                if sorted(order) != sorted(e.id for e in self.dashed_edges_at(v.id)):
                    raise InvalidGraph(f"vertex {v.id}: cyclic order is not a "
                                       "permutation of its dashed edges")
            elif v.id in self.cyclic_orders:
                raise InvalidGraph(f"vertex {v.id} must not carry a cyclic order")

        if len({parts.find(v.id) for v in self.vertices}) > 1:
            raise InvalidGraph("graph is disconnected")

    def _flag_profiles(self) -> list[bool]:
        """Per edge, whether ``MeasureProfile.check`` may fail on its profile.

        All samples are screened at once; a step is charged to its upper
        sample, and the first sample of each profile must be zero instead.
        """
        cums = [e.profile.cumulative for e in self.edges]
        sizes = np.array([len(c) for c in cums])
        flat = np.concatenate(cums)
        starts = (np.cumsum(sizes) - sizes)[sizes > 0]
        bad = ~np.isfinite(flat)
        bad[1:] |= np.diff(flat) <= 0.0
        bad[starts] = flat[starts] != 0.0
        bad_samples = np.bincount(np.repeat(np.arange(len(cums)), sizes), weights=bad,
                                  minlength=len(cums))
        return [n > 0 or len(c) < 2 or not e.profile.f_lo < e.profile.f_hi
                for n, c, e in zip(bad_samples.tolist(), cums, self.edges)]
