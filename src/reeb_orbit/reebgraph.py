"""Measured Reeb graph data model.

Vertices carry one of the seven singular-level types together with an
orientation bit: ``as-in-table`` is the transition exactly as tabulated in
``TRANSITIONS``, ``f-reversed`` its mirror under negating the field.  Type
IV is its own mirror and always records ``as-in-table``.  Edges are
oriented towards increasing field value, carry a style (solid for circle
level families, dashed for segment families), and a sampled cumulative
measure profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from .errors import DataError, InvalidGraph
from .levels import midpoints

VERTEX_TYPES = ("I", "II", "III", "IV", "V", "VI", "VII")
AS_IN_TABLE = "as-in-table"
F_REVERSED = "f-reversed"

# (circles below, segments below, circles above, segments above) per type, as
# tabulated; the f-reversed transition swaps below and above
TRANSITIONS = {
    "I": (0, 0, 0, 1),
    "II": (0, 2, 0, 1),
    "III": (0, 1, 1, 0),
    "IV": (0, 2, 0, 2),
    "V": (1, 1, 0, 1),
    "VI": (2, 0, 1, 0),
    "VII": (0, 0, 1, 0),
}


def transition(vtype: str, orientation: str) -> tuple[int, int, int, int]:
    """(circles below, segments below, circles above, segments above) of a
    vertex of this type and orientation."""
    cb, sb, ca, sa = TRANSITIONS[vtype]
    return (cb, sb, ca, sa) if orientation == AS_IN_TABLE else (ca, sa, cb, sb)


# (dashed_in, dashed_out, solid_in, solid_out) per (type, orientation); a
# type that is its own mirror records as-in-table only
_INCIDENCE = {
    (vtype, orientation): (sb, sa, cb, ca)
    for vtype in VERTEX_TYPES
    for orientation in (AS_IN_TABLE, F_REVERSED)
    if orientation == AS_IN_TABLE or transition(vtype, F_REVERSED) != TRANSITIONS[vtype]
    for cb, sb, ca, sa in [transition(vtype, orientation)]
}


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
        increments = np.diff(np.interp(x, grid, self.cumulative))
        return math.fsum((midpoints(x[:-1], x[1:]) * increments).tolist())

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


def fsum_or_inf(terms: list[float]) -> float:
    """math.fsum, or an infinity of the sign of the plain sum where it overflows."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.copysign(math.inf, sum(terms))


class ProfileTable:
    """Profiles in order, their samples as one float array: profile i's are
    the ``sizes[i]`` samples before ``ends[i]``.  Each kernel reads every
    profile in O(1) numpy calls over the samples; the moments add one
    ``math.fsum`` per profile."""

    def __init__(self, profiles: list[MeasureProfile]) -> None:
        cums = [p.cumulative for p in profiles]
        self.lo = np.array([p.f_lo for p in profiles], dtype=float)
        self.hi = np.array([p.f_hi for p in profiles], dtype=float)
        self.sizes = np.fromiter(map(len, cums), np.intp, len(cums))
        self.ends = self.sizes.cumsum()
        self.samples = np.concatenate([np.empty(0), *cums])

    def screen(self) -> np.ndarray:
        """Per profile, whether ``MeasureProfile.check`` fails on it.  A step
        is charged to its upper sample, and a first sample must be zero."""
        flat, sizes = self.samples, self.sizes
        bad = ~np.isfinite(flat)
        bad[1:] |= flat[1:] <= flat[:-1]
        first = (self.ends - sizes)[sizes > 0]
        bad[first] = flat[first] != 0.0
        flagged = (sizes < 2) | ~(self.lo < self.hi)
        if first.size:
            flagged[sizes > 0] |= np.logical_or.reduceat(bad, first)
        return flagged

    def moments(self) -> list[float]:
        """Per profile, its slab midpoints times its slab increments, summed
        by ``math.fsum``.  The grid is ``np.linspace``'s to the bit: sample i
        of n + 1 at i * step + lo, step = (hi - lo) / n, or at i / n *
        (hi - lo) + lo when the step is zero, and the last sample at hi."""
        flat, sizes, ends = self.samples, self.sizes, self.ends
        at = np.repeat(np.arange(len(sizes)), sizes)
        i = np.arange(len(flat)) - (ends - sizes)[at]
        n = np.maximum(sizes - 1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            span = self.hi - self.lo
            zero = span / n == 0.0
            x = i / np.where(zero, n, 1)[at] * np.where(zero, span, span / n)[at] + self.lo[at]
            x[ends[sizes > 0] - 1] = self.hi[sizes > 0]
            terms = (midpoints(x[:-1], x[1:]) * (flat[1:] - flat[:-1])).tolist()
        bounds = zip((ends - sizes).tolist(), ends.tolist())
        return [fsum_or_inf(terms[a : max(a, b - 1)]) for a, b in bounds]


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

    # -- profiles: edges and their profiles are not changed once the graph is used

    @cached_property
    def profile_table(self) -> ProfileTable:
        return ProfileTable([e.profile for e in self.edges])

    @cached_property
    def edge_moments(self) -> dict[int, float]:
        """Field moment of each edge, by id."""
        return dict(zip([e.id for e in self.edges], self.profile_table.moments()))

    @cached_property
    def solid_moments(self) -> dict[int, float]:
        """``edge_moments`` of the solid edges, integrating no dashed profile."""
        solids = self.solid_edges()
        moments = ProfileTable([e.profile for e in solids]).moments() if solids else []
        return dict(zip([e.id for e in solids], moments))

    # -- validity ----------------------------------------------------------------

    def validate(self) -> None:
        """Raise InvalidGraph on any structural invariant violation."""
        if not self.vertices or not self.edges:
            raise InvalidGraph("graph needs at least one vertex and one edge")
        if len(self._vertex_by_id) != len(self.vertices):
            raise InvalidGraph("duplicate vertex ids")
        if len(self._edge_by_id) != len(self.edges):
            raise InvalidGraph("duplicate edge ids")
        if min(self._edge_by_id) < 1:
            raise InvalidGraph("edge ids must be positive (signed cycle encoding)")
        fvals = [v.f for v in self.vertices]
        if not all(map(math.isfinite, fvals)):
            raise DataError("vertex field values must be finite")
        if len(set(fvals)) != len(fvals):
            raise InvalidGraph("vertex field values must be pairwise distinct")

        f_of = {v.id: v.f for v in self.vertices}
        # (dashed_in, dashed_out, solid_in, solid_out), dashed edge ids and
        # neighbours per vertex
        incidence = {vid: [0, 0, 0, 0] for vid in f_of}
        dashed_at: dict[int, list[int]] = {vid: [] for vid in f_of}
        nbrs: dict[int, list[int]] = {vid: [] for vid in f_of}
        for e, suspect in zip(self.edges, self.profile_table.screen().tolist()):
            tail, head, p = e.tail, e.head, e.profile
            f_tail, f_head = f_of.get(tail), f_of.get(head)
            if f_tail is None or f_head is None:
                raise InvalidGraph(f"edge {e.id} references unknown vertex")
            if not f_tail < f_head:
                raise InvalidGraph(f"edge {e.id} not oriented towards increasing f")
            dashed = e.style == "dashed"
            if not dashed and e.style != "solid":
                raise InvalidGraph(f"edge {e.id} has unknown style {e.style!r}")
            if suspect:
                p.check()
            if p.f_lo != f_tail or p.f_hi != f_head:
                raise InvalidGraph(f"edge {e.id} profile range mismatch")
            incidence[head][0 if dashed else 2] += 1
            incidence[tail][1 if dashed else 3] += 1
            if dashed:
                dashed_at[tail].append(e.id)
                dashed_at[head].append(e.id)
            nbrs[tail].append(head)
            nbrs[head].append(tail)

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
            if len(dashed_at[v.id]) >= 3:
                order = self.cyclic_orders.get(v.id)
                if order is None:
                    raise InvalidGraph(f"vertex {v.id} needs a cyclic order")
                if sorted(order) != sorted(dashed_at[v.id]):
                    raise InvalidGraph(f"vertex {v.id}: cyclic order is not a "
                                       "permutation of its dashed edges")
            elif v.id in self.cyclic_orders:
                raise InvalidGraph(f"vertex {v.id} must not carry a cyclic order")

        seen, todo = {self.vertices[0].id}, [self.vertices[0].id]
        while todo:
            for w in nbrs[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) < len(f_of):
            raise InvalidGraph("graph is disconnected")
