"""Reeb graph extraction from a validated field on a PL surface.

The sweep works band by band: between two consecutive critical values the
level topology is constant, so one traced level per band captures every edge
family.  Critical levels are handled through slab connectivity: the slab
around a critical value decomposes into one event component (containing the
critical vertex) and product pass-through components, which glue band
families into edges.  Measures are exact sums of clipped triangle areas, not
Monte Carlo samples.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InsufficientSamples,
    NotSimpleMorse,
    SlabTooWide,
    UnclassifiableTransition,
)
from .levels import (
    DSU,
    LevelComponent,
    crossing_param,
    level_tables,
    pick_regular_value,
    slab_triangle_components,
    trace_level,
)
from .reebgraph import (
    AS_IN_TABLE,
    F_REVERSED,
    MeasuredReebGraph,
    MeasureProfile,
    ReebEdge,
    ReebVertex,
)
from .surface import EdgeKey, PLSurface, validate_simple_morse

# -- vertex type lookup ---------------------------------------------------------

# (circles below, segments below, circles above, segments above) as in the table
_TRANSITIONS = {
    "I": (0, 0, 0, 1),
    "II": (0, 2, 0, 1),
    "III": (0, 1, 1, 0),
    "IV": (0, 2, 0, 2),
    "V": (1, 1, 0, 1),
    "VI": (2, 0, 1, 0),
    "VII": (0, 0, 1, 0),
}


def classify_level_transition(
    below: tuple[int, int], above: tuple[int, int]
) -> tuple[str, str]:
    """Match a (circles, segments) below/above transition to a vertex type.

    Returns (vtype, orientation); orientation is ``f-reversed`` when only the
    mirrored transition matches.  Type IV is self-mirrored.
    """
    key = (below[0], below[1], above[0], above[1])
    mirror = (above[0], above[1], below[0], below[1])
    for vtype, pattern in _TRANSITIONS.items():
        if key == pattern:
            return vtype, AS_IN_TABLE
    for vtype, pattern in _TRANSITIONS.items():
        if mirror == pattern:
            return vtype, F_REVERSED
    raise UnclassifiableTransition(f"below={below}, above={above}")


# -- extraction context ---------------------------------------------------------


@dataclass
class ExtractionContext:
    """Witness tying graph elements back to the mesh they came from.

    Each edge's members are its (band, component index) pairs in band order;
    its first member is the probe component that consumers integrate over.
    """

    surface: PLSurface
    critical_vertices: list[int]  # mesh vertex indices, sorted by f
    critical_values: list[float]
    band_values: list[float]
    band_components: list[list[LevelComponent]]
    band_regions: list[dict[int, int]]  # per band: triangle -> region root
    edge_members: dict[int, list[tuple[int, int]]]  # edge id -> [(band, comp index)]
    region_edge: dict[tuple[int, int], int]  # (band, root) -> edge id

    def band_of(self, value: float) -> int:
        j = bisect.bisect_left(self.critical_values, value) - 1
        if j < 0 or j >= len(self.band_values):
            raise ValueError(f"value {value!r} outside the regular range")
        return j

    def edge_of_component(self, value: float, comp: LevelComponent) -> int:
        j = self.band_of(value)
        return self.region_edge[(j, self.band_regions[j][comp.chords[0].tri])]

    def probe_component(self, eid: int) -> tuple[float, LevelComponent]:
        """The edge's probe level (its first band value) and its component there."""
        j, ci = self.edge_members[eid][0]
        return self.band_values[j], self.band_components[j][ci]

    def edge_triangles(self, eid: int) -> list[tuple[int, list[int]]]:
        """(band, the edge's triangles in that band's slab), in band order."""
        out = []
        for j, ci in self.edge_members[eid]:
            regions = self.band_regions[j]
            root = regions[self.band_components[j][ci].chords[0].tri]
            out.append((j, [tri for tri, r in regions.items() if r == root]))
        return out


# -- vectorized clipped areas ----------------------------------------------------


def _sorted_tri_values(s: PLSurface, tris: list[int]) -> np.ndarray:
    vals = np.sort(s.f[s.triangles[tris]], axis=1)
    return vals


def _area_below(vals: np.ndarray, areas: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Total weighted area below each level, for triangles with sorted values.

    One row of clipped fractions per level; each row is summed on its own
    with ``np.dot`` so every total is the same float as a one-level call.
    """
    f1, f2, f3 = vals[:, 0], vals[:, 1], vals[:, 2]
    t = levels[:, None]
    frac = np.zeros((len(t), len(vals)))
    lo_band = (t > f1) & (t <= f2)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (f2 - f1) * (f3 - f1)
        frac_lo = np.where(d1 > 0.0, (t - f1) ** 2 / np.where(d1 > 0, d1, 1.0), 0.0)
        d2 = (f3 - f2) * (f3 - f1)
        frac_hi = np.where(d2 > 0.0, 1.0 - (f3 - t) ** 2 / np.where(d2 > 0, d2, 1.0), 1.0)
    frac = np.where(lo_band, frac_lo, frac)
    frac = np.where((t > f2) & (t < f3), frac_hi, frac)
    frac = np.where(t >= f3, 1.0, frac)
    return np.array([np.dot(areas, row) for row in frac])


# level-by-triangle cells per broadcast of _area_below: bounds its temporaries,
# which would otherwise grow as K times T on a large region
_AREA_BLOCK_CELLS = 16384


def _region_cum(
    s: PLSurface, tris: list[int], clip_lo: float, clip_hi: float, grid: np.ndarray
) -> np.ndarray:
    """Area of the clipped region below each grid value."""
    vals = _sorted_tri_values(s, tris)
    areas = s.areas[tris]
    levels = np.concatenate(([clip_lo], np.clip(grid, clip_lo, clip_hi)))
    rows = max(1, _AREA_BLOCK_CELLS // len(vals))
    below = np.concatenate(
        [_area_below(vals, areas, levels[i : i + rows]) for i in range(0, len(levels), rows)]
    )
    return below[1:] - below[0]


# -- main extraction --------------------------------------------------------------


def extract_reeb(s: PLSurface, samples: int = 64) -> MeasuredReebGraph:
    """Measured Reeb graph of the field on s, with K = ``samples`` per edge."""
    report = validate_simple_morse(s)
    if not report.is_simple_morse:
        raise NotSimpleMorse(
            "; ".join(f"{v.code}: {v.message}" for v in report.violations)
        )
    if samples < 2:
        raise ValueError("need at least 2 samples per edge")
    criticals = report.critical_points
    m = len(criticals)
    if m < 2:
        raise NotSimpleMorse("field has fewer than two critical points")
    crit_idx = [s.index_of(c.vertex_id) for c in criticals]
    crit_vals = [c.f_value for c in criticals]

    all_f = [float(x) for x in s.f]
    band_values = [
        pick_regular_value(crit_vals[j], crit_vals[j + 1], all_f) for j in range(m - 1)
    ]
    band_components = [trace_level(s, t) for t in band_values]
    band_regions = [
        slab_triangle_components(s, crit_vals[j], crit_vals[j + 1]) for j in range(m - 1)
    ]
    # each band component must sit in its own band region
    for j, comps in enumerate(band_components):
        roots = [band_regions[j][c.chords[0].tri] for c in comps]
        if len(set(roots)) != len(roots):
            raise UnclassifiableTransition(
                f"band {j}: two level components share a region; "
                "criticality escaped validation"
            )

    # events and pass-through gluing
    dsu = DSU()
    events: list[tuple[list[int], list[int]]] = []  # (below, above) per critical level
    for j in range(m):
        lo = band_values[j - 1] if j >= 1 else -math.inf
        hi = band_values[j] if j <= m - 2 else math.inf
        slab = slab_triangle_components(s, lo, hi)
        event_root = slab[int(s.star_tri[crit_idx[j]])]
        groups: dict[int, tuple[list[int], list[int]]] = {}
        if j >= 1:
            for ci, comp in enumerate(band_components[j - 1]):
                root = slab[comp.chords[0].tri]
                groups.setdefault(root, ([], []))[0].append(ci)
        if j <= m - 2:
            for ci, comp in enumerate(band_components[j]):
                root = slab[comp.chords[0].tri]
                groups.setdefault(root, ([], []))[1].append(ci)
        below, above = groups.pop(event_root, ([], []))
        events.append((below, above))
        for root, (bs, as_) in sorted(groups.items()):
            if len(bs) != 1 or len(as_) != 1:
                raise UnclassifiableTransition(
                    f"critical level {j}: non-product slab component "
                    f"({len(bs)} below, {len(as_)} above)"
                )
            b, a = bs[0], as_[0]
            if band_components[j - 1][b].is_circle != band_components[j][a].is_circle:
                raise UnclassifiableTransition(
                    f"critical level {j}: style flips without an event"
                )
            dsu.union((j - 1, b), (j, a))

    # edge classes
    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for j, comps in enumerate(band_components):
        for ci in range(len(comps)):
            classes.setdefault(dsu.find((j, ci)), []).append((j, ci))
    for members in classes.values():
        members.sort()
        bands = [b for b, _ in members]
        if bands != list(range(bands[0], bands[-1] + 1)):
            raise UnclassifiableTransition("edge family skips a band")

    # vertex objects; critical level j is vertex j + 1
    graph_vertices: list[ReebVertex] = []
    comp_style = lambda j, ci: band_components[j][ci].is_circle  # noqa: E731
    for j, (below, above) in enumerate(events):
        below_counts = (
            sum(1 for ci in below if comp_style(j - 1, ci)),
            sum(1 for ci in below if not comp_style(j - 1, ci)),
        )
        above_counts = (
            sum(1 for ci in above if comp_style(j, ci)),
            sum(1 for ci in above if not comp_style(j, ci)),
        )
        vtype, orientation = classify_level_transition(below_counts, above_counts)
        graph_vertices.append(ReebVertex(j + 1, crit_vals[j], vtype, orientation))

    # edge objects, deterministically ordered
    edge_specs = []
    for members in classes.values():
        tail, head = members[0][0] + 1, members[-1][0] + 2
        style_flags = {band_components[j][ci].is_circle for j, ci in members}
        if len(style_flags) != 1:
            raise UnclassifiableTransition("edge family changes style between bands")
        style = "solid" if style_flags.pop() else "dashed"
        edge_specs.append((tail, head, members, style))
    edge_specs.sort(key=lambda spec: (spec[0], spec[1], spec[2][0]))

    edge_members = {eid: spec[2] for eid, spec in enumerate(edge_specs, start=1)}
    ctx = ExtractionContext(
        surface=s,
        critical_vertices=crit_idx,
        critical_values=crit_vals,
        band_values=band_values,
        band_components=band_components,
        band_regions=band_regions,
        edge_members=edge_members,
        region_edge={
            (j, band_regions[j][band_components[j][ci].chords[0].tri]): eid
            for eid, members in edge_members.items()
            for j, ci in members
        },
    )
    graph_edges: list[ReebEdge] = []
    for eid, (tail, head, _members, style) in enumerate(edge_specs, start=1):
        lo = crit_vals[tail - 1]
        hi = crit_vals[head - 1]
        grid = np.linspace(lo, hi, samples + 1)
        cum = np.zeros(samples + 1)
        for j, tris in ctx.edge_triangles(eid):
            cum += _region_cum(s, tris, crit_vals[j], crit_vals[j + 1], grid)
        cum[0] = 0.0
        if np.any(np.diff(cum) <= 0.0):
            raise UnclassifiableTransition(
                f"edge {eid}: measure profile is not strictly increasing"
            )
        profile = MeasureProfile(lo, hi, cum)
        graph_edges.append(ReebEdge(eid, tail, head, style, profile))
    graph = MeasuredReebGraph(graph_vertices, graph_edges, {}, context=ctx)

    # the lids of a cyclic-order vertex are the band levels on either side,
    # already traced, and its event slab already sorted them into below/above
    for j, (below, above) in enumerate(events):
        if graph.dashed_degree(j + 1) >= 3:
            order = _cyclic_order_walk(
                s,
                ctx,
                (band_values[j - 1], band_components[j - 1], below),
                (band_values[j], band_components[j], above),
            )
            graph.cyclic_orders[j + 1] = _canonical_rotation(order)

    graph.validate()
    return graph


def _canonical_rotation(order: list[int]) -> tuple[int, ...]:
    k = order.index(min(order))
    return tuple(order[k:] + order[:k])


# -- cyclic order ------------------------------------------------------------------


# a lid level: its value, its traced components, and the indices of those
# components that lie in the event component of the vertex slab
LidLevel = tuple[float, list[LevelComponent], list[int]]


def _cyclic_order_walk(
    s: PLSurface, ctx: ExtractionContext, lower: LidLevel, upper: LidLevel
) -> list[int]:
    """Order of incident dashed edges along the oriented slab boundary.

    Lids (level components bounding the vertex slab) are joined by boundary
    arcs of the surface; following the oriented closed curve and recording
    which edge each lid projects to yields the cyclic order.
    """
    # lids of the event component, with boundary-orientation-adjusted endpoints
    lids = []  # (edge_id, in_event, pstart = (key, level), pend = (key, level))
    for (level, comps, event_indices), is_upper in ((lower, False), (upper, True)):
        for ci, comp in enumerate(comps):
            if comp.is_circle:
                continue
            in_event = ci in event_indices
            eid = ctx.edge_of_component(level, comp) if in_event else None
            start = (comp.start_key, level)
            end = (comp.end_key, level)
            if is_upper:
                pstart, pend = start, end
            else:
                pstart, pend = end, start
            lids.append((eid, in_event, pstart, pend))

    positions = level_tables(s).boundary_positions
    markers: dict[int, list[tuple[float, int, str]]] = {}
    marker_sort: dict[tuple[EdgeKey, float], tuple[int, float]] = {}
    for (key, level) in {p for lid in lids for p in (lid[2], lid[3])}:
        if key not in positions:
            raise UnclassifiableTransition(
                f"level component endpoint on interior edge {key}"
            )
        p, i, (u, v) = positions[key]
        t = crossing_param(s, key, level)
        if (u, v) != key:
            t = 1.0 - t
        marker_sort[(key, level)] = (p, i + t)
    for li, (eid, in_event, pstart, pend) in enumerate(lids):
        for point, role in ((pstart, "start"), (pend, "end")):
            p, pos = marker_sort[point]
            markers.setdefault(p, []).append((pos, li, role))
    for lst in markers.values():
        lst.sort()

    def successor(point: tuple[EdgeKey, float]) -> tuple[int, str]:
        p, pos = marker_sort[point]
        lst = markers[p]
        idx = next(i for i, (q, _, _) in enumerate(lst) if q == pos)
        _, li, role = lst[(idx + 1) % len(lst)]
        return li, role

    event_lids = [li for li, lid in enumerate(lids) if lid[1]]
    if not event_lids:
        raise UnclassifiableTransition("vertex has no dashed lids")
    start_li = min(event_lids, key=lambda li: lids[li][0])
    order = []
    li = start_li
    while True:
        order.append(lids[li][0])
        nxt, role = successor(lids[li][3])
        if not lids[nxt][1] or role != "start":
            raise UnclassifiableTransition(
                "slab boundary walk left the event component; orientation data "
                "is inconsistent"
            )
        li = nxt
        if li == start_li:
            break
    if sorted(order) != sorted(lids[k][0] for k in event_lids):
        raise UnclassifiableTransition("slab boundary walk missed a lid")
    return order


def ensure_context(s: PLSurface, graph: MeasuredReebGraph) -> ExtractionContext:
    """Extraction witness for (s, graph), re-extracting when detached.

    Extraction is deterministic, so a graph serialized and reloaded can be
    re-attached to its surface by re-extracting and checking element-wise
    equality of the result.  The checked context is attached to the graph,
    so later calls with the same surface do not extract again.
    """
    if graph.context is not None and graph.context.surface is s:
        return graph.context
    fresh = extract_reeb(s, samples=graph.edges[0].profile.samples)
    if len(fresh.vertices) != len(graph.vertices) or len(fresh.edges) != len(graph.edges):
        raise NotSimpleMorse("graph does not match the surface's extraction")
    for a, b in zip(fresh.vertices, graph.vertices):
        if (a.id, a.f, a.vtype, a.orientation) != (b.id, b.f, b.vtype, b.orientation):
            raise NotSimpleMorse("graph does not match the surface's extraction")
    for a, b in zip(fresh.edges, graph.edges):
        if (a.id, a.tail, a.head, a.style) != (b.id, b.tail, b.head, b.style):
            raise NotSimpleMorse("graph does not match the surface's extraction")
        if abs(a.mass - b.mass) > 1e-9 * max(1.0, abs(a.mass)):
            raise NotSimpleMorse("graph measures do not match the surface's extraction")
    if fresh.cyclic_orders != graph.cyclic_orders:
        raise NotSimpleMorse("graph cyclic orders do not match the surface's extraction")
    graph.context = fresh.context
    return graph.context


def cyclic_order(
    s: PLSurface,
    graph: MeasuredReebGraph,
    vertex_id: int,
    eps: Optional[float] = None,
) -> tuple[int, ...]:
    """Cyclic order of dashed edges at a vertex, from a slab of half-width eps.

    The slab is auto-shrunk to stay strictly between adjacent critical values;
    the result does not depend on eps within that range.
    """
    ctx: ExtractionContext = graph.context
    if ctx is None or ctx.surface is not s:
        ctx = ensure_context(s, graph)
    v = graph.vertex(vertex_id)
    degree = graph.dashed_degree(vertex_id)
    if degree < 2:
        raise ValueError(f"vertex {vertex_id} has fewer than two dashed edges")
    if degree == 2:
        return _canonical_rotation([e.id for e in graph.dashed_edges_at(vertex_id)])
    j = ctx.critical_values.index(v.f)
    gap_below = v.f - ctx.critical_values[j - 1] if j >= 1 else math.inf
    gap_above = ctx.critical_values[j + 1] - v.f if j + 1 < len(ctx.critical_values) else math.inf
    gap = min(gap_below, gap_above)
    if not math.isfinite(gap) or gap <= 0.0:
        raise SlabTooWide(f"no room around critical value {v.f!r}")
    eff = gap / 3.0 if eps is None else min(eps, gap / 3.0)
    if eff <= 0.0:
        raise SlabTooWide(f"slab half-width {eps!r} cannot be shrunk to a proper one")
    all_f = [float(x) for x in s.f]
    lo_val = pick_regular_value(v.f - eff, v.f, all_f)
    hi_val = pick_regular_value(v.f, v.f + eff, all_f)
    slab = slab_triangle_components(s, lo_val, hi_val)
    event_root = slab[int(s.star_tri[ctx.critical_vertices[j]])]

    def lid_level(t: float) -> LidLevel:
        comps = trace_level(s, t)
        return t, comps, [
            ci for ci, c in enumerate(comps) if slab.get(c.chords[0].tri) == event_root
        ]

    order = _cyclic_order_walk(s, ctx, lid_level(lo_val), lid_level(hi_val))
    return _canonical_rotation(order)


# -- measure asymptotics -------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticFit:
    vertex_id: int
    model: str  # sqrt | log | linear
    leading_coefficient: float
    exponent_estimate: float
    residual: float


_MODEL_OF_TYPE = {
    "I": "sqrt",
    "II": "sqrt",
    "III": "sqrt",
    "IV": "log",
    "V": "log",
    "VI": "log",
    "VII": "linear",
}


def _vertex_side_samples(
    g: MeasuredReebGraph, vertex_id: int, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """(distance from critical value, accumulated mass) nearest the vertex."""
    v = g.vertex(vertex_id)
    cands = [e for e in g.edges_at(vertex_id) if e.profile.samples >= window]
    if not cands:
        raise InsufficientSamples(
            f"vertex {vertex_id}: no incident edge with >= {window} samples"
        )
    e = max(cands, key=lambda e: (e.mass, -e.id))
    grid = e.profile.grid()
    cum = e.profile.cumulative
    if e.tail == vertex_id:
        deltas = grid[1 : window + 1] - v.f
        masses = cum[1 : window + 1]
    else:
        deltas = v.f - grid[-(window + 1) : -1][::-1]
        masses = (cum[-1] - cum[-(window + 1) : -1])[::-1]
    return np.asarray(deltas, dtype=float), np.asarray(masses, dtype=float)


def _power_fit(deltas: np.ndarray, masses: np.ndarray) -> tuple[float, float, float]:
    X = np.log(deltas)
    Y = np.log(masses)
    A = np.column_stack([X, np.ones_like(X)])
    (slope, intercept), *_ = np.linalg.lstsq(A, Y, rcond=None)
    pred = np.exp(intercept + slope * X)
    residual = float(np.sqrt(np.mean((masses - pred) ** 2)) / np.sqrt(np.mean(masses**2)))
    return float(slope), float(np.exp(intercept)), residual


def _log_model_fit(deltas: np.ndarray, masses: np.ndarray) -> tuple[float, float, float]:
    A = np.column_stack([deltas * np.log(deltas), deltas])
    (alpha, beta), *_ = np.linalg.lstsq(A, masses, rcond=None)
    pred = A @ np.array([alpha, beta])
    residual = float(np.sqrt(np.mean((masses - pred) ** 2)) / np.sqrt(np.mean(masses**2)))
    return float(alpha), float(beta), residual


def fit_vertex_asymptotics(
    g: MeasuredReebGraph, vertex_id: int, window: int = 16
) -> AsymptoticFit:
    """Least-squares fit of the measure growth law at a vertex.

    The exponent comes from a log-log fit of accumulated mass against
    distance to the critical value; the reported residual is the one of the
    model family the vertex type prescribes (sqrt family at boundary
    extrema, t*log t at saddles, plain power law at interior extrema).
    """
    deltas, masses = _vertex_side_samples(g, vertex_id, window)
    exponent, coeff, power_res = _power_fit(deltas, masses)
    model = _MODEL_OF_TYPE[g.vertex(vertex_id).vtype]
    if model == "log":
        alpha, _beta, log_res = _log_model_fit(deltas, masses)
        return AsymptoticFit(vertex_id, model, alpha, exponent, log_res)
    return AsymptoticFit(vertex_id, model, coeff, exponent, power_res)


def saddle_model_residuals(
    g: MeasuredReebGraph, vertex_id: int, window: int = 16
) -> tuple[float, float]:
    """(log-model residual, power-model residual) at a saddle vertex."""
    deltas, masses = _vertex_side_samples(g, vertex_id, window)
    _, _, power_res = _power_fit(deltas, masses)
    _, _, log_res = _log_model_fit(deltas, masses)
    return log_res, power_res
