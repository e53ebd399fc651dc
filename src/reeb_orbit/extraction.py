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
import itertools
import math
import sys
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DataError, InsufficientSamples, NotSimpleMorse, UnclassifiableTransition
from .levels import (
    LevelComponent,
    SlabLabels,
    crossing_param,
    level_tables,
    regular_values,
    slab_triangle_components,
    trace_levels,
)
from .reebgraph import (
    AS_IN_TABLE,
    F_REVERSED,
    VERTEX_TYPES,
    MeasuredReebGraph,
    MeasureProfile,
    ReebEdge,
    ReebVertex,
    transition,
)
from .surface import PLSurface, validate_simple_morse

# -- vertex type lookup ---------------------------------------------------------

# (circles below, segments below, circles above, segments above) to (type,
# orientation); as-in-table comes last, so it wins where a type is its own mirror
_KIND_OF = {
    transition(vtype, orientation): (vtype, orientation)
    for orientation in (F_REVERSED, AS_IN_TABLE)
    for vtype in VERTEX_TYPES
}


def classify_level_transition(
    below: tuple[int, int], above: tuple[int, int]
) -> tuple[str, str]:
    """Match a (circles, segments) below/above transition to a vertex type.

    Returns (vtype, orientation); orientation is ``f-reversed`` when only the
    mirrored transition matches.  Type IV is self-mirrored.
    """
    kind = _KIND_OF.get((*below, *above))
    if kind is None:
        raise UnclassifiableTransition(f"below={below}, above={above}")
    return kind


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
    band_labels: SlabLabels  # the band slabs between consecutive critical values
    node_edge: np.ndarray  # edge id of each band node's region
    edge_members: dict[int, list[tuple[int, int]]]  # edge id -> [(band, comp index)]
    cyclic_orders: dict[int, tuple[int, ...]]  # from the slab boundary walk

    def band_of(self, value: float) -> int:
        j = bisect.bisect_left(self.critical_values, value) - 1
        if j < 0 or j >= len(self.band_values):
            raise ValueError(f"value {value!r} outside the regular range")
        return j

    def edge_of_component(self, value: float, comp: LevelComponent) -> int:
        node = self.band_labels.nodes(self.band_of(value), comp.chords[0].tri)
        return int(self.node_edge[node])

    def probe_component(self, eid: int) -> tuple[float, LevelComponent]:
        """The edge's probe level (its first band value) and its component there."""
        j, ci = self.edge_members[eid][0]
        return self.band_values[j], self.band_components[j][ci]

    def regions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(edge, band, bounds, tris) of the regions in (edge, band) order, from one stable
        sort of the band nodes by edge: region r is ``tris[bounds[r]:bounds[r + 1]]``."""
        labels, bands = self.band_labels, len(self.band_values)
        order = np.argsort(self.node_edge, kind="stable")
        codes = self.node_edge[order] * bands + labels.keys[order] // labels.n_tris
        at = np.flatnonzero(np.diff(codes, prepend=-1))  # the first node of each region
        return *np.divmod(codes[at], bands), np.append(at, len(order)), labels.triangles(order)

    def edge_triangles(self, eid: int) -> list[tuple[int, np.ndarray]]:
        """(band, the edge's triangles in that band's slab, ascending), in band order."""
        edge, band, at, tris = self.regions()
        return [(int(band[r]), tris[at[r] : at[r + 1]]) for r in np.flatnonzero(edge == eid)]


# -- vectorized clipped areas ----------------------------------------------------


# the normal range of doubles: a product b * c outside it has overflowed or
# lost digits, and a / b * a / c stands in for a**2 / (b * c)
_NORMAL = (sys.float_info.min, sys.float_info.max)


def _square_ratio(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a**2 / (b * c) for 0 <= a <= b <= c, at any scale of the field."""
    d = b * c
    return np.where((d >= _NORMAL[0]) & (d <= _NORMAL[1]), a**2 / d, (a / b) * (a / c))


def _frac_below(vals: np.ndarray, cells: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Fraction of a triangle's area below a level, per (level, triangle)
    cell: ``cells`` holds the cells' triangles as columns of ``vals``, whose
    rows are the triangles' corner values in ascending order, and ``t`` the
    cells' levels.  Only the cells whose level cuts the triangle's interior
    take the quadratic formula."""
    f1, f2, f3 = vals
    top = f3[cells]
    frac = (t >= top).astype(float)
    inside = (t > f1[cells]) & (t < top)
    low = t <= f2[cells]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        i = np.flatnonzero(inside & low)
        lo, mid, hi = vals[:, cells[i]]
        frac[i] = _square_ratio(t[i] - lo, mid - lo, hi - lo)
        i = np.flatnonzero(inside & ~low)
        lo, mid, hi = vals[:, cells[i]]
        frac[i] = 1.0 - _square_ratio(hi - t[i], hi - mid, hi - lo)
    return frac


# (level, triangle) cells per call of _frac_below: bounds its temporaries,
# which would otherwise grow as K times T
_AREA_BLOCK_CELLS = 8192


def _profiles(ctx: ExtractionContext, samples: int) -> list[MeasureProfile]:
    """Profile step: each edge's cumulative area on ``samples`` + 1 uniform
    values from its tail's field value to its head's, in edge id order.

    The regions are stacked with the edge's grid clipped to their band as
    levels, and the clipped fractions of all (level, triangle) cells are
    evaluated in blocks of whole rows, at most _AREA_BLOCK_CELLS cells unless
    one row is larger.  Each level's area and each edge's sum of rows is one
    ``np.add.reduceat`` segment, whose float depends only on the values summed.
    """
    s, crit = ctx.surface, np.asarray(ctx.critical_values)
    width = samples + 1
    region_edge, region_band, region_bounds, stacked = ctx.regions()
    first_region = np.searchsorted(region_edge, np.arange(1, len(ctx.edge_members) + 1))
    last_band = np.maximum.reduceat(region_band, first_region)
    f_lo, f_hi = crit[region_band[first_region]], crit[last_band + 1]
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(~np.isfinite(f_hi - f_lo))
    if wide.size:
        j = wide[0]
        raise DataError(f"edge {j + 1}: field range from {f_lo[j]} to {f_hi[j]} is not finite")
    grids = np.linspace(f_lo, f_hi, width, axis=1)
    band_lo, band_hi = crit[region_band, None], crit[region_band + 1, None]
    row_level = np.clip(grids[region_edge - 1], band_lo, band_hi).ravel()
    # row r * width + i is level i of region r, over the region's triangles;
    # bounds[row]:bounds[row + 1] are its cells in the stack of all rows
    bounds = np.concatenate(([0], np.cumsum(np.repeat(np.diff(region_bounds), width))))
    below = np.empty(len(row_level))
    first = 0
    while first < len(below):
        base = bounds[first]
        stop = max(first + 1, int(np.searchsorted(bounds, base + _AREA_BLOCK_CELLS, "right")) - 1)
        offsets, n = bounds[first:stop] - base, np.diff(bounds[first : stop + 1])
        origin = region_bounds[np.arange(first, stop) // width] - offsets
        cells = stacked[np.repeat(origin, n) + np.arange(bounds[stop] - base)]
        frac = _frac_below(level_tables(s).sorted_f, cells, np.repeat(row_level[first:stop], n))
        below[first:stop] = np.add.reduceat(s.areas[cells] * frac, offsets)
        del frac  # its block is freed before the next one is evaluated
        first = stop
    rows = below.reshape(-1, width)
    rows -= rows[:, :1]
    cums = np.add.reduceat(rows, first_region, axis=0)
    return [MeasureProfile(lo, hi, cum) for lo, hi, cum in zip(f_lo.tolist(), f_hi.tolist(), cums)]


# -- main extraction --------------------------------------------------------------


def extract_reeb(s: PLSurface, samples: int = 64) -> MeasuredReebGraph:
    """Measured Reeb graph of the field on s, with K = ``samples`` per edge."""
    if samples < 2:
        raise DataError(f"need at least 2 samples per edge, got {samples}")
    vertices, edge_specs, ctx = _witness(s)
    profiles = _profiles(ctx, samples)
    flat = np.any(np.diff([p.cumulative for p in profiles], axis=1) <= 0.0, axis=1)
    if flat.any():
        raise UnclassifiableTransition(
            f"edge {flat.argmax() + 1}: measure profile is not strictly increasing"
        )
    graph_edges = [
        ReebEdge(eid, *spec, p) for eid, spec, p in zip(ctx.edge_members, edge_specs, profiles)
    ]
    graph = MeasuredReebGraph(vertices, graph_edges, ctx.cyclic_orders, context=ctx)
    graph.validate()
    return graph


def _witness(s: PLSurface) -> tuple[
    list[ReebVertex], list[tuple[int, int, str]], ExtractionContext
]:
    """Witness step: the extraction without its measure profiles; returns the
    vertices, each edge's (tail, head, style) in id order and the context,
    which holds the cyclic orders."""
    report = validate_simple_morse(s)
    if not report.is_simple_morse:
        raise NotSimpleMorse(
            "; ".join(f"{v.code}: {v.message}" for v in report.violations)
        )
    criticals = report.critical_points
    m = len(criticals)
    if m < 2:
        raise NotSimpleMorse("field has fewer than two critical points")
    crit_idx = [s.index_of(c.vertex_id) for c in criticals]
    crit_vals = [c.f_value for c in criticals]

    band_values = regular_values(crit_vals, level_tables(s).values).tolist()
    band_components = trace_levels(s, band_values)
    band_labels = slab_triangle_components(s, crit_vals)
    # the slab around critical level j lies between the band levels beside it
    event_labels = slab_triangle_components(s, [-math.inf, *band_values, math.inf])
    # root nodes of each band component's region: in its band slab, and in
    # the event slabs of the critical levels below and above the band
    counts = [len(comps) for comps in band_components]
    comp_band = np.repeat(np.arange(m - 1), counts)
    comp_tri = [c.chords[0].tri for comps in band_components for c in comps]
    bounds = np.cumsum([0, *counts]).tolist()

    def by_band(roots: np.ndarray) -> list[list[int]]:
        roots = roots.tolist()
        return [roots[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    band_roots = by_band(band_labels.roots[band_labels.nodes(comp_band, comp_tri)])
    lower_roots, upper_roots = map(
        by_band, event_labels.roots[event_labels.nodes([comp_band, comp_band + 1], comp_tri)]
    )
    for j, roots in enumerate(band_roots):
        if len(set(roots)) != len(roots):
            raise UnclassifiableTransition(
                f"band {j}: two level components share a region; "
                "criticality escaped validation"
            )
    # the event component of critical level j holds the star of its vertex
    event_roots = event_labels.roots[event_labels.nodes(range(m), s.star_tri[crit_idx])].tolist()

    # events, and the one band component that each pass-through component
    # continues into across the critical level above it
    glued: dict[tuple[int, int], tuple[int, int]] = {}
    events: list[tuple[list[int], list[int]]] = []  # (below, above) per critical level
    for j in range(m):
        groups: dict[int, tuple[list[int], list[int]]] = {}
        if j >= 1:
            for ci, root in enumerate(upper_roots[j - 1]):
                groups.setdefault(root, ([], []))[0].append(ci)
        if j <= m - 2:
            for ci, root in enumerate(lower_roots[j]):
                groups.setdefault(root, ([], []))[1].append(ci)
        below, above = groups.pop(event_roots[j], ([], []))
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
            glued[(j - 1, b)] = (j, a)

    # vertex objects; critical level j is vertex j + 1
    def counts(j: int, indices: list[int]) -> tuple[int, int]:
        circles = sum(band_components[j][ci].is_circle for ci in indices)
        return circles, len(indices) - circles

    graph_vertices: list[ReebVertex] = []
    for j, (below, above) in enumerate(events):
        vtype, orientation = classify_level_transition(counts(j - 1, below), counts(j, above))
        graph_vertices.append(ReebVertex(j + 1, crit_vals[j], vtype, orientation))

    # each edge is the chain, one band per link, from a component that nothing
    # continues into; every link kept its style, so the first member's is the edge's
    continued = set(glued.values())
    edge_specs = []
    for j, comps in enumerate(band_components):
        for ci, comp in enumerate(comps):
            if (j, ci) not in continued:
                members = [(j, ci)]
                while members[-1] in glued:
                    members.append(glued[members[-1]])
                style = "solid" if comp.is_circle else "dashed"
                edge_specs.append((j + 1, members[-1][0] + 2, members, style))
    edge_specs.sort(key=lambda spec: (spec[0], spec[1], spec[2][0]))

    edge_members = {eid: spec[2] for eid, spec in enumerate(edge_specs, start=1)}
    # each band region's edge, at its root node
    root_edge = np.zeros(len(band_labels.keys), dtype=int)
    for eid, members in edge_members.items():
        for j, ci in members:
            root_edge[band_roots[j][ci]] = eid
    ctx = ExtractionContext(
        surface=s,
        critical_vertices=crit_idx,
        critical_values=crit_vals,
        band_values=band_values,
        band_components=band_components,
        band_labels=band_labels,
        node_edge=root_edge[band_labels.roots],
        edge_members=edge_members,
        cyclic_orders={},
    )
    # the lids of a cyclic-order vertex are the band levels on either side,
    # already traced, and its event slab already sorted them into below/above
    dashed = [v for tail, head, _, style in edge_specs if style == "dashed" for v in (tail, head)]
    for j, (below, above) in enumerate(events):
        if dashed.count(j + 1) >= 3:
            order = _cyclic_order_walk(
                s,
                ctx,
                (band_values[j - 1], band_components[j - 1], below),
                (band_values[j], band_components[j], above),
            )
            ctx.cyclic_orders[j + 1] = _canonical_rotation(order)
    return graph_vertices, [(t, h, style) for t, h, _, style in edge_specs], ctx


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
            ends = ((comp.start_key, level), (comp.end_key, level))
            lids.append((eid, in_event, *(ends if is_upper else ends[::-1])))

    # every lid end by polygon, then position along it; the end after each one
    # on its polygon, cyclically, is where the boundary arc from it leads
    positions = level_tables(s).boundary_positions
    ends = []  # (polygon, position, lid index, role)
    for li, (_, _, pstart, pend) in enumerate(lids):
        for (key, level), role in ((pstart, "start"), (pend, "end")):
            if key not in positions:
                raise UnclassifiableTransition(
                    f"level component endpoint on interior edge {key}"
                )
            p, i, (u, v) = positions[key]
            t = crossing_param(s, key, level)
            ends.append((p, i + (t if (u, v) == key else 1.0 - t), li, role))
    ends.sort()
    successor: dict[tuple[int, str], tuple[int, str]] = {}
    for _, polygon_ends in itertools.groupby(ends, key=itemgetter(0)):
        ring = [end[2:] for end in polygon_ends]
        successor.update(zip(ring, ring[1:] + ring[:1]))

    event_lids = [li for li, lid in enumerate(lids) if lid[1]]
    if not event_lids:
        raise UnclassifiableTransition("vertex has no dashed lids")
    start_li = min(event_lids, key=lambda li: lids[li][0])
    order = []
    li = start_li
    while True:
        order.append(lids[li][0])
        nxt, role = successor[li, "end"]
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
    """Extraction witness for (s, graph), re-attaching a detached graph.

    Extraction is deterministic, so a reloaded graph is re-attached by the
    witness step and equality of the vertex and the edge of each id, in any
    list order; masses come from a one-interval grid, whose last sample is
    that of any K-sample profile, bit for bit.
    The checked context stays attached for later calls with the same surface.
    """
    if graph.context is not None and graph.context.surface is s:
        return graph.context
    vertices, edge_specs, ctx = _witness(s)
    if (
        len(vertices) != len(graph.vertices)
        or len(edge_specs) != len(graph.edges)
        or {v.id: (v.f, v.vtype, v.orientation) for v in vertices}
        != {v.id: (v.f, v.vtype, v.orientation) for v in graph.vertices}
        or dict(enumerate(edge_specs, start=1))
        != {e.id: (e.tail, e.head, e.style) for e in graph.edges}
    ):
        raise NotSimpleMorse("graph does not match the surface's extraction")
    for eid, profile in zip(ctx.edge_members, _profiles(ctx, 1)):
        mass, stated = profile.mass, graph.edge(eid).mass
        if abs(mass - stated) > 1e-9 * max(1.0, abs(mass)):
            raise NotSimpleMorse("graph measures do not match the surface's extraction")
    if ctx.cyclic_orders != graph.cyclic_orders:
        raise NotSimpleMorse("graph cyclic orders do not match the surface's extraction")
    graph.context = ctx
    return graph.context


def cyclic_order(s: PLSurface, graph: MeasuredReebGraph, vertex_id: int) -> tuple[int, ...]:
    """Cyclic order of the dashed edges at a vertex: the only one on two
    edges, and on three or more the one the slab boundary walk of the
    extraction found."""
    ctx = ensure_context(s, graph)
    graph.vertex(vertex_id)  # an unknown id raises KeyError
    dashed = [e.id for e in graph.dashed_edges_at(vertex_id)]
    if len(dashed) < 2:
        raise ValueError(f"vertex {vertex_id} has fewer than two dashed edges")
    if len(dashed) == 2:
        return _canonical_rotation(dashed)
    return ctx.cyclic_orders[vertex_id]


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
