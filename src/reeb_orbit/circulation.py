"""One-forms on meshes and circulation data on Reeb graphs.

A discrete one-form is a real cochain on mesh edges; its line integrals over
level polylines use the interpolation that is affine in barycentric
coordinates and consistent with the cochain values on triangle sides, which
makes the per-triangle Stokes identity exact.  Circulation functions live on
solid graph edges as endpoint limits tied together by the Newton-Leibniz
relation against the measure profile and by the Kirchhoff rule at vertices
incident to solid edges only.  The class of a form on the dashed part is
computed by lifting a cycle basis of the dashed subgraph to boundary arcs
joined through singular level trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .dualtree import dual_tree_solve, side_signs
from .errors import DataError, InfeasibleTarget, InvalidGraph, LevelOnVertex, check_tolerances
from .extraction import ExtractionContext, ensure_context
from .levels import DSU, LevelComponent, crossing_param, level_tables, trace_level
from .reebgraph import MeasuredReebGraph, ReebEdge, fsum_or_inf
from .surface import EdgeKey, PLSurface, edge_key

# -- data types --------------------------------------------------------------------


@dataclass
class DiscreteOneForm:
    """Cochain on mesh edges: ``values[e]`` is the integral over edge e of
    ``surface.edge_rows``, from its lower to its higher internal vertex
    index."""

    surface: PLSurface
    values: np.ndarray

    def scaled(self, factor: float) -> "DiscreteOneForm":
        return DiscreteOneForm(self.surface, factor * self.values)

    def plus(self, other: "DiscreteOneForm") -> "DiscreteOneForm":
        return DiscreteOneForm(self.surface, self.values + other.values)


def exact_form(s: PLSurface, potential: np.ndarray) -> DiscreteOneForm:
    """Coboundary of a vertex potential; vanishes on every closed loop."""
    potential = np.asarray(potential)
    values = potential[s.edge_rows[:, 1]] - potential[s.edge_rows[:, 0]]
    return DiscreteOneForm(s, values.astype(float))


@dataclass
class CirculationFunction:
    """Per solid edge: (limit at the tail, limit at the head)."""

    limits: dict[int, tuple[float, float]]

    def shifted(self, delta: "CirculationFunction", factor: float = 1.0) -> "CirculationFunction":
        out = {}
        for eid, (t, h) in self.limits.items():
            dt, dh = delta.limits.get(eid, (0.0, 0.0))
            out[eid] = (t + factor * dt, h + factor * dh)
        return CirculationFunction(out)


@dataclass
class XiClass:
    """Coordinates of a form class on a cycle basis of the dashed subgraph.

    Basis cycles are closed walks of signed edge ids (positive along the
    edge's own orientation)."""

    basis: list[tuple[int, ...]]
    coords: np.ndarray

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float)


@dataclass
class AugmentedCirculationGraph:
    graph: MeasuredReebGraph
    circulation: CirculationFunction
    xi: XiClass


@dataclass
class CirculationCheck:
    ok: bool
    newton_leibniz: dict[int, float]
    kirchhoff: dict[int, float]
    max_residual: float


@dataclass
class CirculationSolveResult:
    exists: bool
    particular: Optional[CirculationFunction]
    basis: list[CirculationFunction]
    violated_moment: Optional[float] = None


# -- graph-side operations ----------------------------------------------------------


def edge_moment(g: MeasuredReebGraph, edge: int | ReebEdge) -> float:
    """Field moment of one edge from its sampled profile."""
    return g.edge_moments[edge if isinstance(edge, int) else edge.id]


def total_moment(g: MeasuredReebGraph) -> float:
    return math.fsum(g.edge_moments.values())


def _finite_moments(g: MeasuredReebGraph) -> dict[int, float]:
    """Field moment of each solid edge, by id, integrating no dashed profile.
    Circulation tolerances are relative to total_mass * (hi - lo), so a
    DataError is raised when that scale, a moment or the sum of the moments'
    absolute values, which bounds every sum of moments formed, is not finite."""
    lo, hi = g.f_range()
    if not math.isfinite(g.total_mass * (hi - lo)):
        raise DataError(f"total mass {g.total_mass!r} times field range {hi - lo!r} is not finite")
    moments = g.solid_moments
    for eid, moment in moments.items():
        if not math.isfinite(moment):
            raise DataError(f"field moment of edge {eid} is not finite")
    if not math.isfinite(sum(map(abs, moments.values()))):
        raise DataError("sum of the solid edges' absolute field moments is not finite")
    return moments


def _solid_only_stars(g: MeasuredReebGraph) -> dict[int, tuple[list[ReebEdge], list[ReebEdge]]]:
    """(in-edges, out-edges) of each vertex that touches no dashed edge, in
    vertex order, with edges in graph order."""
    return {vid: (sin, sout) for vid, (din, dout, sin, sout) in g.incidence.items() if not din and not dout}


def check_circulation(
    g: MeasuredReebGraph, c: CirculationFunction, tol: Optional[float] = None
) -> CirculationCheck:
    """Newton-Leibniz and Kirchhoff residuals of circulation data; a DataError
    when one is beyond double range."""
    solids = g.solid_edges()
    if sorted(c.limits) != sorted(e.id for e in solids):
        raise InvalidGraph("circulation data must cover exactly the solid edges")
    moments = _finite_moments(g)
    check_tolerances(tol=tol)
    if tol is None:
        lo, hi = g.f_range()
        tol = 1e-9 * max(1.0, g.total_mass * (hi - lo))
    nl = {}
    for e in solids:
        t, h = c.limits[e.id]
        nl[e.id] = (h - t) - moments[e.id]
    kirchhoff = {
        vid: fsum_or_inf([c.limits[e.id][1] for e in ins]) - fsum_or_inf([c.limits[e.id][0] for e in outs])
        for vid, (ins, outs) in _solid_only_stars(g).items()
    }
    for what, found in (("Newton-Leibniz residual of edge", nl), ("Kirchhoff residual at vertex", kirchhoff)):
        for key, r in found.items():
            if not math.isfinite(r):
                raise DataError(f"{what} {key} is not finite")
    residuals = list(nl.values()) + list(kirchhoff.values())
    max_res = max((abs(r) for r in residuals), default=0.0)
    return CirculationCheck(max_res <= tol, nl, kirchhoff, max_res)


def solve_circulations(g: MeasuredReebGraph) -> CirculationSolveResult:
    """All circulation functions of (f, mu): a particular solution plus a
    basis of the homogeneous space.

    One unknown per solid edge (the tail limit; the head limit follows from
    the moment).  Vertices incident to a dashed edge impose no constraint;
    on an all-solid graph a solution exists exactly when the total moment
    vanishes.  The constraints are Kirchhoff's rule on the solid edges' arcs,
    with the unconstrained vertices as one ground node.  On the spanning forest
    taken in edge id order, the basis is the fundamental cycles; the
    particular solution is 0 on the arcs that close a cycle and peels each
    tree from its leaves to the ground, or to its smallest node, where the
    leftover must vanish.
    """
    solids = sorted(g.solid_edges(), key=lambda e: e.id)
    moments = _finite_moments(g)
    lo, hi = g.f_range()

    if not g.dashed_edges():
        tol = 1e-9 * max(1.0, g.total_mass) * max(1.0, hi - lo)
        tm = float(math.fsum(moments.values()))
        if abs(tm) > tol:
            return CirculationSolveResult(False, None, [], violated_moment=tm)

    stars = _solid_only_stars(g)
    node = {vid: i for i, vid in enumerate(stars)}
    ground = len(stars)
    arcs = [(node.get(e.tail, ground), node.get(e.head, ground)) for e in solids]
    # the inflow each node still lacks: minus the moments arriving at it
    need = [0.0 - math.fsum(moments[e.id] for e in ins) for ins, _ in stars.values()] + [0.0]
    up, _ = linalg.spanning_forest(arcs, [ground, *range(ground)])
    scale = max(1.0, g.total_mass * max(1.0, hi - lo))
    x = [0.0] * len(solids)
    for v in reversed(up):
        if up[v] is not None:
            p, j = up[v]
            x[j] = need[v] if arcs[j][1] == v else 0.0 - need[v]
            need[p] += need[v]
        elif v != ground and abs(need[v]) > 1e-8 * scale:
            return CirculationSolveResult(
                False, None, [], violated_moment=float(math.fsum(moments.values()))
            )

    particular = CirculationFunction(
        {e.id: (x[i], x[i] + moments[e.id]) for i, e in enumerate(solids)}
    )
    basis = [
        CirculationFunction({e.id: (float(vec[i]), float(vec[i])) for i, e in enumerate(solids)})
        for vec in linalg.nullspace(arcs)
    ]
    return CirculationSolveResult(True, particular, basis)


# -- mesh-side operations --------------------------------------------------------------


def vorticity(s: PLSurface, a: DiscreteOneForm) -> np.ndarray:
    """Per-triangle curl: boundary circulation divided by the area weight."""
    sides = (side_signs(s) * a.values[s.edge_of]).reshape(-1, 3)
    return (sides[:, 0] + sides[:, 1] + sides[:, 2]) / s.areas


def _bary_of_crossing(s: PLSurface, key: EdgeKey, t: float) -> dict[int, float]:
    u, v = key
    p = crossing_param(s, key, t)
    return {u: 1.0 - p, v: p}


def _chord_coeffs(
    s: PLSurface, tri: int, lam_p: dict[int, float], lam_q: dict[int, float]
) -> dict[int, float]:
    """Coefficients, by edge number, of the interpolated line integral along a
    straight chord.

    For triangle side (i, j) the interpolant contributes
    lam_i(P) lam_j(Q) - lam_j(P) lam_i(Q) times the side's cochain value.
    """
    a, b, c = s.triangles[tri].tolist()
    coeffs: dict[int, float] = {}
    for side, (i, j) in zip(s.edge_of[3 * tri : 3 * tri + 3].tolist(), ((a, b), (b, c), (c, a))):
        w = lam_p.get(i, 0.0) * lam_q.get(j, 0.0) - lam_p.get(j, 0.0) * lam_q.get(i, 0.0)
        if w == 0.0:
            continue
        coeffs[side] = coeffs.get(side, 0.0) + (w if i < j else -w)
    return coeffs


def _accumulate(total: dict[int, float], part: dict[int, float], factor: float = 1.0) -> None:
    for k, w in part.items():
        total[k] = total.get(k, 0.0) + factor * w


def polyline_coeffs(s: PLSurface, comp: LevelComponent) -> dict[int, float]:
    """Linear functional, by edge number, computing the integral along a
    traced level polyline."""
    out: dict[int, float] = {}
    for ch in comp.chords:
        lam_p = _bary_of_crossing(s, ch.entry, comp.t)
        lam_q = _bary_of_crossing(s, ch.exit, comp.t)
        _accumulate(out, _chord_coeffs(s, ch.tri, lam_p, lam_q))
    return out


def _evaluate(a: DiscreteOneForm, coeffs: dict[int, float]) -> float:
    edges = sorted(coeffs)
    weights = np.array([coeffs[e] for e in edges])
    return float(math.fsum((weights * a.values[edges]).tolist()))


def circulation_from_form(
    s: PLSurface, a: DiscreteOneForm, g: MeasuredReebGraph, x: tuple[int, float]
) -> float:
    """Integral of the form over the level circle above an interior point of
    a solid edge, oriented with the sublevel set on the left."""
    eid, value = x
    e = g.edge(eid)
    if e.dashed:
        raise InvalidGraph(f"edge {eid} is dashed; circulation needs a circle level")
    if not (e.profile.f_lo < value < e.profile.f_hi):
        raise ValueError(f"level {value!r} is not interior to edge {eid}")
    if np.any(s.f == value):
        raise LevelOnVertex(f"level {value!r} hits a mesh vertex; perturb the query")
    ctx = ensure_context(s, g)
    for comp in trace_level(s, value):
        if ctx.edge_of_component(value, comp) == eid:
            if not comp.is_circle:
                raise InvalidGraph(f"edge {eid} level is not a circle")
            return _evaluate(a, polyline_coeffs(s, comp))
    raise InvalidGraph(f"no level component of edge {eid} at {value!r}")


# -- lifted dashed graph ---------------------------------------------------------------

Node = tuple[str, object]  # ("x", mesh edge key) or ("v", vertex index)


@dataclass
class LiftedEdge:
    edge_id: int
    # pieces traversed in increasing field order: (directed (u, v), s_from, s_to)
    pieces: list[tuple[tuple[int, int], float, float]]
    start_node: Node
    end_node: Node

    def coeffs(self, s: PLSurface) -> dict[int, float]:
        """The integral along the pieces, by edge number."""
        ends = np.array([direction for direction, _, _ in self.pieces]).reshape(-1, 2)
        edges = s.edge_number(ends[:, 0], ends[:, 1]).tolist()
        out: dict[int, float] = {}
        for e, ((u, v), s0, s1) in zip(edges, self.pieces):
            out[e] = out.get(e, 0.0) + (s1 - s0 if u < v else -(s1 - s0))
        return out


@dataclass
class SingularTree:
    vertex_id: int
    # adjacency with the functional of each tree edge, keyed by (node, node)
    edges: list[tuple[Node, Node, dict[int, float]]]

    def path_coeffs(self, a: Node, b: Node) -> dict[int, float]:
        arcs = [(x, y) for x, y, _ in self.edges] + [(b, a)]
        cycles = linalg.fundamental_cycles(arcs)
        if not cycles or cycles[-1][0] != len(self.edges):
            raise InvalidGraph(f"singular level of vertex {self.vertex_id} is not connected")
        out: dict[int, float] = {}
        # the tree path from a to b, accumulated from its b end
        for j, sign in reversed(cycles[-1][1]):
            _accumulate(out, self.edges[j][2], sign)
        return out


@dataclass
class LiftedGraph:
    edges: dict[int, LiftedEdge]
    trees: dict[int, SingularTree]


def _lift_edge(s: PLSurface, ctx: ExtractionContext, e: ReebEdge) -> LiftedEdge:
    """Follow the boundary through the start crossing of the dashed edge's
    probe level across the edge's [lo, hi].

    The walk ascends in field value along the boundary orientation; pieces
    are clipped exactly at the crossings of lo and hi (or stop at a boundary
    vertex whose value equals an endpoint)."""
    level, comp = ctx.probe_component(e.id)
    start_key, lo, hi = comp.start_key, e.profile.f_lo, e.profile.f_hi
    p, i0, _ = level_tables(s).boundary_positions[start_key]
    chain = s.boundary_polygons[p]
    n = len(chain)

    def dir_param(key: EdgeKey, direction: tuple[int, int], value: float) -> float:
        t = crossing_param(s, key, value)
        return t if direction == key else 1.0 - t

    t0 = dir_param(start_key, chain[i0], level)
    if s.f[chain[i0][1]] < level:
        raise InvalidGraph("boundary walk does not ascend along the orientation")

    def walk(step: int, target: float) -> tuple[list[tuple[tuple[int, int], float, float]], Node]:
        """The pieces from the probe crossing along the orientation (step 1) to
        ``target`` = hi, or against it (step -1) to lo, in walk order, and the
        node where the walk stops: a boundary vertex on ``target`` or the
        crossing of ``target``; each piece keeps its ends in field order."""
        end = (1 + step) // 2  # the end of each boundary edge the walk moves toward
        pieces, idx, near = [], i0, t0
        for _ in range(2 * n + 2):
            direction = chain[idx % n]
            if step * s.f[direction[end]] >= step * target:
                key = edge_key(*direction)
                if s.f[direction[end]] == target:
                    node, far = ("v", direction[end]), float(end)
                else:
                    node, far = ("x", key), dir_param(key, direction, target)
                pieces.append((direction, *(near, far)[::step]))
                return pieces, node
            pieces.append((direction, *(near, float(end))[::step]))
            idx, near = idx + step, float(1 - end)
        raise InvalidGraph(f"boundary walk failed to reach the {('lower', 'upper')[end]} level")

    pieces, end_node = walk(1, hi)
    back, start_node = walk(-1, lo)
    # the backward stub and the first forward piece abut at the probe level
    return LiftedEdge(e.id, back[::-1] + pieces, start_node, end_node)


def _level_graph(
    s: PLSurface, ctx: ExtractionContext, vid: int
) -> tuple[Node, list[tuple[Node, Node, dict[int, float]]]]:
    """The critical vertex of graph vertex vid and the edges of its level set:
    mesh edges on the level and chords across the triangles it cuts, each with
    its functional by edge number."""
    j = vid - 1
    w = ctx.critical_vertices[j]
    c = ctx.critical_values[j]

    # only triangles whose f extent contains c meet the singular level
    tables = level_tables(s)
    near = np.flatnonzero((tables.fmin <= c) & (tables.fmax >= c)).tolist()
    at_level = set(np.flatnonzero(s.f == c).tolist())
    level_keys: set[EdgeKey] = set()
    chords = []
    for tri in near:
        verts = s.triangles[tri].tolist()
        # where the level meets the sides, in side order: its vertices on the
        # level and its crossings strictly inside a side
        points = []
        for u, v in zip(verts, verts[1:] + verts[:1]):
            if u in at_level:
                points.append((("v", u), {u: 1.0}))
                if v in at_level:
                    level_keys.add(edge_key(u, v))
            elif v not in at_level and (s.f[u] - c) * (s.f[v] - c) < 0:
                key = edge_key(u, v)
                points.append((("x", key), _bary_of_crossing(s, key, c)))
        points.sort(key=lambda point: point[0][0])  # a vertex before a crossing
        if len(points) == 2 and points[1][0][0] == "x":
            (a, lam_p), (b, lam_q) = points
            chords.append((a, b, _chord_coeffs(s, tri, lam_p, lam_q)))
    edges: list[tuple[Node, Node, dict[int, float]]] = [
        (("v", u), ("v", v), {int(s.edge_number(u, v)): 1.0}) for u, v in sorted(level_keys)
    ]
    edges.extend(chords)
    return ("v", w), edges


def _singular_tree(s: PLSurface, ctx: ExtractionContext, vid: int) -> SingularTree:
    root, edges = _level_graph(s, ctx, vid)
    # the component containing the critical vertex
    parts = DSU()
    for x, y, _ in edges:
        parts.union(x, y)
    top = parts.find(root)
    component_edges = [edge for edge in edges if parts.find(edge[0]) == top]
    nodes = {root} | {node for x, y, _ in component_edges for node in (x, y)}
    if len(component_edges) != len(nodes) - 1:
        raise InvalidGraph(f"singular level at vertex {vid} is not simply connected")
    return SingularTree(vid, component_edges)


def lift_dashed_graph(s: PLSurface, g: MeasuredReebGraph) -> LiftedGraph:
    """Boundary lift of the dashed subgraph: one oriented boundary arc per
    dashed edge plus the singular level trees of non-boundary dashed vertices."""
    ctx = ensure_context(s, g)
    edges = {e.id: _lift_edge(s, ctx, e) for e in g.dashed_edges()}
    trees = {}
    for v in g.vertices:
        if v.vtype in ("II", "IV"):
            trees[v.id] = _singular_tree(s, ctx, v.id)
    return LiftedGraph(edges, trees)


# -- cycle basis and xi -------------------------------------------------------------


def dashed_cycle_basis(g: MeasuredReebGraph) -> list[tuple[int, ...]]:
    """Canonical cycle basis of the dashed subgraph.

    Spanning forest built over edges in id order; each non-tree edge yields
    one cycle: the edge followed by the tree path back from head to tail,
    encoded as signed edge ids.
    """
    dashed = sorted(g.dashed_edges(), key=lambda e: e.id)
    return [
        tuple([dashed[i].id] + [sign * dashed[j].id for j, sign in steps])
        for i, steps in linalg.fundamental_cycles([(e.tail, e.head) for e in dashed])
    ]


def cycle_edge_vector(cycle: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for signed in cycle:
        out[abs(signed)] = out.get(abs(signed), 0) + (1 if signed > 0 else -1)
    return out


def _lifted_cycle_coeffs(
    s: PLSurface, g: MeasuredReebGraph, lifted: LiftedGraph, cycle: tuple[int, ...]
) -> dict[int, float]:
    """Functional, by edge number, integrating a form along the lifted
    representative of a dashed cycle."""
    out: dict[int, float] = {}
    n = len(cycle)
    for i, signed in enumerate(cycle):
        eid = abs(signed)
        arc = lifted.edges[eid]
        _accumulate(out, arc.coeffs(s), 1.0 if signed > 0 else -1.0)
        # connector at the junction with the next arc
        nxt_signed = cycle[(i + 1) % n]
        e_cur = g.edge(eid)
        e_nxt = g.edge(abs(nxt_signed))
        junction = e_cur.head if signed > 0 else e_cur.tail
        expected = e_nxt.tail if nxt_signed > 0 else e_nxt.head
        if junction != expected:
            raise InvalidGraph("cycle walk is not consistently joined")
        arrive = arc.end_node if signed > 0 else arc.start_node
        nxt_arc = lifted.edges[abs(nxt_signed)]
        depart = nxt_arc.start_node if nxt_signed > 0 else nxt_arc.end_node
        vtype = g.vertex(junction).vtype
        if vtype in ("II", "IV"):
            _accumulate(out, lifted.trees[junction].path_coeffs(arrive, depart))
        else:
            if arrive != depart:
                raise InvalidGraph(
                    f"lifted arcs disagree at vertex {junction} of type {vtype}"
                )
    return out


def xi_class(s: PLSurface, a: DiscreteOneForm, g: MeasuredReebGraph) -> XiClass:
    """Integrals of the form over the lifted canonical dashed cycle basis."""
    basis = dashed_cycle_basis(g)
    if not basis:
        return XiClass([], np.zeros(0))
    lifted = lift_dashed_graph(s, g)
    coords = [
        _evaluate(a, _lifted_cycle_coeffs(s, g, lifted, cycle)) for cycle in basis
    ]
    return XiClass(basis, np.array(coords))


# -- canonical extraction of augmented data ------------------------------------------


def edge_probe_value(ctx: ExtractionContext, eid: int) -> float:
    return ctx.probe_component(eid)[0]


def _probe_circle(ctx: ExtractionContext, e: ReebEdge) -> tuple[float, LevelComponent]:
    """Probe level of a solid edge and its level circle there."""
    probe, comp = ctx.probe_component(e.id)
    if not comp.is_circle:
        raise InvalidGraph(f"edge {e.id} level is not a circle")
    return probe, comp


def augment(s: PLSurface, a: DiscreteOneForm, g: MeasuredReebGraph) -> AugmentedCirculationGraph:
    """Augmented circulation graph of a form over the extracted field graph.

    Circulation limits are read at one canonical probe level per solid edge
    and transported to the endpoints with the profile moment, so synthesis
    followed by this extraction is exact up to solver tolerance.
    """
    ctx = ensure_context(s, g)
    limits = {}
    for e in g.solid_edges():
        probe, comp = _probe_circle(ctx, e)
        val = _evaluate(a, polyline_coeffs(s, comp))
        tail = val - e.profile.partial_moment(e.profile.f_lo, probe)
        head = tail + edge_moment(g, e)
        limits[e.id] = (tail, head)
    return AugmentedCirculationGraph(g, CirculationFunction(limits), xi_class(s, a, g))


# -- synthesis -------------------------------------------------------------------------


def synthesize_form(
    s: PLSurface,
    g: MeasuredReebGraph,
    target_c: CirculationFunction,
    target_xi: XiClass,
) -> DiscreteOneForm:
    """One-form whose vorticity tracks the field and whose circulation and
    dashed-cycle data reproduce the targets.

    The probe-circle and lifted-cycle integrals are exact constraints and
    the per-triangle curl is fitted to the field in least squares: the curl
    targets and the profile-quadrature moments differ at discretization
    order, so the constraints get priority and the vorticity absorbs the
    residual.  ``dual_tree_solve`` finds the form on the dual spanning tree,
    in the gauge where it vanishes off the tree except on the generator
    edges, which carry the generator weights; it is not the minimum-norm
    form.
    """
    _finite_moments(g)
    ctx = ensure_context(s, g)
    lo, hi = g.f_range()
    scale = max(1.0, g.total_mass * max(1.0, hi - lo))

    chk = check_circulation(g, target_c, tol=1e-6 * scale)
    if not chk.ok:
        raise InfeasibleTarget(
            f"target circulation violates its constraints (residual {chk.max_residual:g})"
        )
    basis = dashed_cycle_basis(g)
    if list(target_xi.basis) != basis:
        raise InfeasibleTarget("target cycle data is not in the canonical basis")
    if not g.dashed_edges():
        tm = total_moment(g)
        if abs(tm) > 1e-9 * scale:
            raise InfeasibleTarget(f"closed graph with nonzero total moment {tm:g}")

    # curl targets; on closed surfaces spread the quadrature defect uniformly
    tri_f = s.f[s.triangles]
    m = s.areas * ((tri_f[:, 0] + tri_f[:, 1] + tri_f[:, 2]) / 3.0)
    if not s.boundary_polygons:
        m = m - math.fsum(m.tolist()) * s.areas / s.total_area

    # hard constraint rows: one probe circulation per solid edge, one integral
    # per dashed basis cycle
    con_rows: list[dict[int, float]] = []
    con_rhs: list[float] = []
    probe_moments: list[float] = []  # profile moment below each probe level
    solids = g.solid_edges()
    for e in solids:
        probe, comp = _probe_circle(ctx, e)
        con_rows.append(polyline_coeffs(s, comp))
        probe_moments.append(e.profile.partial_moment(e.profile.f_lo, probe))
        con_rhs.append(target_c.limits[e.id][0] + probe_moments[-1])
    if basis:
        lifted = lift_dashed_graph(s, g)
        for cycle, coord in zip(basis, target_xi.coords):
            con_rows.append(_lifted_cycle_coeffs(s, g, lifted, cycle))
            con_rhs.append(float(coord))

    form = DiscreteOneForm(s, dual_tree_solve(s, m, con_rows, con_rhs))

    # verify the prioritized constraints were met, reading each tail limit
    # back from its row as augment() would
    got = [_evaluate(form, row) for row in con_rows]
    for e, value, moment in zip(solids, got, probe_moments):
        want = target_c.limits[e.id][0]
        tail = value - moment
        if abs(want - tail) > 1e-7 * scale:
            raise InfeasibleTarget(
                f"circulation target on edge {e.id} not met "
                f"({want:g} vs {tail:g}); system is inconsistent"
            )
    if basis:
        coords = np.array(got[len(solids) :])
        if np.max(np.abs(coords - target_xi.coords)) > 1e-7 * scale:
            raise InfeasibleTarget("cycle coordinate targets not met")
    return form
