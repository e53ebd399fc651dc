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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import linalg
from .errors import InfeasibleTarget, InvalidGraph, LevelOnVertex
from .extraction import ExtractionContext, ensure_context
from .levels import LevelComponent, crossing_param, level_tables, trace_level
from .reebgraph import MeasuredReebGraph, ReebEdge
from .surface import EdgeKey, PLSurface, edge_key

# -- data types --------------------------------------------------------------------


@dataclass
class DiscreteOneForm:
    """Cochain on mesh edges; value is the integral from the lower to the
    higher internal vertex index."""

    surface: PLSurface
    values: dict[EdgeKey, float]

    def __post_init__(self) -> None:
        missing = set(self.surface.edge_tris) - set(self.values)
        for k in sorted(missing):
            self.values[k] = 0.0

    def directed(self, u: int, v: int) -> float:
        k = edge_key(u, v)
        return self.values[k] if k == (u, v) else -self.values[k]

    def scaled(self, factor: float) -> "DiscreteOneForm":
        return DiscreteOneForm(self.surface, {k: factor * x for k, x in self.values.items()})

    def plus(self, other: "DiscreteOneForm") -> "DiscreteOneForm":
        return DiscreteOneForm(
            self.surface, {k: x + other.values[k] for k, x in self.values.items()}
        )


def exact_form(s: PLSurface, potential: np.ndarray) -> DiscreteOneForm:
    """Coboundary of a vertex potential; vanishes on every closed loop."""
    values = {
        (u, v): float(potential[v] - potential[u]) for (u, v) in s.edge_tris
    }
    return DiscreteOneForm(s, values)


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
    e = g.edge(edge) if isinstance(edge, int) else edge
    return e.profile.partial_moment(e.profile.f_lo, e.profile.f_hi)


def total_moment(g: MeasuredReebGraph) -> float:
    return float(math.fsum(edge_moment(g, e) for e in g.edges))


def _solid_only_vertices(g: MeasuredReebGraph) -> list[int]:
    return [v.id for v in g.vertices if all(not e.dashed for e in g.edges_at(v.id))]


def check_circulation(
    g: MeasuredReebGraph, c: CirculationFunction, tol: Optional[float] = None
) -> CirculationCheck:
    """Newton-Leibniz and Kirchhoff residuals of circulation data."""
    solids = g.solid_edges()
    if sorted(c.limits) != sorted(e.id for e in solids):
        raise InvalidGraph("circulation data must cover exactly the solid edges")
    if tol is None:
        lo, hi = g.f_range()
        tol = 1e-9 * max(1.0, g.total_mass * (hi - lo))
    nl = {}
    for e in solids:
        t, h = c.limits[e.id]
        nl[e.id] = (h - t) - edge_moment(g, e)
    kirchhoff = {}
    for vid in _solid_only_vertices(g):
        inc = math.fsum(c.limits[e.id][1] for e in g.edges_at(vid) if e.head == vid)
        out = math.fsum(c.limits[e.id][0] for e in g.edges_at(vid) if e.tail == vid)
        kirchhoff[vid] = inc - out
    residuals = list(nl.values()) + list(kirchhoff.values())
    max_res = max((abs(r) for r in residuals), default=0.0)
    return CirculationCheck(max_res <= tol, nl, kirchhoff, max_res)


def solve_circulations(g: MeasuredReebGraph) -> CirculationSolveResult:
    """All circulation functions of (f, mu): a particular solution plus a
    basis of the homogeneous space.

    One unknown per solid edge (the tail limit; the head limit follows from
    the moment).  Vertices incident to a dashed edge impose no constraint;
    on an all-solid graph a solution exists exactly when the total moment
    vanishes.
    """
    solids = sorted(g.solid_edges(), key=lambda e: e.id)
    col = {e.id: i for i, e in enumerate(solids)}
    moments = {e.id: edge_moment(g, e) for e in solids}

    has_dashed = bool(g.dashed_edges())
    if not has_dashed:
        lo, hi = g.f_range()
        tol = 1e-9 * max(1.0, g.total_mass) * max(1.0, hi - lo)
        tm = float(math.fsum(moments.values()))
        if abs(tm) > tol:
            return CirculationSolveResult(False, None, [], violated_moment=tm)

    if not solids:
        return CirculationSolveResult(True, CirculationFunction({}), [])

    rows: list[list[int]] = []
    rhs: list[float] = []
    for vid in _solid_only_vertices(g):
        row = [0] * len(solids)
        b = 0.0
        for e in g.edges_at(vid):
            if e.head == vid:
                row[col[e.id]] += 1
                b -= moments[e.id]
            else:
                row[col[e.id]] -= 1
        rows.append(row)
        rhs.append(b)

    if rows:
        null = linalg.nullspace(rows, len(solids))
        A = np.array(rows, dtype=float)
        x, *_ = np.linalg.lstsq(A, np.array(rhs), rcond=None)
        residual = float(np.max(np.abs(A @ x - np.array(rhs)))) if len(rhs) else 0.0
        lo, hi = g.f_range()
        scale = max(1.0, g.total_mass * max(1.0, hi - lo))
        if residual > 1e-8 * scale:
            return CirculationSolveResult(
                False, None, [], violated_moment=float(math.fsum(moments.values()))
            )
    else:
        null = [
            [Fraction(int(i == j)) for i in range(len(solids))] for j in range(len(solids))
        ]
        x = np.zeros(len(solids))

    particular = CirculationFunction(
        {e.id: (float(x[col[e.id]]), float(x[col[e.id]] + moments[e.id])) for e in solids}
    )
    basis = []
    for vec in null:
        delta = {e.id: (float(vec[col[e.id]]), float(vec[col[e.id]])) for e in solids}
        basis.append(CirculationFunction(delta))
    return CirculationSolveResult(True, particular, basis)


# -- mesh-side operations --------------------------------------------------------------


def vorticity(s: PLSurface, a: DiscreteOneForm) -> np.ndarray:
    """Per-triangle curl: boundary circulation divided by the area weight."""
    out = np.empty(len(s.triangles))
    for t, (i, j, k) in enumerate(s.triangles):
        circ = a.directed(int(i), int(j)) + a.directed(int(j), int(k)) + a.directed(int(k), int(i))
        out[t] = circ / float(s.areas[t])
    return out


def _bary_of_crossing(s: PLSurface, tri: int, key: EdgeKey, t: float) -> dict[int, float]:
    u, v = key
    p = crossing_param(s, key, t)
    return {u: 1.0 - p, v: p}


def _chord_coeffs(
    s: PLSurface, tri: int, lam_p: dict[int, float], lam_q: dict[int, float]
) -> dict[EdgeKey, float]:
    """Coefficients of the interpolated line integral along a straight chord.

    For triangle side (i, j) the interpolant contributes
    lam_i(P) lam_j(Q) - lam_j(P) lam_i(Q) times the side's cochain value.
    """
    a, b, c = (int(x) for x in s.triangles[tri])
    coeffs: dict[EdgeKey, float] = {}
    for (i, j) in ((a, b), (b, c), (c, a)):
        w = lam_p.get(i, 0.0) * lam_q.get(j, 0.0) - lam_p.get(j, 0.0) * lam_q.get(i, 0.0)
        if w == 0.0:
            continue
        k = edge_key(i, j)
        sign = 1.0 if k == (i, j) else -1.0
        coeffs[k] = coeffs.get(k, 0.0) + sign * w
    return coeffs


def _accumulate(total: dict[EdgeKey, float], part: dict[EdgeKey, float], factor: float = 1.0) -> None:
    for k, w in part.items():
        total[k] = total.get(k, 0.0) + factor * w


def polyline_coeffs(s: PLSurface, comp: LevelComponent) -> dict[EdgeKey, float]:
    """Linear functional computing the integral along a traced level polyline."""
    out: dict[EdgeKey, float] = {}
    for ch in comp.chords:
        lam_p = _bary_of_crossing(s, ch.tri, ch.entry, comp.t)
        lam_q = _bary_of_crossing(s, ch.tri, ch.exit, comp.t)
        _accumulate(out, _chord_coeffs(s, ch.tri, lam_p, lam_q))
    return out


def _evaluate(a: DiscreteOneForm, coeffs: dict[EdgeKey, float]) -> float:
    return float(math.fsum(w * a.values[k] for k, w in sorted(coeffs.items())))


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
    if any(fv == value for fv in s.f):
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

    def coeffs(self, s: PLSurface) -> dict[EdgeKey, float]:
        out: dict[EdgeKey, float] = {}
        for (u, v), s0, s1 in self.pieces:
            k = edge_key(u, v)
            sign = 1.0 if k == (u, v) else -1.0
            out[k] = out.get(k, 0.0) + sign * (s1 - s0)
        return out


@dataclass
class SingularTree:
    vertex_id: int
    nodes: list[Node]
    # adjacency with the functional of each tree edge, keyed by (node, node)
    edges: list[tuple[Node, Node, dict[EdgeKey, float]]]

    def path_coeffs(self, a: Node, b: Node) -> dict[EdgeKey, float]:
        if a == b:
            return {}
        adj: dict[Node, list[tuple[Node, dict[EdgeKey, float], float]]] = {}
        for x, y, co in self.edges:
            adj.setdefault(x, []).append((y, co, 1.0))
            adj.setdefault(y, []).append((x, co, -1.0))
        prev: dict[Node, tuple[Node, dict[EdgeKey, float], float]] = {}
        stack = [a]
        seen = {a}
        while stack:
            cur = stack.pop()
            if cur == b:
                break
            for nxt, co, sign in adj.get(cur, []):
                if nxt not in seen:
                    seen.add(nxt)
                    prev[nxt] = (cur, co, sign)
                    stack.append(nxt)
        if b not in seen:
            raise InvalidGraph(f"singular level of vertex {self.vertex_id} is not connected")
        out: dict[EdgeKey, float] = {}
        cur = b
        while cur != a:
            last, co, sign = prev[cur]
            _accumulate(out, co, sign)
            cur = last
        return out


@dataclass
class LiftedGraph:
    edges: dict[int, LiftedEdge]
    trees: dict[int, SingularTree]


def _walk_boundary(
    s: PLSurface,
    start_key: EdgeKey,
    level: float,
    lo: float,
    hi: float,
) -> LiftedEdge:
    """Follow the boundary through the start crossing across [lo, hi].

    The walk ascends in field value along the boundary orientation; pieces
    are clipped exactly at the crossings of lo and hi (or stop at a boundary
    vertex whose value equals an endpoint)."""
    p, i0, _ = level_tables(s).boundary_positions[start_key]
    chain = s.boundary_polygons[p]
    n = len(chain)

    def dir_param(key: EdgeKey, direction: tuple[int, int], value: float) -> float:
        t = crossing_param(s, key, value)
        return t if direction == key else 1.0 - t

    pieces: list[tuple[tuple[int, int], float, float]] = []

    # ascend forward from the start crossing
    start_dir = chain[i0]
    t0 = dir_param(start_key, start_dir, level)
    if s.f[start_dir[1]] < level:
        raise InvalidGraph("boundary walk does not ascend along the orientation")

    def clip_node(direction: tuple[int, int], target: float) -> tuple[Node, float]:
        du, dv = direction
        if s.f[dv] == target:
            return ("v", dv), 1.0
        key = edge_key(du, dv)
        t = dir_param(key, direction, target)
        return ("x", key), t

    # forward to hi
    idx = i0
    s_from = t0
    end_node: Optional[Node] = None
    for _ in range(2 * n + 2):
        direction = chain[idx % n]
        fv = s.f[direction[1]]
        if fv >= hi:
            node, s_to = clip_node(direction, hi)
            pieces.append((direction, s_from, s_to))
            end_node = node
            break
        pieces.append((direction, s_from, 1.0))
        idx += 1
        s_from = 0.0
    if end_node is None:
        raise InvalidGraph("boundary walk failed to reach the upper level")

    # backward to lo: walk against the orientation, then flip the pieces
    back: list[tuple[tuple[int, int], float, float]] = []
    idx = i0
    s_to = t0
    start_node: Optional[Node] = None
    for _ in range(2 * n + 2):
        direction = chain[idx % n]
        du, dv = direction
        fu = s.f[du]
        if fu <= lo:
            if fu == lo:
                node: Node = ("v", du)
                s_from = 0.0
            else:
                key = edge_key(du, dv)
                s_from = dir_param(key, direction, lo)
                node = ("x", key)
            back.append((direction, s_from, s_to))
            start_node = node
            break
        back.append((direction, 0.0, s_to))
        idx -= 1
        s_to = 1.0
    if start_node is None:
        raise InvalidGraph("boundary walk failed to reach the lower level")
    back.reverse()
    # the backward stub and the first forward piece abut at the probe level
    pieces = back + pieces
    return LiftedEdge(-1, pieces, start_node, end_node)


def _lift_edge(s: PLSurface, ctx: ExtractionContext, e: ReebEdge) -> LiftedEdge:
    probe, comp = ctx.probe_component(e.id)
    lifted = _walk_boundary(s, comp.start_key, probe, e.profile.f_lo, e.profile.f_hi)
    return LiftedEdge(e.id, lifted.pieces, lifted.start_node, lifted.end_node)


def _singular_tree(s: PLSurface, ctx: ExtractionContext, vid: int) -> SingularTree:
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
        verts = [int(x) for x in s.triangles[tri]]
        on = [x for x in verts if x in at_level]
        level_keys.update(
            edge_key(verts[i], verts[(i + 1) % 3])
            for i in range(3)
            if verts[i] in at_level and verts[(i + 1) % 3] in at_level
        )
        if len(on) == 1:
            others = [x for x in verts if x not in at_level]
            key = edge_key(others[0], others[1])
            if (s.f[others[0]] - c) * (s.f[others[1]] - c) < 0:
                lam_p = {on[0]: 1.0}
                lam_q = _bary_of_crossing(s, tri, key, c)
                chords.append(
                    (("v", on[0]), ("x", key), _chord_coeffs(s, tri, lam_p, lam_q))
                )
        elif len(on) == 0:
            crossed = [
                edge_key(verts[i], verts[(i + 1) % 3])
                for i in range(3)
                if (s.f[verts[i]] - c) * (s.f[verts[(i + 1) % 3]] - c) < 0
            ]
            if len(crossed) == 2:
                lam_p = _bary_of_crossing(s, tri, crossed[0], c)
                lam_q = _bary_of_crossing(s, tri, crossed[1], c)
                chords.append(
                    (("x", crossed[0]), ("x", crossed[1]), _chord_coeffs(s, tri, lam_p, lam_q))
                )
    edges: list[tuple[Node, Node, dict[EdgeKey, float]]] = [
        (("v", u), ("v", v), {(u, v): 1.0}) for u, v in sorted(level_keys)
    ]
    edges.extend(chords)

    # component containing the critical vertex
    adj: dict[Node, list[int]] = {}
    for idx, (x, y, _) in enumerate(edges):
        adj.setdefault(x, []).append(idx)
        adj.setdefault(y, []).append(idx)
    root: Node = ("v", w)
    seen_nodes = {root}
    seen_edges: set[int] = set()
    stack = [root]
    while stack:
        cur = stack.pop()
        for idx in adj.get(cur, []):
            if idx in seen_edges:
                continue
            seen_edges.add(idx)
            x, y, _ = edges[idx]
            for nxt in (x, y):
                if nxt not in seen_nodes:
                    seen_nodes.add(nxt)
                    stack.append(nxt)
    component_edges = [edges[idx] for idx in sorted(seen_edges)]
    if len(component_edges) != len(seen_nodes) - 1:
        raise InvalidGraph(
            f"singular level at vertex {vid} is not simply connected"
        )
    return SingularTree(vid, sorted(seen_nodes, key=repr), component_edges)


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
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree_adj: dict[int, list[tuple[int, int, int]]] = {}
    non_tree = []
    for e in dashed:
        ru, rv = find(e.tail), find(e.head)
        if ru == rv:
            non_tree.append(e)
        else:
            parent[max(ru, rv)] = min(ru, rv)
            tree_adj.setdefault(e.tail, []).append((e.head, e.id, 1))
            tree_adj.setdefault(e.head, []).append((e.tail, e.id, -1))
    basis = []
    for e in non_tree:
        # BFS path head -> tail in the forest
        prev: dict[int, tuple[int, int, int]] = {}
        queue = [e.head]
        seen = {e.head}
        while queue:
            cur = queue.pop(0)
            if cur == e.tail:
                break
            for nxt, eid, sign in sorted(tree_adj.get(cur, [])):
                if nxt not in seen:
                    seen.add(nxt)
                    prev[nxt] = (cur, eid, sign)
                    queue.append(nxt)
        if e.tail not in seen:
            raise InvalidGraph("dashed cycle basis: forest path missing")
        path = []
        cur = e.tail
        while cur != e.head:
            last, eid, sign = prev[cur]
            path.append(sign * eid)  # signed for the step `last` -> `cur`
            cur = last
        # the closed walk is +e (tail -> head), then the forest steps from
        # head back to tail; path was collected tail-first, so reverse it
        walk = [e.id] + path[::-1]
        basis.append(tuple(walk))
    return basis


def cycle_edge_vector(cycle: tuple[int, ...]) -> dict[int, int]:
    out: dict[int, int] = {}
    for signed in cycle:
        out[abs(signed)] = out.get(abs(signed), 0) + (1 if signed > 0 else -1)
    return out


def _lifted_cycle_coeffs(
    s: PLSurface, g: MeasuredReebGraph, lifted: LiftedGraph, cycle: tuple[int, ...]
) -> dict[EdgeKey, float]:
    """Functional integrating a form along the lifted representative of a
    dashed cycle."""
    out: dict[EdgeKey, float] = {}
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


def augment(s: PLSurface, a: DiscreteOneForm, g: Optional[MeasuredReebGraph] = None) -> AugmentedCirculationGraph:
    """Augmented circulation graph of a form over the extracted field graph.

    Circulation limits are read at one canonical probe level per solid edge
    and transported to the endpoints with the profile moment, so synthesis
    followed by this extraction is exact up to solver tolerance.
    """
    if g is None:
        from .extraction import extract_reeb

        g = extract_reeb(s)
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

    A single minimal-norm least-squares solve combines per-triangle curl
    constraints with strongly weighted circulation and cycle constraints;
    the curl targets and the profile-quadrature moments differ at
    discretization order, so the probe constraints get priority and the
    vorticity absorbs the residual.
    """
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

    keys = sorted(s.edge_tris)
    col = {k: i for i, k in enumerate(keys)}

    # curl rows; on closed surfaces spread the quadrature defect uniformly
    tri_targets = []
    for t, (i, j, k) in enumerate(s.triangles):
        fbar = (s.f[int(i)] + s.f[int(j)] + s.f[int(k)]) / 3.0
        tri_targets.append(float(s.areas[t]) * fbar)
    if not s.boundary_edge_keys:
        defect = math.fsum(tri_targets)
        tri_targets = [
            m - defect * float(s.areas[t]) / s.total_area for t, m in enumerate(tri_targets)
        ]
    di, dj, dx = [], [], []
    for t, (i, j, k) in enumerate(s.triangles):
        for (u, v) in ((int(i), int(j)), (int(j), int(k)), (int(k), int(i))):
            kk = edge_key(u, v)
            di.append(t)
            dj.append(col[kk])
            dx.append(1.0 if kk == (u, v) else -1.0)
    D = scipy.sparse.csr_matrix((dx, (di, dj)), shape=(len(s.triangles), len(keys)))
    m = np.array(tri_targets)

    # hard constraint rows: one probe circulation per solid edge, one integral
    # per dashed basis cycle
    con_rows: list[dict[EdgeKey, float]] = []
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

    ci, cj, cx = [], [], []
    for r, coeffs in enumerate(con_rows):
        for k, w in sorted(coeffs.items()):
            ci.append(r)
            cj.append(col[k])
            cx.append(w)
    nc = len(con_rows)
    C = scipy.sparse.csr_matrix((cx, (ci, cj)), shape=(nc, len(keys)))
    d = np.array(con_rhs)

    # KKT system: least-squares curl with tiny ridge, constraints exact
    ne = len(keys)
    ridge = 1e-10 * max(1.0, float(np.max(np.abs(m))) if len(m) else 1.0)
    top = scipy.sparse.hstack([D.T @ D + ridge * scipy.sparse.identity(ne), C.T])
    bottom = scipy.sparse.hstack(
        [C, scipy.sparse.csr_matrix((nc, nc))]
    ) if nc else None
    if nc:
        kkt = scipy.sparse.vstack([top, bottom]).tocsc()
        rhs_full = np.concatenate([D.T @ m, d])
    else:
        kkt = top.tocsc()
        rhs_full = D.T @ m
    x_full = scipy.sparse.linalg.spsolve(kkt, rhs_full)
    x = x_full[:ne]
    form = DiscreteOneForm(s, {k: float(x[col[k]]) for k in keys})

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
