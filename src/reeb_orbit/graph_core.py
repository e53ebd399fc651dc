"""Pure combinatorics on measured Reeb graphs.

Boundary cycles follow the successor rule along dashed edges: at a vertex
with a recorded cyclic order the walk leaves along the cyclic successor of
the arriving edge, at a single dashed edge it bounces, at exactly two dashed
edges it crosses.  The walk states (edge, travel direction) split into
disjoint orbits, one per boundary component of any realizing surface.

The genus is read off the graph by a handle count.  Sweeping the field
upwards, the sublevel set changes only at the critical levels, and each
vertex changes its Euler characteristic by the handle it attaches (Milnor,
*Morse Theory*, 1963; for boundary critical points Braess, Math. Ann. 1974):

    =======  =============  ==========  ===================================
    type     as-in-table    f-reversed  handle
    =======  =============  ==========  ===================================
    VII      +1             +1          a disk is born (minimum) or caps a
                                        circle (maximum)
    IV       -1             -1          interior saddle: a band
    V        -1             -1          interior saddle: a band
    VI       -1             -1          interior saddle: a band
    I        +1              0          boundary extremum: a half-disk is
                                        born; reversed, it is glued along
                                        one arc
    II       -1              0          boundary saddle: a half-disk glued
                                        along two arcs; reversed, one arc
    III      -1              0          boundary saddle, as for II
    =======  =============  ==========  ===================================

A boundary critical point changes the homotopy type of the sublevel set only
where the gradient points into the surface (the ``as-in-table`` column).
Otherwise a half-disk is glued along one arc of its boundary, which adds
1 - 1 = 0.  The sum is chi, and a connected orientable surface with sigma
boundary components has genus (2 - chi - sigma) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidGraph, NonIntegerFormulaValue
from .levels import DSU
from .reebgraph import AS_IN_TABLE, MeasuredReebGraph
from .surface import TopologySummary, orientable_genus


@dataclass(frozen=True)
class BoundaryCycle:
    """Closed dashed walk: edges[i] joins vertices[i] to vertices[i+1]."""

    edges: tuple[int, ...]
    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


def _successor(g: MeasuredReebGraph, eid: int, at_vertex: int) -> int:
    """Edge the boundary walk leaves along after arriving at a vertex."""
    order = g.cyclic_orders.get(at_vertex)
    if order is not None:
        return order[(order.index(eid) + 1) % len(order)]
    dashed = [e.id for e in g.dashed_edges_at(at_vertex)]
    if len(dashed) == 1:
        return eid
    if len(dashed) == 2:
        return dashed[0] if dashed[1] == eid else dashed[1]
    raise AssertionError("vertex with >=3 dashed edges lacks a cyclic order")


def _orbit(g: MeasuredReebGraph, state: tuple[int, int]) -> list[tuple[int, int]]:
    """Orbit of (edge id, vertex the edge is travelled towards)."""
    states = [state]
    cur = state
    while True:
        eid, v = cur
        nxt_e = _successor(g, eid, v)
        nxt_v = g.other_end(g.edge(nxt_e), v)
        cur = (nxt_e, nxt_v)
        if cur == state:
            return states
        states.append(cur)


def _canonical_cycle(pairs: list[tuple[int, int]]) -> BoundaryCycle:
    """Lexicographically smallest rotation, anchored at (vertex, edge) pairs."""
    n = len(pairs)
    # pairs[i] = (e_i, v_{i+1}); source vertex of e_i is v_i = pairs[i-1][1]
    seq = [(pairs[i - 1][1], pairs[i][0]) for i in range(n)]
    best = min(range(n), key=lambda k: [seq[(k + i) % n] for i in range(n)])
    edges = tuple(pairs[(best + i) % n][0] for i in range(n))
    vertices = tuple(pairs[(best + i - 1) % n][1] for i in range(n))
    return BoundaryCycle(edges, vertices)


def boundary_cycles(g: MeasuredReebGraph) -> list[BoundaryCycle]:
    """One representative per equivalence class of boundary cycles.

    Orbits are deduplicated by rotation always; a reversed orbit is identified
    with its mirror exactly when every vertex on the cycle is of type III or
    IV, matching the stated equivalence.
    """
    states = []
    for e in g.dashed_edges():
        states.append((e.id, e.head))
        states.append((e.id, e.tail))
    states.sort()
    seen: set[tuple[int, int]] = set()
    cycles: list[BoundaryCycle] = []
    for st in states:
        if st in seen:
            continue
        orbit = _orbit(g, st)
        seen.update(orbit)
        cycle = _canonical_cycle(orbit)
        if all(g.vertex(v).vtype in ("III", "IV") for v in cycle.vertices):
            # reversal applies: canonical representative is the smaller of the
            # two directions, and the mirror class is not counted again
            reversed_pairs = [
                (cycle.edges[i], cycle.vertices[i]) for i in range(len(cycle))
            ][::-1]
            mirror = _canonical_cycle(reversed_pairs)
            if mirror in cycles or cycle in cycles:
                continue
            if (mirror.vertices, mirror.edges) < (cycle.vertices, cycle.edges):
                cycle = mirror
        cycles.append(cycle)
    return cycles


def sigma(g: MeasuredReebGraph) -> int:
    """Number of boundary cycle classes; the boundary component count."""
    return len(boundary_cycles(g))


@dataclass(frozen=True)
class HomologyDims:
    h1_gamma: int
    h1_dashed: int
    h1_rel: int
    h0_dashed: int
    h0_solid: int
    h0_intersection: int

    def to_dict(self) -> dict[str, int]:
        return {
            "h1_gamma": self.h1_gamma,
            "h1_dashed": self.h1_dashed,
            "h1_rel": self.h1_rel,
            "h0_dashed": self.h0_dashed,
            "h0_solid": self.h0_solid,
            "h0_intersection": self.h0_intersection,
        }

    @property
    def orbit_moduli_dimension(self) -> int:
        return self.h1_rel + self.h1_dashed


def _subgraph_dims(vertices: set[int], edges: list[tuple[int, int]]) -> tuple[int, int]:
    """(h0, h1) of a graph given as vertex set plus edge endpoint pairs."""
    if not vertices:
        return 0, 0
    dsu = DSU()
    for v in sorted(vertices):
        dsu.find(v)
    for a, b in edges:
        dsu.union(a, b)
    h0 = len({dsu.find(v) for v in vertices})
    h1 = len(edges) - len(vertices) + h0
    return h0, h1


def homology_dims(g: MeasuredReebGraph) -> HomologyDims:
    """Betti numbers of the graph, its styled subgraphs, and the pair.

    The relative dimension follows the long exact sequence of the pair:
    with a connected total graph and nonempty dashed part,
    h1_rel = h1_gamma - h1_dashed + h0_dashed - 1.
    """
    all_vs = {v.id for v in g.vertices}
    all_es = [(e.tail, e.head) for e in g.edges]
    _, h1_gamma = _subgraph_dims(all_vs, all_es)

    solid = g.solid_edges()
    dashed = g.dashed_edges()
    solid_vs = {e.tail for e in solid} | {e.head for e in solid}
    dashed_vs = {e.tail for e in dashed} | {e.head for e in dashed}
    h0_solid, _ = _subgraph_dims(solid_vs, [(e.tail, e.head) for e in solid])
    h0_dashed, h1_dashed = _subgraph_dims(dashed_vs, [(e.tail, e.head) for e in dashed])
    h0_inter = len(solid_vs & dashed_vs)

    if dashed:
        h1_rel = h1_gamma - h1_dashed + h0_dashed - 1
    else:
        h1_rel = h1_gamma
    return HomologyDims(h1_gamma, h1_dashed, h1_rel, h0_dashed, h0_solid, h0_inter)


# Euler characteristic each vertex type adds to the sublevel set, as
# (as-in-table, f-reversed); see the module docstring
_HANDLE_CHI = {
    "I": (1, 0),
    "II": (-1, 0),
    "III": (-1, 0),
    "IV": (-1, -1),
    "V": (-1, -1),
    "VI": (-1, -1),
    "VII": (1, 1),
}


def iv_order(g: MeasuredReebGraph, vid: int) -> list[int]:
    """Cyclic order at a IV vertex, rotated to start at the smallest in-edge.

    Realizable orders alternate incoming and outgoing dashed edges; a surface
    slab boundary meets bottom and top lids alternately, so non-alternating
    orders admit no realization.
    """
    order = list(g.cyclic_orders[vid])
    ins = sorted(e.id for e in g.dashed_edges_at(vid) if e.head == vid)
    k = order.index(ins[0])
    order = order[k:] + order[:k]
    flags = [g.edge(eid).head == vid for eid in order]
    if flags != [True, False, True, False]:
        raise InvalidGraph(
            f"vertex {vid}: cyclic order does not alternate below/above edges; "
            "no surface realizes it"
        )
    return order


def handle_genus(g: MeasuredReebGraph, b: int) -> int:
    """Genus of a validated graph with ``b = sigma(g)``, by the handle count.

    Checks every IV order first, in vertex id order, so that it rejects the
    graphs realization rejects, with the same message.
    """
    for v in sorted(g.vertices, key=lambda v: v.id):
        if v.vtype == "IV":
            iv_order(g, v.id)
    chi = sum(_HANDLE_CHI[v.vtype][v.orientation != AS_IN_TABLE] for v in g.vertices)
    return orientable_genus(chi, b)


def genus(g: MeasuredReebGraph, method: str = "realize") -> int:
    """Genus of the realizing surface.

    ``realize`` builds a surface and reads the genus off its topology, which
    is convention-free.  ``handles`` gives the same value from the graph
    alone: it rejects what realization rejects (an invalid graph, a
    non-alternating IV order), then sums the handle table of the module
    docstring to chi (see ``handle_genus``).  ``formula`` evaluates the closed formula with plain
    Euler characteristics and component counts; on several fixtures this
    yields non-integer or off-by-one values and is kept as a diagnostic only.
    """
    if method == "realize":
        from .realization import surface_of

        return surface_of(g).genus
    if method == "handles":
        g.validate()
        return handle_genus(g, sigma(g))
    if method == "formula":
        return _integer_formula_genus(genus_formula_value(g))
    raise ValueError(f"unknown genus method {method!r}")


def genus_formula_value(g: MeasuredReebGraph) -> float:
    """Raw value of the closed genus formula under the naive conventions."""
    return _formula_value(g, homology_dims(g), sigma(g))


def _formula_value(g: MeasuredReebGraph, dims: HomologyDims, sig: int) -> float:
    """The closed genus formula, given the graph's homology and sigma."""
    solid = g.solid_edges()
    chi_s = len({e.tail for e in solid} | {e.head for e in solid}) - len(solid)
    chi_d = dims.h0_dashed - dims.h1_dashed
    return (
        -chi_s
        + (-chi_d + 5 * dims.h0_intersection - sig) / 2.0
        - dims.h0_solid
        - dims.h0_dashed
        + 3.0
    )


def _integer_formula_genus(value: float) -> int:
    if abs(value - round(value)) > 1e-9:
        raise NonIntegerFormulaValue(value)
    return int(round(value))


def invariants(g: MeasuredReebGraph) -> dict:
    """The ``invariants`` report of a validated graph: sigma, the handle
    genus, the closed formula (its value, or its error beside the raw
    value), homology and total mass, from one boundary-cycle walk and one
    homology count."""
    dims, b = homology_dims(g), sigma(g)
    value = _formula_value(g, dims, b)
    try:
        formula = {"value": _integer_formula_genus(value)}
    except NonIntegerFormulaValue as exc:
        formula = {"error": type(exc).__name__, "value": value}
    return {
        "sigma": b,
        "genus_realize": handle_genus(g, b),
        "genus_formula": formula,
        "homology": dims.to_dict(),
        "total_mass": g.total_mass,
        "orbit_moduli_dimension": dims.orbit_moduli_dimension,
    }


@dataclass(frozen=True)
class CompatibilityResult:
    compatible: bool
    failures: tuple[str, ...]


def compatibility(g: MeasuredReebGraph, t: TopologySummary) -> CompatibilityResult:
    """Whether the graph can live on a surface with the given topology.

    Checks genus, boundary component count (via boundary cycles), and total
    measure against total area, to a relative 1e-9.
    """
    failures = []
    g.validate()
    b = sigma(g)
    if handle_genus(g, b) != t.genus:
        failures.append("genus")
    if b != t.boundary_component_count:
        failures.append("boundary_components")
    if not math.isclose(g.total_mass, t.total_area, rel_tol=1e-9, abs_tol=0.0):
        failures.append("total_measure")
    return CompatibilityResult(not failures, tuple(failures))


def orbit_moduli_dimension(g: MeasuredReebGraph) -> int:
    """Dimension of the space of orbits sharing this measured graph."""
    return homology_dims(g).orbit_moduli_dimension
