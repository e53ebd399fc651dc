"""Isomorphism decision for measured Reeb graphs and augmented data.

Distinct critical values force the vertex bijection: sort both vertex sets
by field value and pair them off.  Everything else is verification: types,
styles, adjacency, cyclic orders (as recorded, rotation only), measures,
then circulation limits and cycle coordinates for augmented graphs.  The
report carries either the explicit bijections or the first obstruction in a
fixed kind order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .circulation import AugmentedCirculationGraph, cycle_edge_vector
from .errors import AmbiguousMatching, check_tolerances
from .reebgraph import MeasuredReebGraph

@dataclass(frozen=True)
class Obstruction:
    kind: str
    detail: str


@dataclass
class GraphIsomorphism:
    vertex_map: dict[int, int]
    edge_map: dict[int, int]
    obstruction: Optional[Obstruction] = None

    @property
    def ok(self) -> bool:
        return self.obstruction is None

    def to_dict(self) -> dict:
        if self.ok:
            return {
                "isomorphic": True,
                "vertex_map": {str(k): v for k, v in sorted(self.vertex_map.items())},
                "edge_map": {str(k): v for k, v in sorted(self.edge_map.items())},
            }
        return {
            "isomorphic": False,
            "obstruction": {"kind": self.obstruction.kind, "detail": self.obstruction.detail},
        }


def _fail(kind: str, detail: str) -> GraphIsomorphism:
    return GraphIsomorphism({}, {}, Obstruction(kind, detail))


def _forced_vertex_map(
    g1: MeasuredReebGraph, g2: MeasuredReebGraph, tol_f: float
) -> GraphIsomorphism | dict[int, int]:
    v1 = sorted(g1.vertices, key=lambda v: v.f)
    v2 = sorted(g2.vertices, key=lambda v: v.f)
    if len(v1) != len(v2):
        return _fail("F_VALUES", f"vertex counts differ: {len(v1)} vs {len(v2)}")
    for vs in (v1, v2):
        for a, b in zip(vs, vs[1:]):
            if abs(b.f - a.f) <= tol_f:
                raise AmbiguousMatching(
                    f"critical values {a.f!r} and {b.f!r} within matching tolerance"
                )
    for a, b in zip(v1, v2):
        if abs(a.f - b.f) > tol_f:
            return _fail("F_VALUES", f"no partner for f={a.f!r} (nearest {b.f!r})")
    return {a.id: b.id for a, b in zip(v1, v2)}


def _cyclically_equal(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    if len(a) != len(b):
        return False
    doubled = b + b
    return any(doubled[i : i + len(a)] == a for i in range(len(b)))


def _resampled_gap(e1, e2) -> float:
    """Max pointwise cumulative gap on the union of both normalized sample grids."""
    c1, c2 = e1.profile.cumulative, e2.profile.cumulative
    if len(c1) != len(c2):
        u1, u2 = np.linspace(0.0, 1.0, len(c1)), np.linspace(0.0, 1.0, len(c2))
        grid = np.union1d(u1, u2)
        c1, c2 = np.interp(grid, u1, c1), np.interp(grid, u2, c2)
    return float(abs(c1 - c2).max())


def match_measured(
    g1: MeasuredReebGraph,
    g2: MeasuredReebGraph,
    tol_f: Optional[float] = None,
    tol_mass: float = 1e-6,
) -> GraphIsomorphism:
    """Decide isomorphism of measured Reeb graphs.

    Returns the isomorphism or the first obstruction in the order F_VALUES,
    TYPES, ADJACENCY, STYLE, CYCLIC_ORDER, MEASURE.  Raises
    AmbiguousMatching when critical values collide within tolerance.
    """
    check_tolerances(tol_f=tol_f, tol_mass=tol_mass)
    if tol_f is None:
        los = [g.f_range() for g in (g1, g2)]
        rng = max(hi - lo for lo, hi in los)
        tol_f = 1e-9 * max(1.0, rng)
    vm = _forced_vertex_map(g1, g2, tol_f)
    if isinstance(vm, GraphIsomorphism):
        return vm

    for v in g1.vertices:
        w = g2.vertex(vm[v.id])
        if (v.vtype, v.orientation) != (w.vtype, w.orientation):
            return _fail(
                "TYPES",
                f"vertex {v.id} is {v.vtype}/{v.orientation}, partner {w.id} "
                f"is {w.vtype}/{w.orientation}",
            )

    bundles1: dict[tuple[int, int], list] = {}
    for e in g1.edges:
        bundles1.setdefault((e.tail, e.head), []).append(e)
    bundles2: dict[tuple[int, int], list] = {}
    for e in g2.edges:
        bundles2.setdefault((e.tail, e.head), []).append(e)
    if len(g1.edges) != len(g2.edges):
        return _fail("ADJACENCY", f"edge counts differ: {len(g1.edges)} vs {len(g2.edges)}")
    for pair, edges in bundles1.items():
        mapped = (vm[pair[0]], vm[pair[1]])
        if len(bundles2.get(mapped, [])) != len(edges):
            return _fail(
                "ADJACENCY",
                f"{len(edges)} edges {pair} vs {len(bundles2.get(mapped, []))} at {mapped}",
            )

    # Every vertex type has at most two in-edges and two out-edges, so a
    # bundle of parallel edges has at most two bijections onto its partner
    # bundle.  Style and measure are checked per edge, so each bundle's
    # bijections are filtered on their own.  One mapped edge fixes the
    # rotation of its cyclic order, so a bundle's bijection forces every
    # bundle linked to it through orders: taking, for each bundle not yet
    # mapped in key order, the first bijection whose forced extension closes
    # gives the first map in product order, without a search.
    keys = sorted(bundles1)
    order_key = lambda e: (e.style, e.mass, e.id)  # noqa: E731
    sorted1 = {k: sorted(bundles1[k], key=order_key) for k in keys}
    sorted2 = {k: sorted(bundles2[(vm[k[0]], vm[k[1]])], key=order_key) for k in keys}

    def style_obstruction(em: dict[int, int], edges) -> Optional[Obstruction]:
        for e in edges:
            e2 = g2.edge(em[e.id])
            if e.style != e2.style:
                return Obstruction("STYLE", f"edge {e.id} {e.style} vs {e2.id} {e2.style}")
        return None

    def order_obstruction(em: dict[int, int]) -> Optional[Obstruction]:
        for vid, order in g1.cyclic_orders.items():
            mapped = tuple(em[eid] for eid in order)
            other = g2.cyclic_orders.get(vm[vid])
            if other is None or not _cyclically_equal(mapped, other):
                return Obstruction(
                    "CYCLIC_ORDER",
                    f"vertex {vid}: order {order} maps to {mapped}, partner has {other}",
                )
        for vid in g2.cyclic_orders:
            if vid not in {vm[v] for v in g1.cyclic_orders}:
                return Obstruction("CYCLIC_ORDER", f"partner vertex {vid} has extra order")
        return None

    def measure_obstruction(em: dict[int, int], edges) -> Optional[Obstruction]:
        for e in edges:
            e2 = g2.edge(em[e.id])
            scale = max(abs(e.mass), abs(e2.mass))
            if abs(e.mass - e2.mass) > tol_mass * scale:
                return Obstruction(
                    "MEASURE", f"edge {e.id} mass {e.mass!r} vs {e2.mass!r}"
                )
            if _resampled_gap(e, e2) > tol_mass * scale:
                return Obstruction("MEASURE", f"edge {e.id} profile differs")
        return None

    def passing(k: tuple[int, int]):
        """Maps of bundle k that keep each of its edges' style and measure."""
        for perm in itertools.permutations(range(len(sorted1[k]))):
            bm = {e.id: sorted2[k][p].id for e, p in zip(sorted1[k], perm)}
            if not (style_obstruction(bm, sorted1[k]) or measure_obstruction(bm, sorted1[k])):
                yield bm

    bundle_of = {e.id: k for k in keys for e in sorted1[k]}

    def extend(k: tuple[int, int], part: dict[int, int]) -> Optional[dict[int, int]]:
        """Bundle k's map with every map it forces through orders; None on a clash."""
        todo, seen = [k], set()
        while todo:
            for vid in todo.pop():  # a bundle's key is its pair of end vertices
                order = g1.cyclic_orders.get(vid, ())
                if vid in seen or part.keys().isdisjoint(order):
                    continue
                seen.add(vid)
                free = sorted({bundle_of[eid] for eid in order if eid not in part})
                other = g2.cyclic_orders.get(vm[vid])
                for combo in itertools.product(*(passing(b) for b in free)):
                    trial = {eid: x for bm in combo for eid, x in bm.items()}
                    mapped = tuple(trial[eid] if eid in trial else part[eid] for eid in order)
                    if other is not None and _cyclically_equal(mapped, other):
                        break
                else:
                    return None
                part.update(trial)
                todo.extend(free)
        return part

    em: dict[int, int] = {}
    for k in keys:
        if sorted1[k][0].id not in em:
            part = next(filter(None, (extend(k, bm) for bm in passing(k))), None)
            if part is None:
                break
            em.update(part)
    else:
        if order_obstruction(em) is None:
            return GraphIsomorphism(vm, em)

    # no map passes: report what stops the identity candidate
    identity = {e.id: e2.id for k in keys for e, e2 in zip(sorted1[k], sorted2[k])}
    return GraphIsomorphism(
        {},
        {},
        style_obstruction(identity, g1.edges)
        or order_obstruction(identity)
        or measure_obstruction(identity, g1.edges),
    )


def match_augmented(
    a1: AugmentedCirculationGraph,
    a2: AugmentedCirculationGraph,
    tol_f: Optional[float] = None,
    tol_mass: float = 1e-6,
) -> GraphIsomorphism:
    """Decide isomorphism of augmented circulation graphs.

    Runs the measured comparison, then compares circulation limits edge-wise
    under the edge map, then transports the first graph's cycle basis through
    the map and evaluates the second graph's coordinates on it; limits and
    coordinates agree within 1e-6 * max(1, total mass * max(1, field range)).
    """
    iso = match_measured(a1.graph, a2.graph, tol_f=tol_f, tol_mass=tol_mass)
    if not iso.ok:
        return iso
    g1, g2 = a1.graph, a2.graph
    lo, hi = g1.f_range()
    tol = 1e-6 * max(1.0, g1.total_mass * max(1.0, hi - lo))

    for e in g1.solid_edges():
        t1, h1 = a1.circulation.limits[e.id]
        t2, h2 = a2.circulation.limits[iso.edge_map[e.id]]
        if abs(t1 - t2) > tol or abs(h1 - h2) > tol:
            return GraphIsomorphism(
                iso.vertex_map,
                iso.edge_map,
                Obstruction(
                    "CIRCULATION",
                    f"edge {e.id}: limits ({t1:g}, {h1:g}) vs ({t2:g}, {h2:g})",
                ),
            )

    if a1.xi.basis:
        dashed_ids = sorted(e.id for e in g2.dashed_edges())
        rows = []
        for cycle in a2.xi.basis:
            vec = cycle_edge_vector(cycle)
            rows.append([Fraction(vec.get(eid, 0)) for eid in dashed_ids])
        # a transported cycle's coefficients in the partner basis solve at x = target
        at = [[rows[r][c] for r in range(len(rows))] for c in range(len(dashed_ids))]
        for cycle, coord in zip(a1.xi.basis, a1.xi.coords):
            mapped = tuple(
                int(math.copysign(iso.edge_map[abs(x)], x)) for x in cycle
            )
            vec = cycle_edge_vector(mapped)
            target = [Fraction(vec.get(eid, 0)) for eid in dashed_ids]
            sol = linalg.solve_exact(at, target)
            if sol is None:
                return GraphIsomorphism(
                    iso.vertex_map,
                    iso.edge_map,
                    Obstruction("XI", "transported cycle outside the partner basis span"),
                )
            value = float(sum(float(cf) * c2 for cf, c2 in zip(sol, a2.xi.coords)))
            if abs(value - float(coord)) > tol:
                return GraphIsomorphism(
                    iso.vertex_map,
                    iso.edge_map,
                    Obstruction(
                        "XI",
                        f"cycle {cycle}: coordinate {float(coord):g} vs transported {value:g}",
                    ),
                )
    return iso
