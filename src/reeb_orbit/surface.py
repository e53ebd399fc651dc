"""Triangulated oriented surfaces with a vertex scalar field and face area weights.

The mesh is purely combinatorial plus two data channels: a scalar value per
vertex (the field) and a positive weight per triangle (the area form).
Coordinates are optional diagnostics; no operation in the package depends on
them.  Criticality of the field is decided from link sign patterns, with ties
between equal vertex values broken by vertex index (simulation of simplicity),
so every genericity decision is deterministic and tolerance-free.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .errors import DataError, ParseError, TopologyError, UnsupportedMap

EdgeKey = tuple[int, int]

CRITICAL_KINDS = ("min", "max", "saddle", "boundary-min", "boundary-max")


def edge_key(u: int, v: int) -> EdgeKey:
    return (u, v) if u < v else (v, u)


def min_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest node index in the component of each of n nodes joined by
    the edges (a[i], b[i]).

    Each round hooks the larger of two differing root labels onto the
    smaller one, then jumps pointers until every label is a root.  Labels
    only decrease, so no cycle forms, and the smallest index of a component
    is a root that nothing can hook, so it ends as the component's label.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            return label
        la, lb = la[differ], lb[differ]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


@dataclass
class PLSurface:
    """Oriented triangle mesh with field values and per-face area weights.

    ``triangles`` holds internal vertex indices (positions into
    ``vertex_ids``/``f``); the listed order of each triple is the orientation.
    All derived incidence structures are built eagerly and the surface is
    treated as immutable afterwards.
    """

    vertex_ids: list[int]
    f: np.ndarray
    triangles: np.ndarray
    areas: np.ndarray
    xy: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.f = np.asarray(self.f, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=int)
        self.areas = np.asarray(self.areas, dtype=float)
        if self.xy is not None:
            self.xy = np.asarray(self.xy, dtype=float)
        self._check_basic()
        self._build_incidence()

    # -- construction checks -------------------------------------------------

    def _check_basic(self) -> None:
        nv = len(self.vertex_ids)
        if len(set(self.vertex_ids)) != nv:
            raise ParseError("duplicate vertex ids")
        if self.f.shape != (nv,):
            raise ParseError("field array must have one value per vertex")
        if not np.all(np.isfinite(self.f)):
            raise DataError("field values must be finite")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ParseError("triangles must be vertex triples")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= nv
        ):
            raise ParseError("triangle references unknown vertex")
        if len(self.areas) != len(self.triangles):
            raise ParseError("one area weight per triangle required")
        if not np.all(np.isfinite(self.areas)) or np.any(self.areas <= 0.0):
            raise DataError("triangle areas must be positive and finite")
        a, b, c = self.triangles.T
        degenerate = (a == b) | (b == c) | (c == a)
        if degenerate.any():
            tri = self.triangles[degenerate.argmax()]
            raise TopologyError(f"degenerate triangle {tri.tolist()}")

    def _build_incidence(self) -> None:
        nv = len(self.vertex_ids)
        edges, boundary, self.star_tri = _half_edge_incidence(self.triangles, nv)
        self.on_boundary = np.zeros(nv, dtype=bool)
        self.on_boundary[boundary[:, 0]] = True
        self.boundary_polygons = _boundary_polygons(nv, boundary)
        # the dict is built once the array temporaries are gone, from column
        # lists, with one int object per triangle index (peak RSS)
        tris = list(range(len(self.triangles)))
        self.edge_tris = {
            (u, v): [tris[a]] if b < 0 else [tris[a], tris[b]]
            for u, v, a, b in zip(*(column.tolist() for column in edges.T))
        }
        self.boundary_edge_keys = set(map(tuple, np.sort(boundary, axis=1).tolist()))
        self.total_area = float(math.fsum(self.areas.tolist()))
        self._id_of_index = list(self.vertex_ids)
        self._index_of_id = dict(zip(self.vertex_ids, range(nv)))

    # -- convenience ----------------------------------------------------------

    def index_of(self, vertex_id: int) -> int:
        return self._index_of_id[vertex_id]

    def id_of(self, index: int) -> int:
        return self._id_of_index[index]

    def to_dict(self) -> dict[str, Any]:
        verts = []
        for i, vid in enumerate(self.vertex_ids):
            entry: dict[str, Any] = {"id": vid, "f": float(self.f[i])}
            if self.xy is not None:
                entry["xy"] = [float(self.xy[i, 0]), float(self.xy[i, 1])]
            verts.append(entry)
        tris = [
            {"v": [self.vertex_ids[int(a)] for a in tri], "area": float(area)}
            for tri, area in zip(self.triangles, self.areas)
        ]
        return {"vertices": verts, "triangles": tris}


def _half_edge_incidence(
    triangles: np.ndarray, nv: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check a triangle array as an oriented connected surface and derive its
    incidence from one table of half-edges.

    Half-edge 3t+i runs from corner i to corner i+1 of triangle t.  Sorted by
    undirected key, the sides of each mesh edge sit next to each other, in
    triangle order.  Returns the mesh edges in order of first appearance as
    rows (u, v, first triangle, second triangle or -1), the boundary edges in
    key order, each directed as its triangle traverses it (which puts the
    surface on the left), and the smallest triangle of each vertex's star.
    """
    # 32-bit vertex indices halve the temporaries (peak RSS); keys need 64
    src = triangles.astype(np.int32).ravel()
    dst = src.reshape(-1, 3)[:, [1, 2, 0]].ravel()
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    key = lo.astype(np.int64) * nv + hi
    order = np.argsort(key, kind="stable")
    start = np.flatnonzero(np.diff(key[order], prepend=-1))
    sides = np.diff(start, append=len(order))
    first = order[start]
    second = order[np.minimum(start + 1, len(order) - 1)]
    same_way = (src[first] < dst[first]) == (src[second] < dst[second])
    bad = np.flatnonzero((sides > 2) | ((sides == 2) & same_way))
    if bad.size:
        e = bad[first[bad].argmin()]
        k = (int(lo[first[e]]), int(hi[first[e]]))
        if sides[e] > 2:
            raise TopologyError(f"edge {k} shared by {int(sides[e])} triangles")
        raise TopologyError(f"inconsistent orientation across edge {k}")

    if nv == 0:
        raise TopologyError("empty mesh")
    ends = np.stack([lo[first], hi[first]], axis=1)
    if min_labels(nv, ends[:, 0], ends[:, 1]).any():
        raise TopologyError("1-skeleton is disconnected")

    boundary = np.stack([src, dst], axis=1)[first[sides == 1]]
    later = np.argsort(boundary[:, 0], kind="stable")
    repeated = later[1:][boundary[later[1:], 0] == boundary[later[:-1], 0]]
    if repeated.size:
        v = int(boundary[repeated.min(), 0])
        raise TopologyError(f"boundary is not a union of simple polygons at vertex {v}")

    # link nodes are edge ends (2e for the lower vertex of edge e, 2e+1 for
    # the upper); the corner at src[h] joins the ends, at that vertex, of
    # half-edge h and of the half-edge before it in its triangle
    edge_of = np.empty(len(order), dtype=int)
    edge_of[order] = np.repeat(np.arange(len(start)), sides)
    before = np.arange(len(order)).reshape(-1, 3)[:, [2, 0, 1]].ravel()
    link = min_labels(
        2 * len(start),
        2 * edge_of + (src > dst),
        2 * edge_of[before] + (dst[before] > src[before]),
    )
    star_parts = np.bincount(ends.ravel()[link == np.arange(len(link))], minlength=nv)
    if np.any(star_parts != 1):
        v = int(np.argmax(star_parts != 1))
        if star_parts[v] == 0:
            raise TopologyError(f"isolated vertex {v}")
        raise TopologyError(f"non-manifold star at vertex {v}")

    listed = np.argsort(first)
    edges = np.column_stack(
        [ends[listed], first[listed] // 3, np.where(sides == 2, second // 3, -1)[listed]]
    )
    star_tri = np.unique(src, return_index=True)[1] // 3
    return edges, boundary, star_tri


def _boundary_polygons(nv: int, boundary: np.ndarray) -> list[list[tuple[int, int]]]:
    """Closed chains of the directed boundary edges, each starting at its
    smallest vertex, in order of that vertex.

    Every vertex has as many boundary edges in as out, and at most one out,
    so the boundary falls into disjoint simple cycles.
    """
    succ = [-1] * nv
    for u, v in boundary.tolist():
        succ[u] = v
    polygons = []
    for start in sorted(boundary[:, 0].tolist()):
        chain = []
        u = start
        while succ[u] >= 0:
            chain.append((u, succ[u]))
            succ[u], u = -1, succ[u]
        if chain:
            polygons.append(chain)
    return polygons


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class CriticalPoint:
    vertex_id: int
    kind: str
    f_value: float


@dataclass(frozen=True)
class Violation:
    code: str
    vertex_ids: tuple[int, ...]
    message: str


@dataclass
class ValidationReport:
    is_simple_morse: bool
    critical_points: list[CriticalPoint]
    violations: list[Violation]

    def to_dict(self) -> dict[str, Any]:
        return {
            "is_simple_morse": self.is_simple_morse,
            "critical_points": [
                {"vertex": c.vertex_id, "kind": c.kind, "f": c.f_value}
                for c in self.critical_points
            ],
            "violations": [
                {"code": v.code, "vertices": list(v.vertex_ids), "message": v.message}
                for v in self.violations
            ],
        }


def _above(f: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether vertex u is above vertex v, ties broken by index."""
    return (f[u] > f[v]) | ((f[u] == f[v]) & (u > v))


def validate_simple_morse(s: PLSurface) -> ValidationReport:
    """Classify every vertex by its link sign pattern and collect violations.

    Interior vertices: 0 sign changes around the link is an extremum, 2 is
    regular, 4 a simple saddle, 6 or more a degenerate critical point.
    Boundary vertices: the link is a path between the two boundary
    neighbours; 1 change is regular, 0 or 2 are simple critical points of the
    boundary restriction, 3 or more signal a critical point of the field
    itself sitting on the boundary (or a degenerate one).
    """
    criticals: list[CriticalPoint] = []
    violations: list[Violation] = []

    tri_f = s.f[s.triangles]
    flat = (tri_f[:, 0] == tri_f[:, 1]) & (tri_f[:, 1] == tri_f[:, 2])
    for t in np.flatnonzero(flat).tolist():
        violations.append(
            Violation(
                "FLAT_TRIANGLE",
                tuple(sorted(s.id_of(v) for v in s.triangles[t].tolist())),
                f"triangle {t} has zero field extent; its area has no "
                "regular level to carry it",
            )
        )

    # corner (v; a, b) of a triangle is the step a -> b of v's link
    nv = len(s.vertex_ids)
    v = s.triangles.ravel()
    a = s.triangles[:, [1, 2, 0]].ravel()
    b = s.triangles[:, [2, 0, 1]].ravel()
    changes = np.bincount(v[_above(s.f, a, v) != _above(s.f, b, v)], minlength=nv)
    # the first link neighbour: the successor along the boundary polygon for a
    # boundary vertex, any neighbour for an interior one (read only when all
    # neighbours lie on one side)
    first = np.empty(nv, dtype=int)
    first[v] = a
    steps = [d for chain in s.boundary_polygons for d in chain]
    steps = np.array(steps, dtype=int).reshape(-1, 2)
    first[steps[:, 0]] = steps[:, 1]
    up = _above(s.f, first, np.arange(nv))
    irregular = np.flatnonzero(changes != np.where(s.on_boundary, 1, 2))

    for i in irregular.tolist():
        sc = int(changes[i])
        vid = s.id_of(i)
        if not s.on_boundary[i]:
            if sc == 0:
                kind = "min" if up[i] else "max"
                criticals.append(CriticalPoint(vid, kind, float(s.f[i])))
            elif sc == 4:
                criticals.append(CriticalPoint(vid, "saddle", float(s.f[i])))
            else:
                violations.append(
                    Violation(
                        "DEGENERATE_CRITICAL",
                        (vid,),
                        f"interior vertex {vid} has {sc} link sign changes",
                    )
                )
        elif sc in (0, 2):
            kind = "boundary-min" if up[i] else "boundary-max"
            criticals.append(CriticalPoint(vid, kind, float(s.f[i])))
        elif sc % 2 == 1:
            violations.append(
                Violation(
                    "BOUNDARY_CRITICAL",
                    (vid,),
                    f"field has a critical point on the boundary at {vid} "
                    f"({sc} link sign changes)",
                )
            )
        else:
            violations.append(
                Violation(
                    "DEGENERATE_CRITICAL",
                    (vid,),
                    f"boundary vertex {vid} has {sc} link sign changes",
                )
            )

    by_value: dict[float, list[int]] = {}
    for c in criticals:
        by_value.setdefault(c.f_value, []).append(c.vertex_id)
    for value, vids in sorted(by_value.items()):
        if len(vids) > 1:
            violations.append(
                Violation(
                    "DUPLICATE_CRITICAL_VALUE",
                    tuple(sorted(vids)),
                    f"critical value {value!r} shared by vertices {sorted(vids)}",
                )
            )

    criticals.sort(key=lambda c: (c.f_value, c.vertex_id))
    return ValidationReport(not violations, criticals, violations)


# -- topology summary ---------------------------------------------------------


@dataclass(frozen=True)
class TopologySummary:
    euler_characteristic: int
    boundary_component_count: int
    genus: int
    total_area: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "euler_characteristic": self.euler_characteristic,
            "boundary_component_count": self.boundary_component_count,
            "genus": self.genus,
            "total_area": self.total_area,
        }


def topology_summary(s: PLSurface) -> TopologySummary:
    chi = len(s.vertex_ids) - len(s.edge_tris) + len(s.triangles)
    b = len(s.boundary_polygons)
    two_g = 2 - chi - b
    if two_g < 0 or two_g % 2 != 0:
        raise TopologyError(f"chi={chi}, b={b} is not an orientable surface")
    return TopologySummary(chi, b, two_g // 2, s.total_area)


# -- test transformations -----------------------------------------------------


def load_mesh(source: Any) -> PLSurface:
    """Parse the mesh JSON format into a validated surface.

    ``source`` may be bytes, a JSON string, a file-like object, or an already
    decoded dict.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            if hasattr(source, "read"):
                doc = json.load(source)
            elif isinstance(source, (bytes, bytearray)):
                doc = json.loads(source.decode("utf-8"))
            else:
                doc = json.loads(source)
        except (ValueError, UnicodeDecodeError) as exc:
            raise ParseError(f"invalid mesh JSON: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc or "triangles" not in doc:
        raise ParseError("mesh JSON must contain 'vertices' and 'triangles'")

    ids: list[int] = []
    fvals: list[float] = []
    coords: list[Optional[list[float]]] = []
    for entry in doc["vertices"]:
        try:
            ids.append(int(entry["id"]))
            fvals.append(float(entry["f"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad vertex entry {entry!r}") from exc
        coords.append(entry.get("xy"))
    index = {vid: i for i, vid in enumerate(ids)}
    if len(index) != len(ids):
        raise ParseError("duplicate vertex ids")

    tris: list[list[int]] = []
    areas: list[float] = []
    for entry in doc["triangles"]:
        try:
            triple = [index[int(v)] for v in entry["v"]]
            area = float(entry["area"])
        except KeyError as exc:
            raise ParseError(f"bad triangle entry {entry!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad triangle entry {entry!r}") from exc
        if len(triple) != 3:
            raise ParseError(f"triangle must reference 3 vertices, got {entry!r}")
        tris.append(triple)
        areas.append(area)

    xy = None
    if all(c is not None for c in coords) and coords:
        try:
            xy = np.array(coords, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad vertex coordinates: {exc}") from exc
        if xy.shape != (len(coords), 2):
            raise ParseError("every vertex xy must be a coordinate pair")
    return PLSurface(ids, np.array(fvals), np.array(tris, dtype=int).reshape(-1, 3), np.array(areas), xy)


def remap(s: PLSurface, map_spec: dict[str, Any]) -> PLSurface:
    """Apply a supported area-preserving test transformation.

    Supported kinds: ``relabel`` (vertex id permutation), ``shear``
    (coordinate shear on a flat patch, field and areas untouched), and
    ``refine`` (one barycentric refinement, each face split into six children
    of one sixth the weight).
    """
    kind = map_spec.get("kind")
    if kind == "relabel":
        mapping = {int(k): int(v) for k, v in map_spec["mapping"].items()}
        if sorted(mapping) != sorted(s.vertex_ids) or len(set(mapping.values())) != len(mapping):
            raise UnsupportedMap("relabel mapping must be a bijection on vertex ids")
        new_ids = [mapping[vid] for vid in s.vertex_ids]
        return PLSurface(
            new_ids,
            s.f.copy(),
            s.triangles.copy(),
            s.areas.copy(),
            None if s.xy is None else s.xy.copy(),
        )
    if kind == "shear":
        if s.xy is None:
            raise UnsupportedMap("shear requires vertex coordinates")
        factor = float(map_spec.get("factor", 0.0))
        xy = s.xy.copy()
        xy[:, 1] += factor * xy[:, 0]
        return PLSurface(list(s.vertex_ids), s.f.copy(), s.triangles.copy(), s.areas.copy(), xy)
    if kind == "refine":
        return _barycentric_refine(s)
    raise UnsupportedMap(f"unknown map kind {kind!r}")


def _barycentric_refine(s: PLSurface) -> PLSurface:
    next_id = max(s.vertex_ids) + 1
    ids = list(s.vertex_ids)
    f = list(s.f)
    xy = None if s.xy is None else [list(p) for p in s.xy]

    mid_index: dict[EdgeKey, int] = {}
    for k in sorted(s.edge_tris):
        u, v = k
        mid_index[k] = len(ids)
        ids.append(next_id)
        next_id += 1
        f.append((s.f[u] + s.f[v]) / 2.0)
        if xy is not None:
            xy.append([(s.xy[u, 0] + s.xy[v, 0]) / 2.0, (s.xy[u, 1] + s.xy[v, 1]) / 2.0])

    tris: list[list[int]] = []
    areas: list[float] = []
    for t, (a, b, c) in enumerate(s.triangles):
        a, b, c = int(a), int(b), int(c)
        g = len(ids)
        ids.append(next_id)
        next_id += 1
        f.append((s.f[a] + s.f[b] + s.f[c]) / 3.0)
        if xy is not None:
            xy.append(
                [
                    (s.xy[a, 0] + s.xy[b, 0] + s.xy[c, 0]) / 3.0,
                    (s.xy[a, 1] + s.xy[b, 1] + s.xy[c, 1]) / 3.0,
                ]
            )
        mab = mid_index[edge_key(a, b)]
        mbc = mid_index[edge_key(b, c)]
        mca = mid_index[edge_key(c, a)]
        child_area = float(s.areas[t]) / 6.0
        for tri in (
            (a, mab, g),
            (mab, b, g),
            (b, mbc, g),
            (mbc, c, g),
            (c, mca, g),
            (mca, a, g),
        ):
            tris.append(list(tri))
            areas.append(child_area)

    return PLSurface(
        ids,
        np.array(f),
        np.array(tris, dtype=int),
        np.array(areas),
        None if xy is None else np.array(xy),
    )
