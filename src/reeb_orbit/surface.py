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
        for tri in self.triangles:
            if len(set(int(x) for x in tri)) != 3:
                raise TopologyError(f"degenerate triangle {tri.tolist()}")

    def _build_incidence(self) -> None:
        edge_tris: dict[EdgeKey, list[int]] = {}
        directed_seen: dict[EdgeKey, list[int]] = {}
        for t, (a, b, c) in enumerate(self.triangles):
            for u, v in ((a, b), (b, c), (c, a)):
                k = edge_key(int(u), int(v))
                edge_tris.setdefault(k, []).append(t)
                directed_seen.setdefault(k, []).append(1 if u < v else -1)
        for k, ts in edge_tris.items():
            if len(ts) > 2:
                raise TopologyError(f"edge {k} shared by {len(ts)} triangles")
            if len(ts) == 2 and directed_seen[k][0] == directed_seen[k][1]:
                raise TopologyError(f"inconsistent orientation across edge {k}")
        self.edge_tris = edge_tris
        self.boundary_edge_keys = {k for k, ts in edge_tris.items() if len(ts) == 1}

        self.vertex_tris: list[list[int]] = [[] for _ in self.vertex_ids]
        for t, tri in enumerate(self.triangles):
            for v in tri:
                self.vertex_tris[int(v)].append(t)

        self.on_boundary = np.zeros(len(self.vertex_ids), dtype=bool)
        for u, v in self.boundary_edge_keys:
            self.on_boundary[u] = True
            self.on_boundary[v] = True

        self._check_connected()
        self.boundary_polygons = self._trace_boundary_polygons()
        self.total_area = float(math.fsum(self.areas.tolist()))
        self._id_of_index = list(self.vertex_ids)
        self._index_of_id = {vid: i for i, vid in enumerate(self.vertex_ids)}

    def _check_connected(self) -> None:
        nv = len(self.vertex_ids)
        if nv == 0:
            raise TopologyError("empty mesh")
        adj: list[list[int]] = [[] for _ in range(nv)]
        for u, v in self.edge_tris:
            adj[u].append(v)
            adj[v].append(u)
        seen = [False] * nv
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if not all(seen):
            raise TopologyError("1-skeleton is disconnected")

    def _trace_boundary_polygons(self) -> list[list[tuple[int, int]]]:
        """Boundary polygons as closed chains of directed edges.

        Each boundary edge is directed as its unique owning triangle traverses
        it, which puts the surface on the left; chaining successors yields the
        induced boundary orientation.
        """
        directed: dict[int, tuple[int, int]] = {}
        for u, v in sorted(self.boundary_edge_keys):
            t = self.edge_tris[(u, v)][0]
            a, b, c = (int(x) for x in self.triangles[t])
            for s, e in ((a, b), (b, c), (c, a)):
                if edge_key(s, e) == (u, v):
                    if s in directed:
                        raise TopologyError(
                            f"boundary is not a union of simple polygons at vertex {s}"
                        )
                    directed[s] = (s, e)
        polygons: list[list[tuple[int, int]]] = []
        used: set[int] = set()
        for start in sorted(directed):
            if start in used:
                continue
            chain = []
            u = start
            while True:
                used.add(u)
                du = directed.get(u)
                if du is None:
                    raise TopologyError("boundary chain does not close")
                chain.append(du)
                u = du[1]
                if u == start:
                    break
            polygons.append(chain)
        return polygons

    # -- convenience ----------------------------------------------------------

    def index_of(self, vertex_id: int) -> int:
        return self._index_of_id[vertex_id]

    def id_of(self, index: int) -> int:
        return self._id_of_index[index]

    def above(self, u: int, v: int) -> bool:
        """Whether vertex u is above vertex v, ties broken by index."""
        if self.f[u] != self.f[v]:
            return bool(self.f[u] > self.f[v])
        return u > v

    def link_path(self, v: int) -> tuple[list[int], bool]:
        """Link of v as an ordered vertex sequence.

        Returns (sequence, closed).  For an interior vertex the sequence is a
        cycle (first element not repeated); for a boundary vertex it is a path
        whose two endpoints are the boundary neighbours of v.
        """
        arcs: dict[int, int] = {}
        for t in self.vertex_tris[v]:
            a, b, c = (int(x) for x in self.triangles[t])
            if a == v:
                s, e = b, c
            elif b == v:
                s, e = c, a
            else:
                s, e = a, b
            if s in arcs:
                raise TopologyError(f"non-manifold star at vertex {v}")
            arcs[s] = e
        if not arcs:
            raise TopologyError(f"isolated vertex {v}")
        sources = set(arcs) - set(arcs.values())
        if not sources:
            start = min(arcs)
            seq = [start]
            cur = arcs[start]
            while cur != start:
                seq.append(cur)
                cur = arcs[cur]
            return seq, True
        if len(sources) != 1:
            raise TopologyError(f"non-manifold star at vertex {v}")
        start = sources.pop()
        seq = [start]
        cur = start
        while cur in arcs:
            cur = arcs[cur]
            seq.append(cur)
        return seq, False

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


def _sign_changes(signs: list[int], closed: bool) -> int:
    n = len(signs)
    if n < 2:
        return 0
    pairs = range(n) if closed else range(n - 1)
    return sum(1 for i in pairs if signs[i] != signs[(i + 1) % n])


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

    for t, tri in enumerate(s.triangles):
        a, b, c = (int(x) for x in tri)
        if s.f[a] == s.f[b] == s.f[c]:
            violations.append(
                Violation(
                    "FLAT_TRIANGLE",
                    tuple(sorted(s.id_of(v) for v in (a, b, c))),
                    f"triangle {t} has zero field extent; its area has no "
                    "regular level to carry it",
                )
            )

    for v in range(len(s.vertex_ids)):
        seq, closed = s.link_path(v)
        signs = [1 if s.above(u, v) else -1 for u in seq]
        sc = _sign_changes(signs, closed)
        vid = s.id_of(v)
        if closed:
            if sc == 0:
                kind = "min" if signs[0] > 0 else "max"
                criticals.append(CriticalPoint(vid, kind, float(s.f[v])))
            elif sc == 2:
                pass
            elif sc == 4:
                criticals.append(CriticalPoint(vid, "saddle", float(s.f[v])))
            else:
                violations.append(
                    Violation(
                        "DEGENERATE_CRITICAL",
                        (vid,),
                        f"interior vertex {vid} has {sc} link sign changes",
                    )
                )
        else:
            if sc == 1:
                continue
            if sc in (0, 2):
                kind = "boundary-min" if signs[0] > 0 else "boundary-max"
                criticals.append(CriticalPoint(vid, kind, float(s.f[v])))
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
