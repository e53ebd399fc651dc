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
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any, Optional

import numpy as np
import orjson

from .errors import DataError, ParseError, TopologyError, UnsupportedMap

EdgeKey = tuple[int, int]


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
    Mesh edges are numbered once, in order of their (u, v) index pairs,
    u < v: ``edge_rows[e]`` is (u, v, first triangle, second triangle or -1)
    and ``edge_of[3t+i]`` the edge of side i of triangle t, from corner i to
    corner i+1.  The derived incidence structures are built eagerly, and the
    surface is treated as immutable afterwards.
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
        self._index_of_id = dict(zip(self.vertex_ids, range(nv)))
        if len(self._index_of_id) != nv:
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
            raise TopologyError(
                f"degenerate triangle {[int(self.vertex_ids[i]) for i in tri.tolist()]}"
            )

    def _build_incidence(self) -> None:
        nv = len(self.vertex_ids)
        self.edge_rows, boundary, self.star_tri, self.twin, self.edge_of = (
            _half_edge_incidence(self.triangles, self.vertex_ids)
        )
        self.on_boundary = np.zeros(nv, dtype=bool)
        self.on_boundary[boundary[:, 0]] = True
        self.boundary_polygons = _boundary_polygons(nv, boundary)
        self.total_area = float(math.fsum(self.areas.tolist()))

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        return self.edge_rows[:, 0].astype(np.int64) * len(self.vertex_ids) + self.edge_rows[:, 1]

    def edge_number(self, u: Any, v: Any) -> np.ndarray:
        """Edge number of each vertex pair (u, v), in either direction, or -1
        where the pair is no mesh edge; ``u`` and ``v`` are indices or arrays
        of them."""
        keys = self._edge_keys
        key = np.minimum(u, v).astype(np.int64) * len(self.vertex_ids) + np.maximum(u, v)
        at = np.searchsorted(keys, key).clip(max=len(keys) - 1)
        return np.where(keys[at] == key, at, -1)

    # -- convenience ----------------------------------------------------------

    def index_of(self, vertex_id: int) -> int:
        return self._index_of_id[vertex_id]

    def id_of(self, index: int) -> int:
        return self.vertex_ids[index]

    def to_dict(self) -> dict[str, Any]:
        ids, f = self.vertex_ids, self.f.tolist()
        if self.xy is None:
            verts = [{"id": vid, "f": x} for vid, x in zip(ids, f)]
        else:
            verts = [{"id": vid, "f": x, "xy": p} for vid, x, p in zip(ids, f, self.xy.tolist())]
        corners = np.asarray(ids)[self.triangles].tolist()
        tris = [{"v": v, "area": area} for v, area in zip(corners, self.areas.tolist())]
        return {"vertices": verts, "triangles": tris}


def _half_edge_incidence(
    triangles: np.ndarray, ids: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check a triangle array as an oriented connected surface and derive its
    incidence from one table of half-edges.

    Half-edge 3t+i runs from corner i to corner i+1 of triangle t.  Sorted by
    undirected key, the sides of each mesh edge sit next to each other, in
    triangle order.  Returns the mesh edges in key order as rows (u, v, first
    triangle, second triangle or -1), the boundary edges in key order, each
    directed as its triangle traverses it (which puts the surface on the
    left), the smallest triangle of each vertex's star, the twin of each
    half-edge (the triangle across it, or -1 on the boundary) and the edge
    number of each half-edge.  Errors name vertices by their ids in ``ids``.
    """
    nv = len(ids)
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
        k = edge_key(int(ids[lo[first[e]]]), int(ids[hi[first[e]]]))
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
        v = ids[boundary[repeated.min(), 0]]
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
            raise TopologyError(f"isolated vertex {ids[v]}")
        raise TopologyError(f"non-manifold star at vertex {ids[v]}")

    edges = np.column_stack([ends, first // 3, np.where(sides == 2, second // 3, -1)])
    star_tri = np.unique(src, return_index=True)[1] // 3
    twin = np.full(len(order), -1, dtype=np.int32)
    paired = sides == 2
    twin[first[paired]] = second[paired] // 3
    twin[second[paired]] = first[paired] // 3
    return edges, boundary, star_tri, twin, edge_of


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


def orientable_genus(chi: int, b: int) -> int:
    """Genus of the orientable surface with Euler characteristic chi and b
    boundary components: (2 - chi - b) / 2, which must be a whole number >= 0."""
    two_g = 2 - chi - b
    if two_g < 0 or two_g % 2 != 0:
        raise TopologyError(f"chi={chi}, b={b} is not an orientable surface")
    return two_g // 2


def topology_summary(s: PLSurface) -> TopologySummary:
    chi = len(s.vertex_ids) - len(s.edge_rows) + len(s.triangles)
    b = len(s.boundary_polygons)
    return TopologySummary(chi, b, orientable_genus(chi, b), s.total_area)


# -- test transformations -----------------------------------------------------


# orjson 3.8 builds nested values by native recursion and overflows an 8 MB
# stack (a segfault) between 10**5 and 2 * 10**5 levels, so a document that
# could nest this deep goes to json, which nests about 1000 levels at most
ORJSON_MAX_OPENERS = 2**15


def _few_openers(source: str | bytes | bytearray) -> bool:
    """Whether ``source`` holds fewer than ORJSON_MAX_OPENERS brackets and
    braces, each level of nesting taking one."""
    if len(source) < ORJSON_MAX_OPENERS:
        return True
    if isinstance(source, str):
        return source.count("[") + source.count("{") < ORJSON_MAX_OPENERS
    chars = np.frombuffer(source, dtype=np.uint8)
    openers = np.count_nonzero(chars == ord("[")) + np.count_nonzero(chars == ord("{"))
    return openers < ORJSON_MAX_OPENERS


def decode_json(source: Any, noun: str) -> Any:
    """The decoded document of bytes, a JSON string or a file-like object;
    anything else is taken as an already decoded document and returned as it
    is.  Bytes are decoded as ``json.loads`` decodes them: UTF-8, with a
    byte-order mark or not, or UTF-16 or UTF-32.  ``noun`` names the format
    in the ParseError message.

    orjson decodes first, and what it refuses goes to ``json.loads``, which
    decodes it (NaN and Infinity, a byte-order mark, UTF-16 or UTF-32, lone
    surrogates, numbers beyond double range) or words the ParseError.  Text
    with too many brackets and braces for orjson to nest safely goes to
    ``json.loads`` directly.  The one difference: orjson reads an integer
    outside [-2**63, 2**64) as a float, so an integer field refuses it
    showing the float."""
    if hasattr(source, "read"):
        source = source.read()
    if not isinstance(source, (str, bytes, bytearray)):
        return source
    if _few_openers(source):
        try:
            return orjson.loads(source)
        except orjson.JSONDecodeError:
            pass
    try:
        return json.loads(source)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
        raise ParseError(f"invalid {noun} JSON: {exc}") from exc


# JSON types, each with the dtype of its columns (None: the list itself).
# json decodes true/false as bool, a subclass of int that numpy converts
# silently, so types are compared exactly.
JSON_INT = (frozenset({int}), np.int64)
JSON_NUMBER = (frozenset({int, float}), float)
JSON_STRING = (frozenset({str}), None)
JSON_ARRAY = (frozenset({list}), None)

# an id in a JSON object key: canonical decimal, as str(int) writes it, so no
# id has two keys; \d is ASCII only, as int() would take other digits
ID_KEY = re.compile(r"0|-?[1-9]\d*", re.ASCII)


def json_column(values: list, json_type: tuple) -> Any:
    """``values`` as one column of ``json_type``, or None when a value is of
    another type or does not fit the column's dtype."""
    types, dtype = json_type
    if not set(map(type, values)) <= types:
        return None
    try:
        return values if dtype is None else np.array(values, dtype=dtype)
    except OverflowError:
        return None


def json_records(entries: Any, fields: dict[str, tuple], what: str) -> list:
    """The columns of a list of JSON objects, one json_column per field of
    ``fields`` (name to JSON type), in order.  Each field is read as one
    column; only when one fails are the entries read one by one, to name the
    first bad one in the ParseError."""
    if type(entries) is not list:
        raise ParseError(f"{what} entries must be a list")
    try:
        columns = [json_column([e[name] for e in entries], t) for name, t in fields.items()]
    except (KeyError, TypeError):
        columns = [None]
    if any(column is None for column in columns):
        # a column fails only where an entry fails on its own, so reading the
        # entries one by one raises at the first bad one
        if len(entries) > 1:
            for entry in entries:
                json_records([entry], fields, what)
        raise ParseError(f"bad {what} entry {entries[0]!r}")
    return columns


def _triangle_columns(
    entries: list, sorted_ids: np.ndarray, order: np.ndarray
) -> Optional[tuple[bool, np.ndarray, np.ndarray]]:
    """Whether every entry has three corners, the corner positions (flat) and
    the areas of triangle entries, or None when an entry is bad.  A corner is
    found in the ids sorted by ``order``."""
    try:
        corners, areas = json_records(entries, {"v": JSON_ARRAY, "area": JSON_NUMBER}, "triangle")
    except ParseError:
        return None
    flat = json_column([*chain.from_iterable(corners)], JSON_INT)
    if flat is None or (flat.size and not sorted_ids.size):
        return None
    at = np.searchsorted(sorted_ids, flat).clip(max=max(len(sorted_ids) - 1, 0))
    if not np.array_equal(sorted_ids[at], flat):
        return None
    return set(map(len, corners)) <= {3}, order[at], areas


def load_mesh(source: Any) -> PLSurface:
    """Parse the mesh JSON format into a validated surface.

    ``source`` may be bytes, a JSON string, a file-like object, or an already
    decoded dict.  Ids and corners must be JSON integers, and ``f``, ``area``
    and ``xy`` JSON numbers.  Each field is taken as one column; only on a
    bad entry are the entries scanned, to name the first one.
    """
    doc = decode_json(source, "mesh")
    if not isinstance(doc, dict) or "vertices" not in doc or "triangles" not in doc:
        raise ParseError("mesh JSON must contain 'vertices' and 'triangles'")
    verts, tris = doc["vertices"], doc["triangles"]
    if not isinstance(verts, list) or not isinstance(tris, list):
        raise ParseError("mesh JSON 'vertices' and 'triangles' must be lists")

    id_array, f = json_records(verts, {"id": JSON_INT, "f": JSON_NUMBER}, "vertex")
    order = np.argsort(id_array)
    sorted_ids = id_array[order]
    if np.any(sorted_ids[1:] == sorted_ids[:-1]):
        raise ParseError("duplicate vertex ids")

    columns = _triangle_columns(tris, sorted_ids, order)
    if columns is None or not columns[0]:
        # an entry that fails on its own is at fault, so the scan raises
        for entry in tris:
            one = _triangle_columns([entry], sorted_ids, order)
            if one is None:
                raise ParseError(f"bad triangle entry {entry!r}")
            if not one[0]:
                raise ParseError(f"triangle must reference 3 vertices, got {entry!r}")
    _, corners, areas = columns

    xy = None
    coords = [entry.get("xy") for entry in verts]
    if coords and None not in coords:
        if not set(map(type, coords)) <= {list} or set(map(len, coords)) != {2}:
            raise ParseError("every vertex xy must be a coordinate pair")
        xy = json_column([*chain.from_iterable(coords)], JSON_NUMBER)
        if xy is None:
            bad = next(e for e in verts if json_column(e["xy"], JSON_NUMBER) is None)
            raise ParseError(f"bad vertex entry {bad!r}")
        xy = xy.reshape(-1, 2)
    return PLSurface(id_array.tolist(), f, corners.reshape(-1, 3), areas, xy)


def remap(s: PLSurface, map_spec: dict[str, Any]) -> PLSurface:
    """Apply a supported area-preserving test transformation.

    Supported kinds: ``relabel`` (vertex id permutation), ``shear``
    (coordinate shear on a flat patch, field and areas untouched), and
    ``refine`` (one barycentric refinement, each face split into six children
    of one sixth the weight).
    """
    if not isinstance(map_spec, dict):
        raise ParseError("map spec must be an object with a 'kind'")
    kind = map_spec.get("kind")
    if kind == "relabel":
        mapping = _relabel_mapping(map_spec.get("mapping"))
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
        raw = map_spec.get("factor", 0.0)
        factor = json_column([raw], JSON_NUMBER)
        if factor is None or not np.isfinite(factor[0]):
            raise ParseError(f"shear factor must be a finite number, got {raw!r}")
        xy = s.xy.copy()
        xy[:, 1] += factor[0] * xy[:, 0]
        return PLSurface(list(s.vertex_ids), s.f.copy(), s.triangles.copy(), s.areas.copy(), xy)
    if kind == "refine":
        return _barycentric_refine(s)
    raise UnsupportedMap(f"unknown map kind {kind!r}")


def _relabel_mapping(raw: Any) -> dict[int, int]:
    """A relabel mapping read by type: each key an int or a canonical decimal
    id string, each value an int; bools and floats are not ids."""
    if not isinstance(raw, dict):
        raise ParseError("relabel mapping must be an object from vertex ids to vertex ids")
    mapping = {}
    for key, value in raw.items():
        vid = int(key) if type(key) is str and ID_KEY.fullmatch(key) else key
        if type(vid) is not int or type(value) is not int:
            raise ParseError(f"relabel entry {key!r}: {value!r} is not a vertex id to an integer id")
        mapping[vid] = value
    if len(mapping) != len(raw):
        raise ParseError("two relabel keys name the same vertex id")
    return mapping


def _barycentric_refine(s: PLSurface) -> PLSurface:
    """Each triangle split into six about its centroid: the midpoint of edge
    e becomes vertex nv + e, the centroid of triangle t vertex nv + E + t, and
    new vertices take the ids after the largest one, in that order."""
    nv, ne = len(s.vertex_ids), len(s.edge_rows)
    u, v = s.edge_rows[:, 0], s.edge_rows[:, 1]
    a, b, c = s.triangles.T
    f = np.concatenate([s.f, (s.f[u] + s.f[v]) / 2.0, (s.f[a] + s.f[b] + s.f[c]) / 3.0])
    xy = None
    if s.xy is not None:
        xy = np.concatenate([s.xy, (s.xy[u] + s.xy[v]) / 2.0, (s.xy[a] + s.xy[b] + s.xy[c]) / 3.0])
    mid = nv + s.edge_of.reshape(-1, 3)
    g = np.broadcast_to((nv + ne + np.arange(len(a)))[:, None], mid.shape)
    nxt = s.triangles[:, [1, 2, 0]]
    # children (corner i, midpoint i, g) and (midpoint i, corner i+1, g) of
    # side i, sides in order
    tris = np.stack(
        [np.stack([s.triangles, mid, g], axis=2), np.stack([mid, nxt, g], axis=2)], axis=2
    ).reshape(-1, 3)
    first_new = max(s.vertex_ids) + 1
    ids = list(s.vertex_ids) + list(range(first_new, first_new + ne + len(a)))
    return PLSurface(ids, f, tris, np.repeat(s.areas / 6.0, 6), xy)
