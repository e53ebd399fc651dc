"""JSON schemas for meshes, graphs, augmented graphs, one-forms, and DOT export."""

from __future__ import annotations

import json
import re
from typing import Any

import numpy as np

from .errors import DataError, ParseError
from .reebgraph import MeasuredReebGraph, MeasureProfile, ReebEdge, ReebVertex
from .surface import ID_KEY, JSON_ARRAY, JSON_INT, JSON_NUMBER, JSON_STRING, PLSurface
from .surface import decode_json, json_column, json_records

EDGE_KEY = re.compile(f"({ID_KEY.pattern})-({ID_KEY.pattern})", re.ASCII)


def _id_keyed(block: Any, what: str) -> tuple[list[int], list]:
    """The ids that the keys of a JSON object name, and its values, in key
    order."""
    if not isinstance(block, dict):
        raise ParseError(f"{what} must be a JSON object keyed by ids")
    bad = [k for k in block if type(k) is not str or not ID_KEY.fullmatch(k)]
    if bad:
        raise ParseError(f"{what} key {bad[0]!r} is not a canonical decimal id")
    return [int(k) for k in block], list(block.values())


def _id_lists(lists: Any, what: str) -> list[tuple[int, ...]]:
    """``lists`` as tuples, or a ParseError naming ``what`` unless it is a
    list of lists of JSON integer ids."""
    arrays = type(lists) is list and json_column(lists, JSON_ARRAY) is not None
    if not arrays or json_column([x for ids in lists for x in ids], JSON_INT) is None:
        raise ParseError(f"{what} must be lists of JSON integer edge ids")
    return [tuple(ids) for ids in lists]


def _finite_column(values: Any, what: str) -> np.ndarray:
    """``values`` as a float array, or a ParseError naming ``what`` unless it
    is a list of finite JSON numbers."""
    column = json_column(values, JSON_NUMBER) if type(values) is list else None
    if column is None or not np.isfinite(column).all():
        raise ParseError(f"{what} must be a list of finite JSON numbers")
    return column


def graph_to_dict(g: MeasuredReebGraph) -> dict[str, Any]:
    return {
        "vertices": [
            {"id": v.id, "f": v.f, "type": v.vtype, "orientation": v.orientation}
            for v in g.vertices
        ],
        "edges": [
            {
                "id": e.id,
                "tail": e.tail,
                "head": e.head,
                "style": e.style,
                "mass": e.mass,
                "cumulative": e.profile.cumulative.tolist(),
            }
            for e in g.edges
        ],
        "cyclic_orders": {str(v): list(order) for v, order in sorted(g.cyclic_orders.items())},
    }


GRAPH_VERTEX = {"id": JSON_INT, "f": JSON_NUMBER, "type": JSON_STRING, "orientation": JSON_STRING}
GRAPH_EDGE = {"id": JSON_INT, "tail": JSON_INT, "head": JSON_INT, "style": JSON_STRING,
              "cumulative": JSON_ARRAY}


def graph_from_dict(doc: Any) -> MeasuredReebGraph:
    """Graph of the JSON written by ``graph_to_dict``: ids are JSON integers,
    ``f``, the optional ``mass`` and the samples JSON numbers, the other
    fields JSON strings, and cyclic-order keys canonical decimal ids."""
    if not isinstance(doc, dict):
        raise ParseError("graph JSON must be an object")
    vids, fs, types, orientations = json_records(doc.get("vertices"), GRAPH_VERTEX, "vertex")
    vertices = [ReebVertex(*v) for v in zip(vids.tolist(), fs.tolist(), types, orientations)]
    entries = doc.get("edges")
    eids, tails, heads, styles, samples = json_records(entries, GRAPH_EDGE, "edge")
    vf = {v.id: v.f for v in vertices}
    edges = []
    ends = zip(tails.tolist(), heads.tolist())
    for eid, (tail, head), style, cum in zip(eids.tolist(), ends, styles, samples):
        cum = json_column(cum, JSON_NUMBER)
        if cum is None:
            raise ParseError(f"edge {eid}: cumulative must be a list of JSON numbers")
        if tail not in vf or head not in vf:
            raise ParseError(f"edge {eid} references unknown vertex")
        edges.append(ReebEdge(eid, tail, head, style, MeasureProfile(vf[tail], vf[head], cum)))
    stated = [i for i, entry in enumerate(entries) if "mass" in entry]
    (masses,) = json_records([entries[i] for i in stated], {"mass": JSON_NUMBER}, "edge")
    for edge, mass in zip([edges[i] for i in stated], masses.tolist()):
        # "not <=" rejects a NaN on either side too; an empty profile has
        # no mass to compare, and validate() rejects it
        if edge.profile.cumulative.size and not abs(mass - edge.mass) <= 1e-9 * abs(edge.mass):
            raise DataError(f"edge {edge.id}: stated mass {mass!r} differs from its profile's "
                            f"{edge.mass!r}")
    keys, orders = _id_keyed(doc.get("cyclic_orders", {}), "cyclic_orders")
    cyclic = dict(zip(keys, _id_lists(orders, "cyclic orders")))
    g = MeasuredReebGraph(vertices, edges, cyclic)
    g.validate()
    return g


def load_graph(source: Any) -> MeasuredReebGraph:
    return graph_from_dict(decode_json(source, "graph"))


def augmented_to_dict(aug) -> dict[str, Any]:
    doc = graph_to_dict(aug.graph)
    doc["circulation"] = {
        str(eid): [float(t), float(h)] for eid, (t, h) in sorted(aug.circulation.limits.items())
    }
    doc["xi"] = {
        "basis": [list(cycle) for cycle in aug.xi.basis],
        "coords": [float(c) for c in aug.xi.coords],
    }
    return doc


def limits_from_dict(block: Any) -> dict[int, tuple[float, float]]:
    """Circulation limits of a JSON object mapping edge ids to [tail, head]
    pairs of finite numbers."""
    keys, pairs = _id_keyed(block, "circulation")
    if not all(type(pair) is list and len(pair) == 2 for pair in pairs):
        raise ParseError("circulation must map edge ids to [tail, head] pairs")
    limits = _finite_column([x for pair in pairs for x in pair], "circulation limits")
    return dict(zip(keys, map(tuple, limits.reshape(-1, 2).tolist())))


def xi_from_dict(block: Any):
    """Cycle data of an xi block: ``basis``, lists of signed JSON integer edge
    ids, and ``coords``, one finite number per cycle."""
    from .circulation import XiClass

    basis = _id_lists(block.get("basis") if isinstance(block, dict) else None, "xi basis cycles")
    coords = _finite_column(block.get("coords"), "xi coords")
    if len(basis) != len(coords):
        raise ParseError("xi block needs one coordinate per basis cycle")
    return XiClass(basis, coords)


def augmented_from_dict(doc: dict[str, Any]):
    from .circulation import AugmentedCirculationGraph, CirculationFunction

    g = graph_from_dict(doc)
    limits = limits_from_dict(doc.get("circulation", {}))
    xi = xi_from_dict(doc.get("xi", {"basis": [], "coords": []}))
    if sorted(limits) != sorted(e.id for e in g.solid_edges()):
        raise ParseError("circulation block must cover exactly the solid edges")
    dashed_ids = {e.id for e in g.dashed_edges()}
    for cycle in xi.basis:
        if not cycle or any(abs(x) not in dashed_ids for x in cycle):
            raise ParseError("xi basis cycles must consist of dashed edge ids")
    return AugmentedCirculationGraph(g, CirculationFunction(limits), xi)


def _edge_keys(surface: PLSurface) -> tuple[list[str], np.ndarray]:
    """The one-form key 'u-v' of each mesh edge, vertex ids u < v, and
    whether it runs against the edge's direction in ``edge_rows``."""
    ids = np.asarray(surface.vertex_ids)[surface.edge_rows[:, :2]]
    return [f"{u}-{v}" for u, v in np.sort(ids, axis=1).tolist()], ids[:, 0] > ids[:, 1]


def oneform_to_dict(form) -> dict[str, Any]:
    """Keys 'u-v' name each mesh edge by its vertex ids, u < v; the value is
    the integral in the u-to-v direction."""
    keys, flipped = _edge_keys(form.surface)
    values = np.where(flipped, -form.values, form.values)
    return {"edges": dict(zip(keys, values.tolist())), "orientation": "tail<head by id"}


def oneform_from_dict(doc: Any, surface: PLSurface):
    """One-form of the JSON written by ``oneform_to_dict``.

    Each key must be 'u-v' with canonical decimal vertex ids u < v (either
    may be negative) naming a mesh edge, so no edge has two keys; each value
    is a finite JSON number.  Edges without a key read as 0.0.
    """
    from .circulation import DiscreteOneForm

    edges = doc.get("edges") if isinstance(doc, dict) else None
    if not isinstance(edges, dict):
        raise ParseError("one-form JSON must map 'edges' to an object")
    x = _finite_column(list(edges.values()), "one-form values")
    keys, flipped = _edge_keys(surface)
    number_of = dict(zip(keys, range(len(keys))))
    number = np.array([number_of.get(key, -1) for key in edges], dtype=np.int64)
    if (number < 0).any():
        key = list(edges)[int(np.argmax(number < 0))]
        match = EDGE_KEY.fullmatch(key) if type(key) is str else None
        if not match or not int(match[1]) < int(match[2]):
            raise ParseError(f"one-form key {key!r} must be 'u-v' with vertex ids u < v")
        try:
            surface.index_of(int(match[1])), surface.index_of(int(match[2]))
        except KeyError as exc:
            raise ParseError(f"one-form key {key!r} names unknown vertex {exc}") from exc
        raise ParseError(f"one-form key {key!r} is not a mesh edge")
    values = np.zeros(len(surface.edge_rows))
    values[number] = np.where(flipped[number], -x, x)
    return DiscreteOneForm(surface, values)


def to_dot(g: MeasuredReebGraph) -> str:
    """DOT rendering with solid/dashed styling and bottom-up field ranks."""
    lines = ["digraph reeb {", "  rankdir=BT;", "  node [shape=circle, fontsize=10];"]
    for v in sorted(g.vertices, key=lambda v: v.f):
        mark = "" if v.orientation == "as-in-table" else "*"
        lines.append(f'  v{v.id} [label="{v.id}:{v.vtype}{mark}\\nf={v.f:g}"];')
    for e in g.edges:
        style = "solid" if e.style == "solid" else "dashed"
        lines.append(
            f'  v{e.tail} -> v{e.head} [style={style}, label="e{e.id}\\n{e.mass:.4g}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
