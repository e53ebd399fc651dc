"""JSON schemas for meshes, graphs, augmented graphs, one-forms, and DOT export."""

from __future__ import annotations

import json
import re
from typing import Any

import numpy as np

from .errors import DataError, ParseError
from .reebgraph import MeasuredReebGraph, MeasureProfile, ReebEdge, ReebVertex
from .surface import JSON_INT, JSON_NUMBER, PLSurface, decode_json, json_column

# ids in JSON object keys; \d is ASCII only, as int() would take other digits
ID_KEY = re.compile(r"-?\d+", re.ASCII)
# canonical decimal ids, as str(int) writes them
EDGE_KEY = re.compile(r"(0|-?[1-9]\d*)-(0|-?[1-9]\d*)", re.ASCII)


def _finite_column(values: Any, what: str) -> np.ndarray:
    """``values`` as a float array, or a ParseError naming ``what`` unless it
    is a list of finite JSON numbers."""
    column = json_column(values, JSON_NUMBER, float) if type(values) is list else None
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
                "cumulative": [float(c) for c in e.profile.cumulative],
            }
            for e in g.edges
        ],
        "cyclic_orders": {str(v): list(order) for v, order in sorted(g.cyclic_orders.items())},
    }


def graph_from_dict(doc: dict[str, Any]) -> MeasuredReebGraph:
    try:
        vertices = [
            ReebVertex(int(v["id"]), float(v["f"]), str(v["type"]), str(v["orientation"]))
            for v in doc["vertices"]
        ]
        vf = {v.id: v.f for v in vertices}
        edges = []
        for e in doc["edges"]:
            samples = e["cumulative"]
            cum = json_column(samples, JSON_NUMBER, float) if type(samples) is list else None
            if cum is None:
                raise ValueError(f"edge {e['id']!r}: cumulative must be a list of numbers")
            profile = MeasureProfile(vf[int(e["tail"])], vf[int(e["head"])], cum)
            edge = ReebEdge(int(e["id"]), int(e["tail"]), int(e["head"]), str(e["style"]), profile)
            # "not <=" rejects a NaN on either side too; an empty profile has
            # no mass to compare, and validate() rejects it
            if "mass" in e and cum.size and not abs(float(e["mass"]) - edge.mass) <= 1e-9 * abs(edge.mass):
                raise DataError(
                    f"edge {edge.id}: stated mass {e['mass']!r} differs from its profile's "
                    f"{edge.mass!r}"
                )
            edges.append(edge)
        orders = doc.get("cyclic_orders", {})
        if not isinstance(orders, dict):
            raise ParseError("cyclic_orders must map vertex ids to edge id lists")
        cyclic = {int(v): tuple(int(x) for x in order) for v, order in orders.items()}
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid graph JSON: {exc}") from exc
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
    if not isinstance(block, dict) or not all(
        type(pair) is list and len(pair) == 2 for pair in block.values()
    ):
        raise ParseError("circulation must map edge ids to [tail, head] pairs")
    bad = [k for k in block if type(k) is not str or not ID_KEY.fullmatch(k)]
    if bad:
        raise ParseError(f"circulation key {bad[0]!r} is not an edge id")
    pairs = _finite_column([x for pair in block.values() for x in pair], "circulation limits")
    return {int(k): (t, h) for k, (t, h) in zip(block, pairs.reshape(-1, 2).tolist())}


def xi_from_dict(block: Any):
    """Cycle data of an xi block: ``basis``, lists of signed JSON integer edge
    ids, and ``coords``, one finite number per cycle."""
    from .circulation import XiClass

    basis = block.get("basis") if isinstance(block, dict) else None
    if type(basis) is not list or not all(type(cycle) is list for cycle in basis):
        raise ParseError("xi basis must be a list of edge id lists")
    if json_column([x for cycle in basis for x in cycle], JSON_INT, np.int64) is None:
        raise ParseError("xi basis cycles must hold JSON integer edge ids")
    coords = _finite_column(block.get("coords"), "xi coords")
    if len(basis) != len(coords):
        raise ParseError("xi block needs one coordinate per basis cycle")
    return XiClass([tuple(cycle) for cycle in basis], coords)


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
