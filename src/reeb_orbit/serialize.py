"""JSON schemas for meshes, graphs, augmented graphs, one-forms, and DOT export."""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import DataError, ParseError
from .reebgraph import MeasuredReebGraph, MeasureProfile, ReebEdge, ReebVertex
from .surface import JSON_NUMBER, PLSurface, decode_json, edge_key, json_column


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


def augmented_from_dict(doc: dict[str, Any]):
    from .circulation import AugmentedCirculationGraph, CirculationFunction, XiClass

    g = graph_from_dict(doc)
    try:
        limits = {
            int(eid): (float(pair[0]), float(pair[1]))
            for eid, pair in doc.get("circulation", {}).items()
        }
        xi_doc = doc.get("xi", {"basis": [], "coords": []})
        xi = XiClass(
            [tuple(int(x) for x in cycle) for cycle in xi_doc["basis"]],
            np.asarray([float(c) for c in xi_doc["coords"]]),
        )
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid augmented graph JSON: {exc}") from exc
    if sorted(limits) != sorted(e.id for e in g.solid_edges()):
        raise ParseError("circulation block must cover exactly the solid edges")
    if len(xi.basis) != len(xi.coords):
        raise ParseError("xi block needs one coordinate per basis cycle")
    dashed_ids = {e.id for e in g.dashed_edges()}
    for cycle in xi.basis:
        if not cycle or any(abs(x) not in dashed_ids for x in cycle):
            raise ParseError("xi basis cycles must consist of dashed edge ids")
    return AugmentedCirculationGraph(g, CirculationFunction(limits), xi)


def oneform_to_dict(form) -> dict[str, Any]:
    surface = form.surface
    edges = {}
    for (iu, iv), x in sorted(form.values.items()):
        u, v = surface.id_of(iu), surface.id_of(iv)
        if u < v:
            edges[f"{u}-{v}"] = float(x)
        else:
            edges[f"{v}-{u}"] = -float(x)
    return {"edges": edges, "orientation": "tail<head by id"}


def oneform_from_dict(doc: dict[str, Any], surface: PLSurface):
    """One-form JSON keys are 'u-v' with u < v as external ids; the value is
    the integral in the u-to-v direction.  Internally values are stored per
    sorted internal index pair, oriented from the lower index."""
    from .circulation import DiscreteOneForm

    values = {}
    try:
        for key, x in doc["edges"].items():
            u, v = (int(p) for p in key.split("-"))
            if not u < v:
                raise ParseError(f"one-form key {key!r} must have u < v")
            iu, iv = surface.index_of(u), surface.index_of(v)
            k = edge_key(iu, iv)
            values[k] = float(x) if k == (iu, iv) else -float(x)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid one-form JSON: {exc}") from exc
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
