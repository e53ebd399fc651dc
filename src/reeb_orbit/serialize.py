"""JSON schemas for meshes, graphs, augmented graphs, one-forms, and DOT export."""

from __future__ import annotations

import json
import re
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii
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
    # every edge's samples as one column; read edge by edge only to name a bad one
    flat = json_column(list(chain.from_iterable(samples)), JSON_NUMBER)
    stops = list(accumulate(map(len, samples), initial=0))
    edges = []
    ends = zip(tails.tolist(), heads.tolist(), stops, stops[1:])
    for eid, (tail, head, a, b), style, cum in zip(eids.tolist(), ends, styles, samples):
        if flat is None and json_column(cum, JSON_NUMBER) is None:
            raise ParseError(f"edge {eid}: cumulative must be a list of JSON numbers")
        if tail not in vf or head not in vf:
            raise ParseError(f"edge {eid} references unknown vertex")
        # without the column some edge fails the check above, so `cum` is never kept
        profile = MeasureProfile(vf[tail], vf[head], cum if flat is None else flat[a:b])
        edges.append(ReebEdge(eid, tail, head, style, profile))
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
    ids = np.asarray(surface.vertex_ids)
    u, v = ids[surface.edge_rows[:, 0]], ids[surface.edge_rows[:, 1]]
    keys = zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist())
    return [f"{a}-{b}" for a, b in keys], u > v


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


# how json.dumps writes each JSON leaf type; subclasses are left to json.dumps
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if x - x == 0 else json.dumps(x),
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _values(values: Any, inner: str) -> Any:
    """The text of each of ``values`` (at least one), lines starting ``inner``.
    Leaves of one type are one C-level map (``float.__repr__`` when the floats'
    sum, hence each float, is finite); a table, arrays of one length or objects
    of one key set with no more fields than rows, fills a template by columns."""
    kinds, first, deeper = set(map(type, values)), values[0], inner + "  "
    if len(kinds) == 1 and type(first) in _LEAVES:
        if type(first) is float and (total := sum(values)) - total == 0:
            return map(float.__repr__, values)
        return map(_LEAVES[type(first)], values)
    if kinds <= {list, tuple} and 0 < len(first) <= len(values) and set(map(len, values)) == {len(first)}:
        columns = list(zip(*values))
        template = "[" + deeper + ("," + deeper).join(["{}"] * len(first)) + inner + "]"
    elif (kinds == {dict} and 0 < len(first) <= len(values) and set(map(type, first)) == {str}
          and all(map(first.keys().__eq__, map(dict.keys, values)))):
        keys = sorted(first)
        columns = [[v[k] for v in values] for k in keys]
        fields = [k.replace("{", "{{").replace("}", "}}") + ": {}" for k in map(encode_basestring_ascii, keys)]
        template = "{{" + deeper + ("," + deeper).join(fields) + inner + "}}"
    else:
        return [_encode(v, inner) for v in values]
    return map(template.format, *[_values(c, deeper) for c in columns])


def _encode(o: Any, indent: str) -> str:
    """``o`` as json.dumps(o, indent=2, sort_keys=True) writes it, with
    ``indent``, a line break and spaces, starting each line after its first."""
    if type(o) in _LEAVES:
        return _LEAVES[type(o)](o)
    inner = indent + "  "
    if type(o) is list or type(o) is tuple:
        return "[" + inner + ("," + inner).join(_values(o, inner)) + indent + "]" if o else "[]"
    if type(o) is dict and set(map(type, o)) <= {str}:
        if not o:
            return "{}"
        keys = sorted(o)
        items = map(": ".join, zip(map(encode_basestring_ascii, keys), _values([o[k] for k in keys], inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    # other keys, subclasses and non-JSON values, as json.dumps writes or refuses
    # them; JSON text holds no raw line break, so the replace only indents
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", indent)


def dumps(doc: dict[str, Any]) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    without the pure-Python chunk stream that ``json`` uses when it indents."""
    return _encode(doc, "\n") + "\n"
