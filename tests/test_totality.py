"""Totality of the input loaders and the CLI on arbitrary JSON-shaped input.

Every loader either returns or raises a ``ReebOrbitError`` subclass, and
``cli.main`` returns 0, 1 or 2, whatever the document holds: the documents are
drawn freely from JSON values over the format's own keys, and as valid
documents with one value replaced.
"""

import contextlib
import copy
import functools
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reeb_orbit
from reeb_orbit import ParseError, ReebOrbitError, cli, surface
from reeb_orbit.circulation import DiscreteOneForm
from reeb_orbit.models import square_mesh
from reeb_orbit.serialize import (
    augmented_from_dict,
    dumps,
    graph_from_dict,
    load_graph,
    oneform_from_dict,
    oneform_to_dict,
)
from reeb_orbit.surface import PLSurface, decode_json, load_mesh

DATA = Path(__file__).resolve().parents[1] / "src" / "reeb_orbit" / "data"
KEYS = (
    "vertices", "triangles", "id", "f", "xy", "v", "area", "edges", "tail", "head",
    "style", "mass", "cumulative", "type", "orientation", "cyclic_orders",
    "circulation", "xi", "basis", "coords", "1", "2", "1-2",
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.integers()
    | st.floats()
    | st.sampled_from(["", "1", "0.5", "solid", "dashed", "I", "as-in-table"])
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=25,
)
DOCS = st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=6) | VALUES
VALID = {
    "mesh": json.loads((DATA / "disk_linear.json").read_text()),
    "graph": json.loads((DATA / "fig2.json").read_text()),
}
SURFACE = square_mesh(2)
FORM = {"edges": {f"{u}-{v}": 0.5 for u, v in (
    sorted((SURFACE.id_of(a), SURFACE.id_of(b))) for a, b in SURFACE.edge_rows[:, :2].tolist()
)}}
VALID["form"] = FORM
VALID["targets"] = {
    "circulation": {str(e["id"]): [0.0, 0.5] for e in VALID["graph"]["edges"]},
    "xi": {"basis": [[2, -3]], "coords": [0.5]},
}
VALID["circulation"] = {"circulation": VALID["targets"]["circulation"]}


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, prefix + (i,))


@st.composite
def mutated(draw, name):
    """A valid document of the named kind with one value replaced."""
    doc = copy.deepcopy(VALID[name])
    paths = list(_paths(doc))
    path = paths[draw(st.integers(0, len(paths) - 1))]
    value = draw(VALUES)
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def _total(fn, doc) -> None:
    try:
        fn(doc)
    except ReebOrbitError:
        pass


PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))


@PROPERTY
@given(st.one_of(DOCS, mutated("mesh")))
def test_load_mesh_is_total(doc):
    _total(load_mesh, doc)
    _total(load_mesh, json.dumps(doc))


@PROPERTY
@given(st.one_of(DOCS, mutated("graph")))
def test_load_graph_is_total(doc):
    _total(graph_from_dict, doc)
    _total(load_graph, json.dumps(doc))


@PROPERTY
@given(st.one_of(DOCS, mutated("graph")))
def test_augmented_from_dict_is_total(doc):
    if isinstance(doc, dict):
        doc = dict(VALID["graph"], **{k: v for k, v in doc.items() if k in ("circulation", "xi")})
    _total(augmented_from_dict, doc)


@PROPERTY
@given(st.one_of(DOCS, mutated("form")))
def test_oneform_from_dict_is_total(doc):
    _total(lambda d: oneform_from_dict(d, SURFACE), doc)


@pytest.mark.parametrize(
    "edges",
    [{"1-2": "0.5"}, {"1-2": True}, {"1-2": " 0.25"}, {"1-2": float("nan")}, {"+1- 2": 0.5},
     {"1-3": 0.5}],
    ids=["str", "bool", "padded-str", "nan", "padded-key", "non-edge"],
)
def test_oneform_reader_rejects_values_and_keys_off_the_grammar(edges):
    # float() and int() took each of these; "1-3", no edge of the mesh, was
    # also written back out
    with pytest.raises(ParseError):
        oneform_from_dict({"edges": edges}, SURFACE)


@pytest.mark.parametrize(
    "edges", [{"1-2": 0.5, "01-2": 0.25}, {"01-2": 0.5}, {"-0-1": 0.5}],
    ids=["duplicate", "leading-zero", "negative-zero"],
)
def test_oneform_keys_must_be_canonical_ids(edges):
    # "01-2" named edge 1-2 a second time, and its value replaced the first
    # one silently
    with pytest.raises(ParseError, match="must be 'u-v'"):
        oneform_from_dict({"edges": edges}, SURFACE)


def test_oneform_keys_with_negative_ids_round_trip():
    shifted = PLSurface([i - 5 for i in SURFACE.vertex_ids], SURFACE.f, SURFACE.triangles, SURFACE.areas)
    form = DiscreteOneForm(shifted, np.arange(len(shifted.edge_rows)) - 3.0)
    doc = oneform_to_dict(form)
    assert doc["edges"]["-4--3"] == -3.0
    assert list(oneform_from_dict(doc, shifted).values) == list(form.values)
    # a missing edge reads as 0
    del doc["edges"]["-4--3"]
    assert oneform_from_dict(doc, shifted).values[0] == 0.0


def _with(doc, key, index, **fields):
    doc = copy.deepcopy(doc)
    doc[key][index].update(fields)
    return doc


GRAPH = VALID["graph"]


@pytest.mark.parametrize(
    "load, doc",
    [
        # each raised TypeError, AttributeError, IndexError or OverflowError
        (load_mesh, None),
        (load_mesh, [1]),
        (load_mesh, {"vertices": [{"id": 1, "f": 10**400}], "triangles": []}),
        (graph_from_dict, _with(GRAPH, "vertices", 0, id=float("inf"))),
        (graph_from_dict, _with(GRAPH, "vertices", 0, f=10**400)),
        (graph_from_dict, _with(GRAPH, "edges", 0, cumulative=[0, 10**400])),
        (augmented_from_dict, dict(GRAPH, circulation=None)),
        (augmented_from_dict, dict(GRAPH, circulation={"1": [0.5]})),
        (lambda d: oneform_from_dict(d, SURFACE), {"edges": None}),
        (lambda d: oneform_from_dict(d, SURFACE), {"edges": {"1-2": 10**400}}),
    ],
)
def test_loader_faults_are_parse_errors(load, doc):
    with pytest.raises(ParseError):
        load(doc)


COMMANDS = (
    ("validate", "mesh"),
    ("extract", "mesh"),
    ("invariants", "graph"),
    ("dot", "graph"),
    ("circulation solve", "graph"),
    ("compare", "graph"),
    ("circulation check", "targets"),
)


@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.sampled_from(COMMANDS), st.data())
def test_cli_exit_codes_are_total(tmp_path_factory, command, data):
    argv, kind = command
    doc = data.draw(st.one_of(DOCS, mutated(kind)))
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(json.dumps(doc))
    argv = argv.split() + [str(path)] * (2 if argv == "compare" else 1)
    if kind == "targets":
        argv.insert(-1, str(DATA / "fig2.json"))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2)


# values outside a number leaf's JSON type (finite number), an id leaf's
# (integer) or a string leaf's; the valid documents hold numbers as floats
# and ids as ints.  A graph's non-finite numbers are a DataError
# (tests/test_cli.py), so graph number leaves draw only the other values.
OFF_TYPE = (
    st.none()
    | st.booleans()
    | st.lists(SCALARS, max_size=2)
    | st.dictionaries(st.text(max_size=2), SCALARS, max_size=2)
)
OFF_GRAPH_NUMBER = OFF_TYPE | st.text(max_size=3)
OFF_NUMBER = OFF_GRAPH_NUMBER | st.sampled_from([float("nan"), float("inf"), float("-inf")])
OFF_ID = OFF_NUMBER | st.floats()
OFF_STRING = OFF_TYPE | st.integers() | st.floats()
# keys of the objects whose keys name ids, off the canonical decimal grammar
ID_KEYED = ("circulation", "cyclic_orders")
OFF_ID_KEY = st.text(max_size=3).filter(lambda k: not re.fullmatch("0|-?[1-9][0-9]*", k))
VALID["fig4a"] = json.loads((DATA / "fig4a.json").read_text())
TYPED_COMMANDS = (
    ("xi", "form"),
    ("synthesize", "targets"),
    ("circulation check", "circulation"),
    ("invariants", "graph"),
    ("circulation solve", "graph"),
    ("invariants", "fig4a"),
    ("circulation solve", "fig4a"),
)


def _typed_leaves(doc):
    """(container, key or index, kind) of each id, number and string leaf,
    and of each key of an id-keyed object (kind "key")."""
    leaves = []
    for path in _paths(doc):
        if not path:
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        value = parent[path[-1]]
        kind = {int: "id", float: "number", str: "string"}.get(type(value))
        if kind:
            leaves.append((parent, path[-1], kind))
        if path[-1] in ID_KEYED and isinstance(value, dict):
            leaves += [(value, key, "key") for key in value]
    return leaves


@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.sampled_from(TYPED_COMMANDS), st.data())
def test_numbers_and_ids_off_their_json_type_exit_2(tmp_path_factory, command, data):
    argv, kind = command
    doc = copy.deepcopy(VALID[kind])
    parent, step, leaf = data.draw(st.sampled_from(_typed_leaves(doc)))
    if leaf == "key":
        parent[data.draw(OFF_ID_KEY)] = parent.pop(step)
    else:
        number = OFF_GRAPH_NUMBER if kind in ("graph", "fig4a") else OFF_NUMBER
        parent[step] = data.draw({"id": OFF_ID, "number": number, "string": OFF_STRING}[leaf])
    folder = tmp_path_factory.mktemp("doc")
    path = folder / "doc.json"
    path.write_text(json.dumps(doc))
    mesh = folder / "mesh.json"
    mesh.write_text(dumps(SURFACE.to_dict()))
    graph = str(DATA / "fig2.json")
    argv = argv.split() + {
        "form": [str(mesh), str(path), graph],
        "targets": [str(mesh), graph, str(path)],
        "circulation": [graph, str(path)],
    }.get(kind, [str(path)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == 2
    assert json.loads(out.getvalue())["error"] == "ParseError"


# -- the decoder: orjson first, json for what orjson refuses -----------------------

# a number literal as JSON text, up to 40 digits with an exponent: some are
# integers beyond 64 bits, some beyond double range (decoded by json)
NUMBER_TEXT = st.from_regex(r"-?(0|[1-9][0-9]{0,39})(\.[0-9]{1,20})?([eE][-+]?[0-9]{1,3})?", fullmatch=True)


class Literal(str):
    """A number leaf written into the JSON text as it stands."""


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**64 - 1)
    | st.integers(min_value=2**64, max_value=2**80)
    | st.integers(min_value=-(2**80), max_value=-(2**63) - 1)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, max_value=1e-300, min_value=-1e-300)
    | st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0])
    | NUMBER_TEXT.map(Literal)
    | st.text(max_size=6)
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


def _write(doc, ascii_only: bool) -> str:
    if isinstance(doc, Literal):
        return str(doc)
    if isinstance(doc, list):
        return "[" + ", ".join(_write(v, ascii_only) for v in doc) + "]"
    if isinstance(doc, dict):
        return "{" + ", ".join(
            json.dumps(k, ensure_ascii=ascii_only) + ": " + _write(v, ascii_only) for k, v in doc.items()
        ) + "}"
    return json.dumps(doc, ensure_ascii=ascii_only)


def _reference(text: str):
    """json.loads, with orjson's one difference: when no number is beyond double
    range, an integer outside [-2**63, 2**64) reads as its float."""
    numbers = []
    json.loads(text, parse_int=numbers.append, parse_float=numbers.append)
    if any(math.isinf(float(n)) for n in numbers):
        return json.loads(text)
    return json.loads(text, parse_int=lambda n: int(n) if -(2**63) <= int(n) < 2**64 else float(n))


def _same(a, b) -> bool:
    """Equal values of equal types, floats by their bits and objects in key order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(JSON_DOCS, st.booleans())
def test_decoder_reads_documents_as_json_does(doc, ascii_only):
    text = _write(doc, ascii_only)
    want = _reference(text)
    assert _same(decode_json(text.encode("utf-8"), "mesh"), want)
    assert _same(decode_json(text, "mesh"), want)


@pytest.mark.parametrize(
    "source",
    [
        b"[NaN, Infinity, -Infinity]",
        b'{"f": -Infinity}',
        b"[1e400, -1e400, 1]",
        b'\xef\xbb\xbf{"id": 1, "f": 0.5}',
        '{"id": 1, "f": [0.5, "é"]}'.encode("utf-16-le"),
        '{"id": 1, "f": [0.5, "é"]}'.encode("utf-16"),
        '{"id": 1, "f": [0.5, "é"]}'.encode("utf-32"),
        b'["\\ud800", 1]',
        '["\\ud800", 1]',
        '["\ud800", 1]',
    ],
    ids=["nan-inf", "minus-inf", "beyond-double", "bom", "utf16le", "utf16", "utf32",
         "escaped-surrogate", "escaped-surrogate-str", "raw-surrogate-str"],
)
def test_decoder_falls_back_to_json(source):
    assert repr(decode_json(source, "mesh")) == repr(json.loads(source))


@pytest.mark.parametrize(
    "source",
    [b"", b"   ", b"[1,]", b'{"a": }', b"{'a': 1}", b"nan", b"[1] [2]", b"\xff\xfe\xfd", "[1,", b"\xef\xbb\xbf"],
)
def test_decoder_words_errors_as_json_does(source):
    with pytest.raises(ValueError) as want:
        json.loads(source)
    with pytest.raises(ParseError) as got:
        decode_json(source, "mesh")
    assert str(got.value) == f"invalid mesh JSON: {want.value}"


@pytest.mark.parametrize("kind", ["mesh", "graph"])
def test_an_id_beyond_64_bits_exits_2(tmp_path, kind):
    # orjson reads 2**64 as a float and json as an int; the id field refuses both
    doc = copy.deepcopy(VALID[kind])
    doc["vertices"][0]["id"] = 2**64
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["validate" if kind == "mesh" else "invariants", str(path)])
    assert code == 2
    assert json.loads(out.getvalue())["error"] == "ParseError"


def test_deep_nesting_exits_2(tmp_path):
    # json raised RecursionError, a traceback, and orjson 3.8 overflows the C
    # stack on such a document, so the CLI runs in a child process
    path = tmp_path / "deep.json"
    path.write_bytes(b"[" * 200_000 + b"]" * 200_000)
    src = str(Path(reeb_orbit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from reeb_orbit import cli; sys.exit(cli.main(sys.argv[1:]))",
         "validate", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2, done.stderr[-2000:]
    assert json.loads(done.stdout)["error"] == "ParseError"
    # each level takes a bracket or brace, so few of them keep orjson shallow
    limit = surface.ORJSON_MAX_OPENERS
    for kind in (str, bytes, bytearray):
        few = ("{" * (limit // 2) + "[" * (limit // 2 - 1) + " " * limit).encode()
        assert surface._few_openers(few.decode() if kind is str else kind(few))
        many = few + b"["
        assert not surface._few_openers(many.decode() if kind is str else kind(many))
    with pytest.raises(ParseError, match="maximum recursion depth"):
        decode_json("[" * 200_000 + "]" * 200_000, "mesh")


# -- the graph commands at any scale -------------------------------------------------

GRAPH_FIXTURES = ("closed_torus.json", "fig2.json", "fig4a.json", "fig4b.json")


def _scaled(doc, k_f, k_mass):
    doc = copy.deepcopy(doc)
    for v in doc["vertices"]:
        v["f"] *= 10.0**k_f
    for e in doc["edges"]:
        e["cumulative"] = [c * 10.0**k_mass for c in e["cumulative"]]
        e["mass"] = e["cumulative"][-1]
    return doc


@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.sampled_from(GRAPH_FIXTURES), st.integers(-300, 300), st.integers(-300, 300))
def test_scaled_graphs_print_json_or_exit_2(tmp_path_factory, name, k_f, k_mass):
    # field values and profile samples scaled by powers of ten across the
    # double range: each graph command prints JSON that orjson reads, which
    # excludes NaN and Infinity, and exits 0, or exits 2 with a named error
    work = tmp_path_factory.mktemp("scaled")
    graph = work / "graph.json"
    graph.write_text(json.dumps(_scaled(json.loads((DATA / name).read_text()), k_f, k_mass)))

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv])
        assert code in (0, 2), (argv, out.getvalue()[:500])
        return code, orjson.loads(out.getvalue())

    for argv in (["invariants"], ["compare", str(graph)], ["realize", "--resolution", "4"]):
        run(argv[0], str(graph), *argv[1:])
    code, solved = run("circulation", "solve", str(graph))
    if code == 0:
        limits = work / "limits.json"
        limits.write_text(json.dumps({"circulation": solved["particular"]}))
        run("circulation", "check", str(graph), str(limits))


# -- the mesh commands at any scale --------------------------------------------------

MESH_FIXTURES = ("disk_linear.json", "fig2.json", "closed_torus.json")


@functools.cache
def _mesh_doc(name):
    """The disk mesh as stored, or the realized mesh of a graph fixture."""
    doc = json.loads((DATA / name).read_text())
    if name == "disk_linear.json":
        return doc
    return reeb_orbit.realize(graph_from_dict(doc), resolution=4).surface.to_dict()


@settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.sampled_from(MESH_FIXTURES), st.integers(-300, 300), st.integers(-300, 300))
def test_scaled_meshes_print_json_or_exit_2(tmp_path_factory, name, k_f, k_area):
    # field values and triangle areas scaled by powers of ten across the
    # double range: validate and extract print JSON that orjson reads and
    # exit 0 or 1, or exit 2 with a named error
    doc = copy.deepcopy(_mesh_doc(name))
    for v in doc["vertices"]:
        v["f"] *= 10.0**k_f
    for t in doc["triangles"]:
        t["area"] *= 10.0**k_area
    mesh = tmp_path_factory.mktemp("scaled") / "mesh.json"
    mesh.write_text(json.dumps(doc))
    for argv in (["validate", str(mesh)], ["extract", str(mesh), "--samples", "8"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        printed = orjson.loads(out.getvalue())
        assert code in (0, 1) or (code == 2 and printed["error"]), (argv, out.getvalue()[:500])
