import copy
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from reeb_orbit import (
    DataError,
    ParseError,
    TopologyError,
    UnsupportedMap,
    load_mesh,
    remap,
    topology_summary,
    validate_simple_morse,
)
from reeb_orbit import models
from reeb_orbit.fuzz import random_measured_graph
from reeb_orbit.models import square_mesh
from reeb_orbit.realization import realize
from reeb_orbit.surface import (
    CriticalPoint,
    PLSurface,
    ValidationReport,
    Violation,
)


def mesh_doc(vertices, triangles):
    return {
        "vertices": [{"id": i, "f": f} for i, f in vertices],
        "triangles": [{"v": list(v), "area": a} for v, a in triangles],
    }


def topology_error(doc) -> str:
    with pytest.raises(TopologyError) as info:
        load_mesh(doc)
    return str(info.value)


def test_two_triangle_square_is_a_disk():
    doc = mesh_doc(
        [(1, 0.0), (2, 1.0), (3, 1.5), (4, 0.5)],
        [((1, 2, 3), 0.5), ((1, 3, 4), 0.5)],
    )
    s = load_mesh(json.dumps(doc))
    t = topology_summary(s)
    assert t.euler_characteristic == 1
    assert t.boundary_component_count == 1
    assert t.genus == 0
    assert t.total_area == 1.0


def test_nonmanifold_edge_rejected():
    doc = mesh_doc(
        [(1, 0.0), (2, 1.0), (3, 2.0), (4, 3.0), (5, 4.0)],
        [((1, 2, 3), 1.0), ((2, 1, 4), 1.0), ((1, 2, 5), 1.0)],
    )
    assert topology_error(doc) == "edge (1, 2) shared by 3 triangles"


def test_inconsistent_orientation_rejected():
    doc = mesh_doc(
        [(1, 0.0), (2, 1.0), (3, 2.0), (4, 3.0)],
        [((1, 2, 3), 1.0), ((1, 2, 4), 1.0)],
    )
    assert topology_error(doc) == "inconsistent orientation across edge (1, 2)"


def test_errors_name_input_vertex_ids():
    # ids in descending order of position: the edge of positions 0 and 1
    # is the edge of ids 40 and 50
    doc = mesh_doc(
        [(50, 0.0), (40, 1.0), (30, 2.0), (20, 3.0), (10, 4.0)],
        [((50, 40, 30), 1.0), ((40, 50, 20), 1.0), ((50, 40, 10), 1.0)],
    )
    assert topology_error(doc) == "edge (40, 50) shared by 3 triangles"
    doc = mesh_doc([(7, 0.0), (5, 1.0), (3, 2.0)], [((7, 5, 5), 1.0)])
    assert topology_error(doc) == "degenerate triangle [7, 5, 5]"


def test_nonpositive_area_rejected():
    doc = mesh_doc([(1, 0.0), (2, 1.0), (3, 2.0)], [((1, 2, 3), 0.0)])
    with pytest.raises(DataError):
        load_mesh(doc)


def test_disconnected_mesh_rejected():
    doc = mesh_doc(
        [(i, float(i)) for i in range(1, 7)],
        [((1, 2, 3), 1.0), ((4, 5, 6), 1.0)],
    )
    assert topology_error(doc) == "1-skeleton is disconnected"


def test_degenerate_triangle_rejected():
    doc = mesh_doc(
        [(1, 0.0), (2, 1.0), (3, 2.0), (4, 3.0)],
        [((1, 2, 3), 1.0), ((1, 4, 4), 1.0), ((2, 2, 4), 1.0)],
    )
    assert topology_error(doc) == "degenerate triangle [1, 4, 4]"


def test_bowtie_rejected():
    # two triangles sharing only vertex 1
    doc = mesh_doc(
        [(1, 0.0), (2, 1.0), (3, 2.0), (4, 3.0), (5, 4.0)],
        [((1, 2, 3), 1.0), ((1, 4, 5), 1.0)],
    )
    assert topology_error(doc) == "boundary is not a union of simple polygons at vertex 1"


def test_isolated_vertex_rejected():
    assert topology_error(mesh_doc([(1, 0.0)], [])) == "isolated vertex 1"


def pinched_doc():
    """Vertex 1 at f=0 is the centre of two closed 5-triangle fans."""
    upper = [k + 2 for k in range(5)]
    lower = [k + 7 for k in range(5)]
    verts = [(1, 0.0)] + [(v, 1.0 + 0.01 * k) for k, v in enumerate(upper)]
    verts += [(v, -1.0 - 0.01 * k) for k, v in enumerate(lower)]
    tris = [((1, rim[k], rim[(k + 1) % 5]), 1.0) for rim in (upper, lower) for k in range(5)]
    return mesh_doc(verts, tris)


def test_pinched_vertex_rejected():
    assert topology_error(pinched_doc()) == "non-manifold star at vertex 1"


def test_icosahedron_topology():
    # chi = V - E + F = 12 - 30 + 20 on the standard icosahedron
    phi = (1 + math.sqrt(5)) / 2
    pts = []
    for a, b in [(1, phi), (-1, phi), (1, -phi), (-1, -phi)]:
        pts += [(0, a, b), (a, b, 0), (b, 0, a)]
    pts = np.array(pts, dtype=float)
    hull = ConvexHull(pts)
    tris = []
    for simplex in hull.simplices:
        p = pts[simplex]
        n = np.cross(p[1] - p[0], p[2] - p[0])
        if np.dot(n, p.mean(axis=0)) < 0:
            simplex = simplex[[0, 2, 1]]
        tris.append((list(int(x) + 1 for x in simplex), 1.0))
    doc = mesh_doc([(i + 1, float(pts[i, 2] + 0.01 * i)) for i in range(12)], tris)
    t = topology_summary(load_mesh(doc))
    assert t.euler_characteristic == 2
    assert t.boundary_component_count == 0
    assert t.genus == 0


def test_disk_linear_field_validates(disk):
    rep = validate_simple_morse(disk)
    assert rep.is_simple_morse
    kinds = sorted(c.kind for c in rep.critical_points)
    assert kinds == ["boundary-max", "boundary-min"]
    values = {c.kind: c.f_value for c in rep.critical_points}
    assert values["boundary-min"] == pytest.approx(-1.0, abs=1e-2)
    assert values["boundary-max"] == pytest.approx(1.0, abs=1e-2)


def test_validation_is_pure(disk):
    r1 = validate_simple_morse(disk)
    r2 = validate_simple_morse(disk)
    assert r1.to_dict() == r2.to_dict()


def test_monkey_saddle_flagged():
    verts = [(0, 0.0)] + [(k + 1, (1.0 if k % 2 == 0 else -1.0) + 0.01 * k) for k in range(6)]
    tris = [((0, k + 1, (k + 1) % 6 + 1), 1.0) for k in range(6)]
    doc = mesh_doc(verts, tris)
    rep = validate_simple_morse(load_mesh(doc))
    assert not rep.is_simple_morse
    assert any(v.code == "DEGENERATE_CRITICAL" for v in rep.violations)


def test_duplicate_critical_values_flagged(disk):
    f = disk.f.copy()
    interior = [i for i in range(len(f)) if not disk.on_boundary[i]]
    f[interior[0]] = -5.0
    f[interior[-1]] = -5.0
    s = PLSurface(list(disk.vertex_ids), f, disk.triangles.copy(), disk.areas.copy(), disk.xy)
    rep = validate_simple_morse(s)
    assert any(v.code == "DUPLICATE_CRITICAL_VALUE" for v in rep.violations)


def test_chi_plus_boundary_even(disk, annulus, sphere):
    for s in (disk, annulus, sphere):
        t = topology_summary(s)
        assert (t.euler_characteristic + t.boundary_component_count) % 2 == 0


def test_remap_relabel_identity(disk):
    spec = {"kind": "relabel", "mapping": {i: i for i in disk.vertex_ids}}
    s2 = remap(disk, spec)
    assert s2.vertex_ids == disk.vertex_ids
    assert np.array_equal(s2.triangles, disk.triangles)
    assert s2.total_area == disk.total_area


def test_remap_refine_preserves_area(disk):
    s2 = remap(disk, {"kind": "refine"})
    assert len(s2.triangles) == 6 * len(disk.triangles)
    assert s2.total_area == pytest.approx(disk.total_area, rel=1e-12)
    assert validate_simple_morse(s2).is_simple_morse == validate_simple_morse(disk).is_simple_morse


def test_remap_shear_preserves_area_and_field(disk):
    s2 = remap(disk, {"kind": "shear", "factor": 0.3})
    assert s2.total_area == pytest.approx(disk.total_area, rel=1e-12)
    assert np.array_equal(s2.f, disk.f)


def test_remap_unknown_kind(disk):
    with pytest.raises(UnsupportedMap):
        remap(disk, {"kind": "rotate"})


def test_remap_reads_its_spec_by_type():
    # relabel keys are ints or canonical id strings and values ints; a shear
    # factor is a finite int or float; nothing is coerced
    s = square_mesh(2)
    ids = list(s.vertex_ids)
    shifted = {i: i + 100 for i in ids}
    assert remap(s, {"kind": "relabel", "mapping": shifted}).vertex_ids == [i + 100 for i in ids]
    by_string = {str(i): i + 100 for i in ids}
    assert remap(s, {"kind": "relabel", "mapping": by_string}).vertex_ids == [i + 100 for i in ids]
    for factor in (0.5, 1):
        assert np.array_equal(remap(s, {"kind": "shear", "factor": factor}).xy[:, 1],
                              s.xy[:, 1] + float(factor) * s.xy[:, 0])
    bad_mappings = [
        {**shifted, ids[0]: 101.7},
        {**shifted, ids[0]: True},
        {**shifted, ids[0]: "101"},
        {**shifted, "a": 1000},
        {**{k: v for k, v in shifted.items() if k != ids[1]}, f"0{ids[1]}": ids[1] + 100},
        {**{k: v for k, v in shifted.items() if k != ids[1]}, float(ids[1]): ids[1] + 100},
        {**shifted, str(ids[0]): 1000},
        list(shifted.items()),
    ]
    for mapping in bad_mappings:
        with pytest.raises(ParseError):
            remap(s, {"kind": "relabel", "mapping": mapping})
    for factor in ("0.5", True, math.nan, math.inf, 10**400, None):
        with pytest.raises(ParseError):
            remap(s, {"kind": "shear", "factor": factor})
    with pytest.raises(ParseError):
        remap(s, {"kind": "relabel"})
    with pytest.raises(ParseError):
        remap(s, ["relabel"])


def test_square_mesh_valid():
    s = square_mesh(3)
    assert validate_simple_morse(s).is_simple_morse
    t = topology_summary(s)
    assert (t.euler_characteristic, t.boundary_component_count) == (1, 1)


def _set_xy(doc, coords):
    for entry, xy in zip(doc["vertices"], coords):
        entry["xy"] = xy


@pytest.mark.parametrize(
    "edit, message",
    [
        # each of these was coerced (int() or float()) and loaded
        (lambda d: d["triangles"][0].update(v=[1.7, 2, 3]),
         "bad triangle entry {'v': [1.7, 2, 3], 'area': 0.5}"),
        (lambda d: d["triangles"][0].update(v=[True, 2, 3]),
         "bad triangle entry {'v': [True, 2, 3], 'area': 0.5}"),
        (lambda d: d["triangles"][1].update(v=[1, "3", 4]),
         "bad triangle entry {'v': [1, '3', 4], 'area': 0.5}"),
        (lambda d: d["triangles"][1].update(area="0.5"),
         "bad triangle entry {'v': [1, 3, 4], 'area': '0.5'}"),
        (lambda d: d["vertices"][2].update(f=True), "bad vertex entry {'id': 3, 'f': True}"),
        (lambda d: d["vertices"][2].update(f="1.5"), "bad vertex entry {'id': 3, 'f': '1.5'}"),
        # these two became id 1 and failed as "duplicate vertex ids"
        (lambda d: d["vertices"][1].update(id=1.9), "bad vertex entry {'id': 1.9, 'f': 1.0}"),
        (lambda d: d["vertices"][1].update(id=True), "bad vertex entry {'id': True, 'f': 1.0}"),
        (lambda d: _set_xy(d, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [False, 1.0]]),
         "bad vertex entry {'id': 4, 'f': 0.5, 'xy': [False, 1.0]}"),
    ],
    ids=["corner-float", "corner-bool", "corner-str", "area-str", "f-bool", "f-str",
         "id-float", "id-bool", "xy-bool"],
)
def test_mesh_fields_must_be_json_numbers(edit, message):
    doc = mesh_doc(
        [(1, 0.0), (2, 1.0), (3, 1.5), (4, 0.5)],
        [((1, 2, 3), 0.5), ((1, 3, 4), 0.5)],
    )
    edit(doc)
    with pytest.raises(ParseError) as info:
        load_mesh(doc)
    assert str(info.value) == message


def test_first_bad_triangle_entry_is_named():
    # a short corner list before a bad area, and the reverse
    doc = mesh_doc([(1, 0.0), (2, 1.0), (3, 1.5), (4, 0.5)], [((1, 2), 0.5), ((1, 3, 4), -1)])
    doc["triangles"][1]["area"] = None
    with pytest.raises(ParseError, match=r"^triangle must reference 3 vertices, got \{'v': \[1, 2\]"):
        load_mesh(doc)
    doc["triangles"].reverse()
    with pytest.raises(ParseError, match=r"^bad triangle entry \{'v': \[1, 3, 4\], 'area': None\}"):
        load_mesh(doc)


# -- reference loader: the per-entry conversion -----------------------------------


def reference_load_mesh(doc):
    """The per-entry loader that ``load_mesh`` replaced, kept as its oracle on
    valid meshes."""
    ids, fvals, coords = [], [], []
    for entry in doc["vertices"]:
        ids.append(int(entry["id"]))
        fvals.append(float(entry["f"]))
        coords.append(entry.get("xy"))
    index = {vid: i for i, vid in enumerate(ids)}
    assert len(index) == len(ids)
    tris, areas = [], []
    for entry in doc["triangles"]:
        triple = [index[int(v)] for v in entry["v"]]
        assert len(triple) == 3
        tris.append(triple)
        areas.append(float(entry["area"]))
    xy = None
    if all(c is not None for c in coords) and coords:
        xy = np.array(coords, dtype=float)
    return PLSurface(ids, np.array(fvals), np.array(tris, dtype=int).reshape(-1, 3), np.array(areas), xy)


@functools.lru_cache(maxsize=None)
def realized_mesh(seed):
    return realize(random_measured_graph(seed), resolution=4).surface.to_dict()


@settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    st.sampled_from((20000, 20001, 20002, 20003)),
    st.randoms(use_true_random=False),
    st.booleans(),
)
def test_load_mesh_matches_reference_loader(seed, rng, with_xy):
    doc = copy.deepcopy(realized_mesh(seed))
    fresh = rng.sample(range(-(2**40), 2**40), len(doc["vertices"]))
    relabel = {v["id"]: new for v, new in zip(doc["vertices"], fresh)}
    for v in doc["vertices"]:
        v["id"] = relabel[v["id"]]
        if not with_xy:
            del v["xy"]
    for t in doc["triangles"]:
        t["v"] = [relabel[x] for x in t["v"]]
    rng.shuffle(doc["vertices"])
    rng.shuffle(doc["triangles"])
    got, want = load_mesh(json.dumps(doc)), reference_load_mesh(doc)
    assert got.vertex_ids == want.vertex_ids
    for name in ("f", "triangles", "areas"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.xy is None) == (want.xy is None) == (not with_xy)
    assert got.xy is None or np.array_equal(got.xy, want.xy)


# -- reference validation: the per-vertex link walk ------------------------------


def reference_above(s, u, v):
    if s.f[u] != s.f[v]:
        return bool(s.f[u] > s.f[v])
    return u > v


def reference_link_path(s, star, v):
    """Link of v as an ordered vertex sequence and whether it is closed."""
    arcs = {}
    for t in star:
        a, b, c = (int(x) for x in s.triangles[t])
        if a == v:
            st, e = b, c
        elif b == v:
            st, e = c, a
        else:
            st, e = a, b
        assert st not in arcs
        arcs[st] = e
    sources = set(arcs) - set(arcs.values())
    if not sources:
        start = min(arcs)
        seq = [start]
        cur = arcs[start]
        while cur != start:
            seq.append(cur)
            cur = arcs[cur]
        return seq, True
    assert len(sources) == 1
    start = sources.pop()
    seq = [start]
    cur = start
    while cur in arcs:
        cur = arcs[cur]
        seq.append(cur)
    return seq, False


def reference_sign_changes(signs, closed):
    n = len(signs)
    if n < 2:
        return 0
    pairs = range(n) if closed else range(n - 1)
    return sum(1 for i in pairs if signs[i] != signs[(i + 1) % n])


def reference_validate(s):
    criticals, violations = [], []
    stars = [[] for _ in s.vertex_ids]
    for t, tri in enumerate(s.triangles):
        a, b, c = (int(x) for x in tri)
        for v in (a, b, c):
            stars[v].append(t)
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
        seq, closed = reference_link_path(s, stars[v], v)
        signs = [1 if reference_above(s, u, v) else -1 for u in seq]
        sc = reference_sign_changes(signs, closed)
        vid = s.id_of(v)
        if closed:
            if sc == 0:
                kind = "min" if signs[0] > 0 else "max"
                criticals.append(CriticalPoint(vid, kind, float(s.f[v])))
            elif sc == 4:
                criticals.append(CriticalPoint(vid, "saddle", float(s.f[v])))
            elif sc != 2:
                violations.append(
                    Violation("DEGENERATE_CRITICAL", (vid,), f"interior vertex {vid} has {sc} link sign changes")
                )
        elif sc in (0, 2):
            kind = "boundary-min" if signs[0] > 0 else "boundary-max"
            criticals.append(CriticalPoint(vid, kind, float(s.f[v])))
        elif sc % 2 == 1 and sc != 1:
            violations.append(
                Violation(
                    "BOUNDARY_CRITICAL",
                    (vid,),
                    f"field has a critical point on the boundary at {vid} ({sc} link sign changes)",
                )
            )
        elif sc != 1:
            violations.append(
                Violation("DEGENERATE_CRITICAL", (vid,), f"boundary vertex {vid} has {sc} link sign changes")
            )
    by_value = {}
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


MODEL_MESHES = [
    models.disk_mesh,
    models.annulus_mesh,
    models.sphere_mesh,
    models.dumbbell_sphere_mesh,
    models.tilted_cylinder_mesh,
    models.parabolic_strip_mesh,
    models.pq_square_mesh,
    models.torus_with_hole_mesh,
    models.square_mesh,
]


def model_fields(s):
    """The mesh's own field plus random, rounded, monkey-saddle and radial ones."""
    rng = np.random.default_rng(len(s.triangles))
    z = s.xy[:, 0] + 1j * s.xy[:, 1]
    z = z - z.mean()
    return {
        "own": s.f,
        "random": rng.standard_normal(len(s.f)),
        "rounded": np.round(s.f, 1),
        "monkey": np.round(((z**3).real), 2),
        "radial": np.round(np.abs(z) ** 2, 2),
    }


def test_validation_matches_reference_link_walk():
    codes = set()
    for make in MODEL_MESHES:
        base = make()
        for name, f in model_fields(base).items():
            s = PLSurface(list(base.vertex_ids), f, base.triangles, base.areas, base.xy)
            want = reference_validate(s).to_dict()
            assert validate_simple_morse(s).to_dict() == want, (make.__name__, name)
            codes.update(v["code"] for v in want["violations"])
    assert codes == {
        "FLAT_TRIANGLE",
        "DEGENERATE_CRITICAL",
        "BOUNDARY_CRITICAL",
        "DUPLICATE_CRITICAL_VALUE",
    }
