import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from reeb_orbit import (
    DataError,
    LevelOnVertex,
    NotSimpleMorse,
    TopologyError,
    UnclassifiableTransition,
    classify_level_transition,
    cyclic_order,
    extract_reeb,
    topology_summary,
    validate_simple_morse,
)
from reeb_orbit import cli, extraction, levels, realize
from reeb_orbit.circulation import dashed_cycle_basis, solve_circulations
from reeb_orbit.fuzz import random_measured_graph
from reeb_orbit.levels import (
    DSU,
    Chord,
    LevelComponent,
    level_tables,
    pick_regular_value,
    regular_values,
    slab_triangle_components,
    trace_level,
    trace_levels,
)
from reeb_orbit.models import disk_mesh, square_mesh, torus_with_hole_mesh
from reeb_orbit.reebgraph import _INCIDENCE, AS_IN_TABLE, F_REVERSED, transition
from reeb_orbit.serialize import dumps, graph_to_dict
from reeb_orbit.surface import PLSurface, edge_key, min_labels, remap

DATA = Path(__file__).resolve().parents[1] / "src" / "reeb_orbit" / "data"


def test_classify_table_rows():
    # (circles, segments) below/above
    assert classify_level_transition((0, 0), (0, 1)) == ("I", "as-in-table")
    assert classify_level_transition((0, 2), (0, 1)) == ("II", "as-in-table")
    assert classify_level_transition((0, 1), (1, 0)) == ("III", "as-in-table")
    assert classify_level_transition((1, 0), (0, 1)) == ("III", "f-reversed")
    assert classify_level_transition((0, 2), (0, 2)) == ("IV", "as-in-table")
    assert classify_level_transition((1, 1), (0, 1)) == ("V", "as-in-table")
    assert classify_level_transition((2, 0), (1, 0)) == ("VI", "as-in-table")
    assert classify_level_transition((1, 0), (2, 0)) == ("VI", "f-reversed")
    assert classify_level_transition((0, 0), (1, 0)) == ("VII", "as-in-table")
    assert classify_level_transition((1, 0), (0, 0)) == ("VII", "f-reversed")
    with pytest.raises(UnclassifiableTransition):
        classify_level_transition((2, 1), (0, 1))


def test_classify_inverts_the_transition_table():
    # each of the 13 vertex kinds that validation accepts is the one kind its
    # transition classifies as; IV's mirror is IV as-in-table
    assert len(_INCIDENCE) == 13
    for kind in [*_INCIDENCE, ("IV", F_REVERSED)]:
        counts = transition(*kind)
        want = ("IV", AS_IN_TABLE) if kind[0] == "IV" else kind
        assert classify_level_transition(counts[:2], counts[2:]) == want


def test_disk_extraction(disk):
    g = extract_reeb(disk, samples=16)
    assert [(v.vtype, v.orientation) for v in g.vertices] == [
        ("I", "as-in-table"),
        ("I", "f-reversed"),
    ]
    (e,) = g.edges
    assert e.style == "dashed"
    assert e.mass == pytest.approx(disk.total_area, rel=1e-12)


def test_sphere_extraction(sphere):
    g = extract_reeb(sphere, samples=16)
    assert [(v.vtype, v.orientation) for v in g.vertices] == [
        ("VII", "as-in-table"),
        ("VII", "f-reversed"),
    ]
    (e,) = g.edges
    assert e.style == "solid"
    assert e.mass == pytest.approx(4 * math.pi, rel=1e-9)


def test_torus_with_hole_matches_paper_figure(torus_with_hole, fig2):
    g = extract_reeb(torus_with_hole, samples=16)
    assert [(v.vtype, v.orientation) for v in g.vertices] == [
        (v.vtype, v.orientation) for v in fig2.vertices
    ]
    got = sorted((e.tail, e.head, e.style) for e in g.edges)
    want = sorted((e.tail, e.head, e.style) for e in fig2.edges)
    assert got == want


def test_mass_conservation(disk, annulus, sphere, cylinder, torus_with_hole):
    for s in (disk, annulus, sphere, cylinder, torus_with_hole):
        g = extract_reeb(s, samples=8)
        assert g.total_mass == pytest.approx(s.total_area, rel=1e-9)


def test_vertex_count_equals_critical_count(annulus, torus_with_hole):
    for s in (annulus, torus_with_hole):
        rep = validate_simple_morse(s)
        g = extract_reeb(s, samples=8)
        assert len(g.vertices) == len(rep.critical_points)


def test_profiles_strictly_increasing(annulus, torus_with_hole):
    for s in (annulus, torus_with_hole):
        g = extract_reeb(s, samples=24)
        for e in g.edges:
            assert np.all(np.diff(e.profile.cumulative) > 0)


def test_profile_increments_match_clipping_oracle(disk, annulus):
    # per edge, grid-aligned increments equal the area of the slab preimage
    # recomputed by clipping the region's triangles directly
    for s in (disk, annulus):
        g = extract_reeb(s, samples=16)
        ctx = g.context
        for e in g.edges:
            grid = e.profile.grid()
            tris = sorted({t for _, band_tris in ctx.edge_triangles(e.id) for t in band_tris})
            for i, j in [(0, 5), (3, 11), (0, len(grid) - 1)]:
                increment = e.profile.cumulative[j] - e.profile.cumulative[i]
                oracle = reference_band_area(s, tris, grid[i], grid[j])
                assert increment == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_extraction_requires_validation(disk):
    s = disk
    f = s.f.copy()
    interior = [i for i in range(len(f)) if not s.on_boundary[i]]
    f[interior[0]] = -5.0
    f[interior[-1]] = -5.0
    from reeb_orbit.surface import PLSurface

    bad = PLSurface(list(s.vertex_ids), f, s.triangles.copy(), s.areas.copy(), s.xy)
    with pytest.raises(NotSimpleMorse):
        extract_reeb(bad)


@pytest.fixture(scope="module")
def fig4a_surface():
    from reeb_orbit.fixtures import fig4a_graph

    return realize(fig4a_graph(), resolution=4).surface


def _reweighted_graph(s, f_shift=0.0, area_scale=1.0):
    """Graph of s with its field shifted or its areas scaled, detached from s."""
    from reeb_orbit.surface import PLSurface

    other = PLSurface(list(s.vertex_ids), s.f + f_shift, s.triangles, area_scale * s.areas)
    return extract_reeb(other, samples=8)


def test_ensure_context_rejects_other_counts(fig4a_surface, disk):
    with pytest.raises(NotSimpleMorse, match="^graph does not match"):
        extraction.ensure_context(fig4a_surface, extract_reeb(disk, samples=8))


def test_ensure_context_rejects_other_vertex_fields(fig4a_surface):
    with pytest.raises(NotSimpleMorse, match="^graph does not match"):
        extraction.ensure_context(fig4a_surface, _reweighted_graph(fig4a_surface, f_shift=1.0))


def test_ensure_context_rejects_other_masses(fig4a_surface):
    with pytest.raises(NotSimpleMorse, match="^graph measures do not match"):
        extraction.ensure_context(fig4a_surface, _reweighted_graph(fig4a_surface, area_scale=2.0))


def test_ensure_context_rejects_other_cyclic_orders(fig4a_surface):
    # the Fig. 4 pair differs only in the cyclic order at vertex 3
    from reeb_orbit.fixtures import fig4b_graph

    g = extract_reeb(realize(fig4b_graph(), resolution=4).surface, samples=8)
    with pytest.raises(NotSimpleMorse, match="^graph cyclic orders do not match"):
        extraction.ensure_context(fig4a_surface, g)


def _witness_meshes():
    """The data fixtures, torus_with_hole_mesh() and the fuzz meshes of the
    benchmark seeds: orbit synthesis at resolution 4, remapping at 6, two of
    them refined."""
    from reeb_orbit.serialize import load_graph
    from reeb_orbit.surface import load_mesh

    meshes = [load_mesh((DATA / "disk_linear.json").read_bytes()), torus_with_hole_mesh()]
    for name in ("fig2", "fig4a", "fig4b", "closed_torus"):
        meshes.append(realize(load_graph((DATA / f"{name}.json").read_bytes()), resolution=4).surface)
    for fs in (30002, 30014, 30039, 30050, 30055, 30057, 30060, 30072):
        meshes.append(realize(random_measured_graph(fs, max_events=6), resolution=4).surface)
    for fs in (20000, 20001, 20002, 20003, 20004, 20005, 20008, 20009, 20010):
        meshes.append(realize(random_measured_graph(fs), resolution=6).surface)
        if fs in (20008, 20009):
            meshes.append(remap(meshes[-1], {"kind": "refine"}))
    return meshes


def test_witness_masses_are_the_last_profile_samples():
    # re-attaching a loaded graph integrates each edge on a one-interval grid;
    # its mass must be the very float a K-sample profile ends in
    for s in _witness_meshes():
        _, edge_specs, ctx = extraction._witness(s)
        masses = [profile.mass for profile in extraction._profiles(ctx, 1)]
        assert len(masses) == len(edge_specs)
        for samples in (2, 12, 64):
            g = extract_reeb(s, samples=samples)
            assert masses == [float(e.profile.cumulative[-1]) for e in g.edges]


def test_reattachment_integrates_two_levels_per_region(monkeypatch):
    # a re-attachment evaluates each region's triangles at the 2 levels of
    # its one-interval grid, the lower clip not a second time
    from reeb_orbit.serialize import graph_from_dict, graph_to_dict

    s = torus_with_hole_mesh()
    g = graph_from_dict(graph_to_dict(extract_reeb(s, samples=8)))
    cells = []
    frac_below = extraction._frac_below

    def counting(vals, tris, levels):
        cells.append(len(levels))
        return frac_below(vals, tris, levels)

    monkeypatch.setattr(extraction, "_frac_below", counting)
    ctx = extraction.ensure_context(s, g)
    region_tris = [len(tris) for eid in ctx.edge_members for _, tris in ctx.edge_triangles(eid)]
    assert sum(cells) == 2 * sum(region_tris)


def test_samples_below_two_are_a_data_error(disk):
    for samples in (1, 0, -3):
        with pytest.raises(DataError, match="at least 2 samples"):
            extract_reeb(disk, samples=samples)


def test_extraction_deterministic(annulus):
    from reeb_orbit.serialize import graph_to_dict

    g1 = extract_reeb(annulus, samples=12)
    g2 = extract_reeb(annulus, samples=12)
    assert graph_to_dict(g1) == graph_to_dict(g2)


def test_cyclic_order_annulus(annulus):
    g = extract_reeb(annulus, samples=8)
    for v in g.vertices:
        if len(g.dashed_edges_at(v.id)) >= 3:
            assert cyclic_order(annulus, g, v.id) == g.cyclic_orders[v.id]


def test_cyclic_order_of_a_reloaded_graph(annulus):
    # a detached graph is re-attached, and its orders come from that witness
    from reeb_orbit.fixtures import fig4a_graph, fig4b_graph
    from reeb_orbit.serialize import graph_from_dict, graph_to_dict

    surfaces = [annulus] + [realize(build(), resolution=4).surface for build in (fig4a_graph, fig4b_graph)]
    for s in surfaces:
        g = extract_reeb(s, samples=8)
        loaded = graph_from_dict(graph_to_dict(g))
        assert loaded.context is None and g.cyclic_orders
        for v, recorded in g.cyclic_orders.items():
            assert cyclic_order(s, loaded, v) == recorded


def test_cyclic_order_rejects_low_valence(annulus):
    g = extract_reeb(annulus, samples=8)
    v = min(g.vertices, key=lambda v: v.f)  # type I, one dashed edge
    with pytest.raises(ValueError):
        cyclic_order(annulus, g, v.id)


def test_cyclic_order_two_dashed_edges(torus_with_hole):
    # the unique cyclic order on two elements at the one-solid-two-dashed saddle
    g = extract_reeb(torus_with_hole, samples=8)
    (v,) = [v for v in g.vertices if v.vtype == "V"]
    dashed = sorted(e.id for e in g.dashed_edges_at(v.id))
    assert cyclic_order(torus_with_hole, g, v.id) == tuple(dashed)


def test_pick_regular_value_avoids():
    v = pick_regular_value(0.0, 1.0, [0.2, 0.5, 0.8])
    assert 0.0 < v < 1.0
    assert min(abs(v - x) for x in [0.0, 0.2, 0.5, 0.8, 1.0]) >= 0.15 - 1e-12


def test_trace_level_components(annulus):
    # between the inner boundary extremes the level has two segments
    comps = trace_level(annulus, 0.0)
    styles = sorted(c.is_circle for c in comps)
    assert len(comps) == 2
    assert styles == [False, False]


def test_level_census_matches_graph(disk, annulus, sphere, cylinder, torus_with_hole):
    # at any regular value, the traced level components biject with the graph
    # edges whose range spans it, style for style
    for s in (disk, annulus, sphere, cylinder, torus_with_hole):
        g = extract_reeb(s, samples=8)
        lo, hi = g.f_range()
        for frac in (0.17, 0.43, 0.71, 0.93):
            t = lo + frac * (hi - lo)
            if any(fv == t for fv in s.f):
                continue
            comps = trace_level(s, t)
            spanning = [e for e in g.edges if e.profile.f_lo < t < e.profile.f_hi]
            assert len(comps) == len(spanning)
            assert sorted(c.is_circle for c in comps) == sorted(
                e.style == "solid" for e in spanning
            )


def test_euler_census_on_model_meshes(disk, annulus, sphere, cylinder, torus_with_hole):
    # vertex census predicts the Euler characteristic of the carrying surface
    from tests.test_fuzz_properties import euler_census

    for s in (disk, annulus, sphere, cylinder, torus_with_hole):
        g = extract_reeb(s, samples=8)
        assert euler_census(g) == topology_summary(s).euler_characteristic


def test_remap_preserves_graph(disk):
    from reeb_orbit import match_measured, remap

    g = extract_reeb(disk, samples=8)
    for spec in (
        {"kind": "relabel", "mapping": {i: (i * 7) % 997 + 1000 for i in disk.vertex_ids}},
        {"kind": "refine"},
        {"kind": "shear", "factor": 0.3},
    ):
        s2 = remap(disk, spec)
        g2 = extract_reeb(s2, samples=8)
        assert match_measured(g, g2, tol_mass=1e-9).ok


# -- array kernels against the per-triangle loops they replaced -------------------
#
# The reference functions below are the full-mesh Python loops that extraction
# ran before its level passes moved onto per-surface numpy arrays; they live
# only here, as oracles.


def reference_slab_components(s, lo, hi):
    dsu = DSU()
    members = []
    for tri in range(len(s.triangles)):
        verts = s.triangles[tri]
        fmin = min(s.f[int(v)] for v in verts)
        fmax = max(s.f[int(v)] for v in verts)
        if fmin < hi and fmax > lo and fmin < fmax:
            members.append(tri)
            dsu.find(tri)
    member_set = set(members)
    for u, v, a, b in s.edge_rows.tolist():
        if b < 0:
            continue
        if min(s.f[u], s.f[v]) < hi and max(s.f[u], s.f[v]) > lo:
            if a in member_set and b in member_set:
                dsu.union(a, b)
    return {tri: dsu.find(tri) for tri in members}


def reference_chords(s, t):
    chords = {}
    for tri in range(len(s.triangles)):
        verts = [int(x) for x in s.triangles[tri]]
        above = [s.f[v] > t for v in verts]
        if all(above) or not any(above):
            continue
        if above.count(True) == 1:
            i = above.index(True)
            lone_above = True
        else:
            i = above.index(False)
            lone_above = False
        x = verts[i]
        prev_e = edge_key(verts[(i + 2) % 3], x)
        next_e = edge_key(x, verts[(i + 1) % 3])
        chords[tri] = Chord(tri, prev_e, next_e) if lone_above else Chord(tri, next_e, prev_e)
    return chords


def reference_frac_below(fa, fb, fc, t):
    """Fraction of a triangle's (barycentric-uniform) area below level t."""
    f1, f2, f3 = sorted((fa, fb, fc))
    if t <= f1:
        return 0.0
    if t >= f3:
        return 1.0
    if t <= f2:
        denom = (f2 - f1) * (f3 - f1)
        if denom == 0.0:
            return 0.0
        return (t - f1) * (t - f1) / denom
    denom = (f3 - f2) * (f3 - f1)
    if denom == 0.0:
        return 1.0
    return 1.0 - (f3 - t) * (f3 - t) / denom


def reference_moment_below(fa, fb, fc, t):
    """Integral of the field over the sublevel part, in area fractions.

    Exact for the affine interpolant: the sublevel corner piece is a triangle
    with values (f1, t, t), so its mean is (f1 + 2t)/3; symmetrically above.
    """
    f1, f2, f3 = sorted((fa, fb, fc))
    mean = (f1 + f2 + f3) / 3.0
    if t <= f1:
        return 0.0
    if t >= f3:
        return mean
    if t <= f2:
        return reference_frac_below(fa, fb, fc, t) * (f1 + 2.0 * t) / 3.0
    return mean - (1.0 - reference_frac_below(fa, fb, fc, t)) * (f3 + 2.0 * t) / 3.0


def reference_band_area(s, tris, lo, hi):
    """Weighted area of the given triangles clipped to lo < f < hi, one
    triangle at a time."""
    parts = []
    for tri in tris:
        fa, fb, fc = (s.f[int(x)] for x in s.triangles[tri])
        parts.append(
            float(s.areas[tri])
            * (reference_frac_below(fa, fb, fc, hi) - reference_frac_below(fa, fb, fc, lo))
        )
    return float(math.fsum(parts))


def reference_band_moment(s, tris, lo, hi):
    """Exact field moment of the clipped triangles, one triangle at a time."""
    parts = []
    for tri in tris:
        fa, fb, fc = (s.f[int(x)] for x in s.triangles[tri])
        parts.append(
            float(s.areas[tri])
            * (reference_moment_below(fa, fb, fc, hi) - reference_moment_below(fa, fb, fc, lo))
        )
    return float(math.fsum(parts))


def reference_area_below(vals, areas, t):
    f1, f2, f3 = vals[:, 0], vals[:, 1], vals[:, 2]
    frac = np.zeros(len(vals))
    lo_band = (t > f1) & (t <= f2)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (f2 - f1) * (f3 - f1)
        frac_lo = np.where(d1 > 0.0, (t - f1) ** 2 / np.where(d1 > 0, d1, 1.0), 0.0)
        d2 = (f3 - f2) * (f3 - f1)
        frac_hi = np.where(d2 > 0.0, 1.0 - (f3 - t) ** 2 / np.where(d2 > 0, d2, 1.0), 1.0)
    frac = np.where(lo_band, frac_lo, frac)
    frac = np.where((t > f2) & (t < f3), frac_hi, frac)
    frac = np.where(t >= f3, 1.0, frac)
    return float(np.add.reduceat(areas * frac, [0])[0])


def reference_region_cum(s, tris, clip_lo, clip_hi, grid):
    vals = np.sort(s.f[s.triangles[tris]], axis=1)
    areas = s.areas[tris]
    base = reference_area_below(vals, areas, clip_lo)
    out = np.empty(len(grid))
    for i, g in enumerate(grid):
        t = min(max(float(g), clip_lo), clip_hi)
        out[i] = reference_area_below(vals, areas, t) - base
    return out


def _kernel_case(name):
    if name == "torus_with_hole":
        return torus_with_hole_mesh()
    if name == "disk":
        return disk_mesh()
    seed, refined = int(name[4:9]), name.endswith("-refined")
    surf = realize(random_measured_graph(seed), resolution=6).surface
    return remap(surf, {"kind": "refine"}) if refined else surf


KERNEL_CASES = [f"fuzz{seed}{suffix}" for seed in (20000, 20001, 20002) for suffix in ("", "-refined")]
KERNEL_CASES += ["torus_with_hole", "disk"]


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_level_kernels_match_reference_loops(name):
    s = _kernel_case(name)
    g = extract_reeb(s, samples=16)
    ctx = g.context
    crit, bands = ctx.critical_values, ctx.band_values
    # the band slabs and the slabs around each critical level, one call each
    for cuts in (crit, [-math.inf, *bands, math.inf]):
        labels = slab_triangle_components(s, cuts)
        total = 0
        for j in range(len(cuts) - 1):
            nodes = np.arange(len(labels.keys))[labels.slab(j)]
            got = zip(labels.triangles(nodes).tolist(), labels.triangles(labels.roots[nodes]).tolist())
            want = reference_slab_components(s, cuts[j], cuts[j + 1])
            assert list(got) == list(want.items())
            total += len(want)
        assert total == len(labels.keys)
    for t in bands:
        chords = {c.tri: c for comp in trace_level(s, t) for c in comp.chords}
        assert dict(sorted(chords.items())) == reference_chords(s, t)


def searchsorted_slab_labels(s, cuts):
    """The slab labelling as first vectorized: nodes sorted slab-major and
    each link's two nodes found by a binary search over all of them."""
    tables = level_tables(s)
    cuts = np.asarray(cuts, dtype=float)
    n = len(tables.fmin)

    def slab_runs(fmin, fmax):
        return np.searchsorted(cuts[1:], fmin, "right"), np.searchsorted(cuts[:-1], fmax, "left")

    first, stop = slab_runs(tables.fmin, tables.fmax)
    stop[tables.fmin == tables.fmax] = 0
    tri, slab = levels._expand_runs(first, stop)
    nodes = np.sort(slab * n + tri)
    a, b = tables.adj[:, 0], tables.adj[:, 1]
    e_first, e_stop = slab_runs(tables.adj_fmin, tables.adj_fmax)
    edge, slab = levels._expand_runs(e_first, np.minimum(e_stop, np.minimum(stop[a], stop[b])))
    roots = min_labels(
        len(nodes),
        np.searchsorted(nodes, slab * n + a[edge]),
        np.searchsorted(nodes, slab * n + b[edge]),
    )
    return nodes, roots


def test_slab_labels_match_the_searchsorted_pass():
    # numbering nodes triangle by triangle and sorting them once by slab gives
    # the very keys and roots of the binary-search pass, at both cut lists
    for s in _witness_meshes():
        ctx = extraction._witness(s)[2]
        for cuts in (ctx.critical_values, [-math.inf, *ctx.band_values, math.inf]):
            labels = slab_triangle_components(s, cuts)
            keys, roots = searchsorted_slab_labels(s, cuts)
            np.testing.assert_array_equal(labels.keys, keys)
            np.testing.assert_array_equal(labels.roots, roots)


def reference_trace_level(s, t):
    """One level's components by a walk through dicts keyed by triangle, one
    level at a time: components in the order of their smallest triangle, a
    segment from its boundary entry, a circle from the successor of its
    smallest triangle."""
    if np.any(s.f == t):
        raise LevelOnVertex(f"level {t!r} passes through a mesh vertex")
    tables = level_tables(s)
    crossed = np.flatnonzero((tables.fmin < t) & (tables.fmax > t))
    corners = s.triangles[crossed]
    above = s.f[corners] > t
    lone_above = above.sum(axis=1) == 1
    lone = np.where(lone_above[:, None], above, ~above).argmax(axis=1)
    into = (lone + 2) % 3
    rows = np.arange(len(crossed))
    tris = crossed.tolist()
    keys, across = [], []
    for side in (np.where(lone_above, into, lone), np.where(lone_above, lone, into)):
        u, v = corners[rows, side], corners[rows, (side + 1) % 3]
        keys.append(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
        across.append(dict(zip(tris, s.twin[3 * crossed + side].tolist())))
    chords = {tri: Chord(tri, entry, out) for tri, entry, out in zip(tris, *keys)}
    behind, ahead = across
    components = []
    visited = set()
    for start in tris:
        if start in visited:
            continue
        first = start
        is_circle = False
        while True:
            prev = behind[first]
            if prev < 0:
                break
            if prev == start:
                is_circle = True
                break
            first = prev
        seq = [first]
        visited.add(first)
        cur = first
        while True:
            nxt = ahead[cur]
            if nxt < 0 or nxt == first:
                break
            seq.append(nxt)
            visited.add(nxt)
            cur = nxt
        components.append(LevelComponent(t, [chords[tri] for tri in seq], is_circle))
    return components


@pytest.mark.parametrize("name", KERNEL_CASES + ["annulus", "sphere", "cylinder"])
def test_trace_levels_matches_the_per_level_walk(name, request):
    # component for component and chord for chord, at the band values, at
    # random regular values and at levels outside the field's range
    s = request.getfixturevalue(name) if name in ("annulus", "sphere", "cylinder") else _kernel_case(name)
    bands = extraction._witness(s)[2].band_values
    lo, hi = float(s.f.min()), float(s.f.max())
    randoms = np.sort(np.random.default_rng(17).uniform(lo, hi, 6)).tolist()
    for ts in (bands, randoms, [lo - 1.0, *randoms[:2], hi + 1.0]):
        got = trace_levels(s, ts)
        assert got == [reference_trace_level(s, t) for t in ts]
        assert got == [trace_level(s, t) for t in ts]
    # test_level_kernels_match_reference_loops checks the band levels' chords
    for t, comps in zip(randoms, trace_levels(s, randoms)):
        chords = {c.tri: c for comp in comps for c in comp.chords}
        assert comps and dict(sorted(chords.items())) == reference_chords(s, t)
    assert trace_levels(s, []) == []


def test_trace_levels_checks_its_levels(torus_with_hole):
    s = torus_with_hole
    ctx = extraction._witness(s)[2]
    bands, crit = ctx.band_values, ctx.critical_values
    # a vertex value first, between two bands and last; two of them name the first
    for extra in ([crit[0]], [crit[2]], [crit[-1]], [crit[1], crit[-1]]):
        with pytest.raises(LevelOnVertex, match=rf"^level {re.escape(repr(extra[0]))} passes"):
            trace_levels(s, sorted(bands + extra))
    for ts in (bands[::-1], [bands[0], bands[0]], [*bands, bands[-1]]):
        with pytest.raises(ValueError, match="ascend strictly"):
            trace_levels(s, ts)


def reference_pick_regular_value(lo, hi, values):
    """The midpoint of the first widest gap between lo, the values inside
    (lo, hi) and hi, one interval at a time."""
    values = np.asarray(values, dtype=float)
    inside = values[np.searchsorted(values, lo, "right") : np.searchsorted(values, hi, "left")]
    stops = np.concatenate(([lo], inside, [hi]))
    gaps = np.diff(stops)
    best = int(np.argmax(gaps))
    if not gaps[best] > 0.0:
        raise TopologyError(f"empty interval ({lo}, {hi})")
    return float(0.5 * (stops[best] + stops[best + 1]))


def test_regular_values_match_the_per_interval_formula():
    rng = np.random.default_rng(5)
    values = np.unique(rng.uniform(-1.0, 1.0, 60))
    ties = np.arange(8.0)  # equal gaps: the first one wins
    for vals, cuts in (
        (ties, [0.0, 7.0]),
        (ties, [-3.0, 0.5, 2.0, 3.0, 6.5, 20.0]),  # ends outside, on and between the values
        (values, np.sort(rng.uniform(-1.5, 1.5, 20))),
        (values, values),  # no value inside any interval
        (values, [-2.0, values[3], values[40], 3.0]),
        (values, [values[10], values[11] + 1e-300]),
    ):
        want = [reference_pick_regular_value(lo, hi, vals) for lo, hi in zip(cuts[:-1], cuts[1:])]
        assert regular_values(cuts, vals).tolist() == want
        assert [pick_regular_value(lo, hi, vals) for lo, hi in zip(cuts[:-1], cuts[1:])] == want
    assert regular_values([0.0, 7.0], ties.tolist()).tolist() == [0.5]


def test_regular_values_reject_empty_intervals():
    values = np.arange(5.0)
    # empty or inverted, with and without values inside, anywhere in a batch
    for lo, hi in ((2.0, 2.0), (3.0, 1.0), (2.5, 2.5), (9.0, -9.0), (-1.0, -1.0), (math.nan, 1.0)):
        message = rf"^empty interval \({re.escape(str(lo))}, {re.escape(str(hi))}\)$"
        with pytest.raises(TopologyError, match=message):
            reference_pick_regular_value(lo, hi, values)
        with pytest.raises(TopologyError, match=message):
            pick_regular_value(lo, hi, values)
        with pytest.raises(TopologyError, match=message):
            regular_values([-5.0, -4.0, lo, hi, 20.0] if lo > -4.0 else [lo, hi, 20.0], values)


def test_extract_names_values_that_leave_no_regular_value(capsys, tmp_path):
    # 1.0 and the float after it are the widest gap of their band, and their
    # midpoint rounds onto 1.0: extraction traced that level and failed with
    # LevelOnVertex, which named the level but not the cause
    s = square_mesh(1)
    f = np.array([1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1.0 + 2 * np.finfo(float).eps])
    s = PLSurface(list(s.vertex_ids), f, s.triangles, s.areas, s.xy)
    assert validate_simple_morse(s).is_simple_morse
    message = "no regular value separates the field values 1.0 and 1.0000000000000002"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        extract_reeb(s)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        regular_values([f.min(), f.max()], np.sort(f))
    path = tmp_path / "mesh.json"
    path.write_text(dumps(s.to_dict()))
    assert cli.main(["extract", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "DataError", "message": message}


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_edge_regions_partition_the_band_slabs(name):
    # in each band, the edges' regions are the reference slab components,
    # one region per component, each in ascending triangle order
    s = _kernel_case(name)
    ctx = extraction._witness(s)[2]
    crit = ctx.critical_values
    regions = [[] for _ in ctx.band_values]
    for eid in ctx.edge_members:
        for band, tris in ctx.edge_triangles(eid):
            assert np.all(np.diff(tris) > 0)
            regions[band].append(tris.tolist())
    for j, got in enumerate(regions):
        want = {}
        for tri, root in reference_slab_components(s, crit[j], crit[j + 1]).items():
            want.setdefault(root, []).append(tri)
        assert sorted(got) == sorted(want.values())


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_batched_profiles_match_reference_regions(name, monkeypatch):
    # each edge's profile is the sum of its regions' reference rows, float
    # for float, both sums taken by one reduceat segment: at the block cap,
    # where a refined mesh's K = 64 regions exceed it and are split between
    # blocks, and at a cap below one row, where every row is a block of its own
    s = _kernel_case(name)
    ctx = extraction._witness(s)[2]
    crit = ctx.critical_values
    for cap in (extraction._AREA_BLOCK_CELLS, 5):
        monkeypatch.setattr(extraction, "_AREA_BLOCK_CELLS", cap)
        for samples in (1, 12, 64):
            want, largest = [], 0
            for eid, members in ctx.edge_members.items():
                grid = np.linspace(crit[members[0][0]], crit[members[-1][0] + 1], samples + 1)
                rows = []
                for band, tris in ctx.edge_triangles(eid):
                    rows.append(reference_region_cum(s, tris, crit[band], crit[band + 1], grid))
                    largest = max(largest, (samples + 1) * len(tris))
                want.append(np.add.reduceat(np.array(rows), [0], axis=0)[0].tolist())
            assert [p.cumulative.tolist() for p in extraction._profiles(ctx, samples)] == want
            if name.endswith("-refined") and samples == 64:
                assert largest > cap


def test_extraction_peak_memory_is_bounded():
    # the blocks of (level, triangle) cells and the two slab passes hold
    # extraction's traced peak on a refined benchmark-sized mesh (T = 2916)
    # within 10% of the 1.084 MB that region-by-region integration and one
    # pass per slab took
    s = remap(realize(random_measured_graph(20009), resolution=6).surface, {"kind": "refine"})
    tracemalloc.start()
    try:
        extract_reeb(s, samples=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 1_084_000


def test_extraction_traces_each_band_once(monkeypatch):
    # one tracing pass over all band levels and one slab pass per slab family
    # (the band slabs and the slabs around the critical levels); the
    # cyclic-order walk reuses the band levels and the event slabs
    s = realize(random_measured_graph(20000), resolution=6).surface
    calls = {"trace_levels": 0, "trace_level": 0, "slab_triangle_components": 0}
    for module, name in (
        (extraction, "trace_levels"),
        (levels, "trace_level"),
        (extraction, "slab_triangle_components"),
    ):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    g = extract_reeb(s, samples=12)
    assert len(g.vertices) > 2 and g.cyclic_orders
    assert calls == {"trace_levels": 1, "trace_level": 0, "slab_triangle_components": 2}


# Runs each command line of argv[1] through cli.main, then reports on its last
# stderr line the exit codes, the OpenBLAS core that was loaded (None when
# numpy bundles no scipy-openblas) and the CPU features numpy dispatches on.
_KERNEL_CHILD = """
import ctypes, glob, json, os, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from reeb_orbit.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[1])]
libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
core = None
for lib in glob.glob(os.path.join(libs, "libscipy_openblas*")):
    corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    core = corename().decode()
features = sorted(name for name, on in __cpu_features__.items() if on)
sys.stderr.write("\\n" + json.dumps({"codes": codes, "core": core, "features": features}) + "\\n")
"""

KERNEL_SETTINGS = [
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Sandybridge"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
]


def _run_in_child(commands, setting):
    src = str(Path(extraction.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(setting, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _KERNEL_CHILD, json.dumps(commands)],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    report = json.loads(done.stderr.decode().splitlines()[-1])
    return done.stdout, report.pop("codes"), report


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("kernels")
    g = random_measured_graph(20000)
    s = realize(g, resolution=6).surface
    mesh, graph = tmp / "fuzz20000.json", tmp / "fuzz20000-graph.json"
    mesh.write_text(dumps(s.to_dict()))
    graph.write_text(dumps(graph_to_dict(g)))
    graphs = [DATA / f"{name}.json" for name in ("closed_torus", "fig2", "fig4a", "fig4b")] + [graph]
    # synthesis targets on the mesh's own graph: the particular circulation
    # and nonzero cycle coordinates
    extracted = extract_reeb(s, samples=12)
    own, targets, form = tmp / "fuzz20000-own.json", tmp / "fuzz20000-targets.json", tmp / "fuzz20000-form.json"
    own.write_text(dumps(graph_to_dict(extracted)))
    limits = solve_circulations(extracted).particular.limits
    basis = dashed_cycle_basis(extracted)
    targets.write_text(json.dumps({
        "circulation": {str(eid): list(pair) for eid, pair in limits.items()},
        "xi": {"basis": [list(c) for c in basis], "coords": [0.5 + i for i in range(len(basis))]},
    }))
    commands = [
        ["extract", str(m), "--samples", k] for m in (DATA / "disk_linear.json", mesh) for k in ("12", "64")
    ] + [["circulation", "solve", str(p)] for p in graphs] + [
        ["synthesize", str(mesh), str(own), str(targets), "-o", str(form)],
        ["xi", str(mesh), str(form), str(own)],
    ]
    out, codes, loaded = _run_in_child(commands, {})
    assert codes == [0] * len(commands)
    return commands, out + form.read_bytes(), loaded, form


@pytest.mark.parametrize("setting", KERNEL_SETTINGS, ids=lambda setting: " ".join(setting.values()))
def test_extract_bytes_do_not_depend_on_the_kernels(default_outputs, setting):
    # profile sums take their order from the code, circulation solving peels
    # a spanning forest and synthesis solves on the dual spanning tree in
    # plain floats, so neither the OpenBLAS kernel nor numpy's SIMD dispatch
    # may change a byte of `extract`, `circulation solve`, the form
    # `synthesize` writes or `xi` on it; a setting the child's libraries
    # ignored proves nothing and skips
    commands, want, default, form = default_outputs
    got, codes, loaded = _run_in_child(commands, setting)
    if loaded == default:
        pytest.skip(f"{setting} changed neither the OpenBLAS core nor the CPU features: {default}")
    assert codes == [0] * len(commands)
    assert got + form.read_bytes() == want
