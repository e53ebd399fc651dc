"""The incidence index of a measured graph against the code it replaced.

``MeasuredReebGraph.incidence`` answers "which edges meet a vertex" for
validation, homology, the boundary walk, the circulation stars and
realization.  The reference functions below are the scans, the union-find
Betti count and the all-rotations cycle canonicalization that answered it
before; each graph must give the same edge sets, homology, boundary cycles
and invariants both ways, and the same realized surfaces as then.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from reeb_orbit import graph_core, serialize
from reeb_orbit.circulation import _solid_only_stars
from reeb_orbit.fixtures import closed_torus_graph, fig2_graph, fig4a_graph, fig4b_graph
from reeb_orbit.fuzz import random_measured_graph
from reeb_orbit.levels import DSU
from reeb_orbit.realization import realize
from reeb_orbit.reebgraph import MeasuredReebGraph

DATA = Path(__file__).resolve().parents[1] / "src" / "reeb_orbit" / "data"

# sha256 of the realize(resolution=4) surfaces of the graphs fixture, in
# order, as the per-vertex scans of all edges built them
REALIZED_SHA256 = "0dbb5a52d48a0e4f634acc1fabbd2938128ceb4e7c2351584c06a72eb428c99a"


def reference_edges_at(g, vid):
    return [e for e in g.edges if e.tail == vid or e.head == vid]


def reference_dashed_edges_at(g, vid):
    return [e for e in reference_edges_at(g, vid) if e.dashed]


def reference_subgraph_dims(vertices, edges):
    """(h0, h1) of a graph given as vertex set plus edge endpoint pairs."""
    if not vertices:
        return 0, 0
    dsu = DSU()
    for v in sorted(vertices):
        dsu.find(v)
    for a, b in edges:
        dsu.union(a, b)
    h0 = len({dsu.find(v) for v in vertices})
    return h0, len(edges) - len(vertices) + h0


def reference_homology_dims(g):
    _, h1_gamma = reference_subgraph_dims({v.id for v in g.vertices}, [(e.tail, e.head) for e in g.edges])
    solid, dashed = g.solid_edges(), g.dashed_edges()
    solid_vs = {e.tail for e in solid} | {e.head for e in solid}
    dashed_vs = {e.tail for e in dashed} | {e.head for e in dashed}
    h0_solid, _ = reference_subgraph_dims(solid_vs, [(e.tail, e.head) for e in solid])
    h0_dashed, h1_dashed = reference_subgraph_dims(dashed_vs, [(e.tail, e.head) for e in dashed])
    h1_rel = h1_gamma - h1_dashed + h0_dashed - 1 if dashed else h1_gamma
    return graph_core.HomologyDims(
        h1_gamma, h1_dashed, h1_rel, h0_dashed, h0_solid, len(solid_vs & dashed_vs)
    )


def reference_canonical_cycle(pairs):
    """Lexicographically smallest rotation, found by comparing every rotation."""
    n = len(pairs)
    seq = [(pairs[i - 1][1], pairs[i][0]) for i in range(n)]
    best = min(range(n), key=lambda k: [seq[(k + i) % n] for i in range(n)])
    edges = tuple(pairs[(best + i) % n][0] for i in range(n))
    vertices = tuple(pairs[(best + i - 1) % n][1] for i in range(n))
    return graph_core.BoundaryCycle(edges, vertices)


@pytest.fixture(scope="module")
def graphs():
    """The four fixtures, the data/ graphs, fuzz seeds 40000-40099 and one
    graph of 1,035 edges."""
    graphs = [fig2_graph(), fig4a_graph(), fig4b_graph(), closed_torus_graph()]
    graphs += [serialize.load_graph((DATA / f"{name}.json").read_text())
               for name in ("fig2", "fig4a", "fig4b", "closed_torus")]
    graphs += [random_measured_graph(seed) for seed in range(40000, 40100)]
    graphs.append(random_measured_graph(1, max_events=800, samples=8))
    assert len(graphs[-1].edges) == 1035
    return graphs


def test_each_vertex_meets_the_edges_a_scan_finds(graphs):
    for g in graphs:
        for v in g.vertices:
            assert g.edges_at(v.id) == reference_edges_at(g, v.id)
            assert sorted(e.id for e in g.dashed_edges_at(v.id)) == sorted(
                e.id for e in reference_dashed_edges_at(g, v.id))
            dashed_in, dashed_out, solid_in, solid_out = g.incidence[v.id]
            assert [e for e in g.edges if e.head == v.id and e.dashed] == dashed_in
            assert [e for e in g.edges if e.tail == v.id and e.dashed] == dashed_out
            assert [e for e in g.edges if e.head == v.id and not e.dashed] == solid_in
            assert [e for e in g.edges if e.tail == v.id and not e.dashed] == solid_out


def test_solid_only_stars_are_the_vertices_without_dashed_edges(graphs):
    for g in graphs:
        grounded = {v for e in g.dashed_edges() for v in (e.tail, e.head)}
        want = {
            v.id: ([e for e in g.edges if e.head == v.id], [e for e in g.edges if e.tail == v.id])
            for v in g.vertices if v.id not in grounded
        }
        assert _solid_only_stars(g) == want


def test_homology_cycles_and_invariants_match_the_replaced_code(graphs, monkeypatch):
    new = [(graph_core.homology_dims(g), graph_core.boundary_cycles(g), graph_core.invariants(g))
           for g in graphs]
    monkeypatch.setattr(MeasuredReebGraph, "edges_at", reference_edges_at)
    monkeypatch.setattr(MeasuredReebGraph, "dashed_edges_at", reference_dashed_edges_at)
    monkeypatch.setattr(graph_core, "homology_dims", reference_homology_dims)
    monkeypatch.setattr(graph_core, "_canonical_cycle", reference_canonical_cycle)
    old = [(graph_core.homology_dims(g), graph_core.boundary_cycles(g), graph_core.invariants(g))
           for g in graphs]
    assert new == old


def test_canonical_cycle_is_the_smallest_rotation_of_any_orbit(graphs):
    for g in graphs:
        seen = set()
        for e in g.dashed_edges():
            for state in {(e.id, e.head), (e.id, e.tail)} - seen:
                orbit = graph_core._orbit(g, state)
                seen.update(orbit)
                cycle = reference_canonical_cycle(orbit)
                assert graph_core._canonical_cycle(orbit) == cycle
                # the mirror that boundary_cycles compares at type III and IV cycles
                mirror = list(zip(cycle.edges, cycle.vertices))[::-1]
                assert graph_core._canonical_cycle(mirror) == reference_canonical_cycle(mirror)


def test_realized_surfaces_are_unchanged(graphs):
    digest = hashlib.sha256()
    for g in graphs:
        s = realize(g, resolution=4).surface
        for column in (s.f, s.triangles, s.areas, s.xy):
            digest.update(np.ascontiguousarray(column).tobytes())
    assert digest.hexdigest() == REALIZED_SHA256
