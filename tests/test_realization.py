import copy

import pytest

import reeb_orbit as ro
from reeb_orbit.fixtures import fig2_graph
from reeb_orbit.fuzz import random_measured_graph
from reeb_orbit.realization import realize, surface_of
from reeb_orbit.reebgraph import MeasuredReebGraph


EXPECTED_TOPOLOGY = {
    "fig2": (-1, 1, 1),
    "fig4a": (-1, 3, 0),
    "fig4b": (-1, 1, 1),
    "closed_torus": (0, 0, 1),
}


def test_fixture_topologies(fig2, fig4a, fig4b, closed_torus):
    for name, g in [
        ("fig2", fig2),
        ("fig4a", fig4a),
        ("fig4b", fig4b),
        ("closed_torus", closed_torus),
    ]:
        t = surface_of(g)
        assert (
            t.euler_characteristic,
            t.boundary_component_count,
            t.genus,
        ) == EXPECTED_TOPOLOGY[name]


def test_abstract_disk_with_mass_pi():
    # single dashed edge between two boundary extrema, total mass pi
    import math

    import numpy as np

    from reeb_orbit.reebgraph import MeasureProfile, ReebEdge, ReebVertex

    u = np.linspace(0.0, 1.0, 9)
    g = MeasuredReebGraph(
        [ReebVertex(1, 0.0, "I"), ReebVertex(2, 1.0, "I", "f-reversed")],
        [ReebEdge(1, 1, 2, "dashed", MeasureProfile(0.0, 1.0, u * math.pi))],
    )
    g.validate()
    res = realize(g, resolution=8)
    t = ro.topology_summary(res.surface)
    assert (t.boundary_component_count, t.genus) == (1, 0)
    assert t.total_area == pytest.approx(math.pi, rel=1e-12)
    assert ro.match_measured(g, ro.extract_reeb(res.surface, samples=8)).ok


def test_simplest_disk_roundtrip(disk):
    g = ro.extract_reeb(disk, samples=8)
    res = realize(g, resolution=8)
    t = ro.topology_summary(res.surface)
    assert (t.boundary_component_count, t.genus) == (1, 0)
    assert t.total_area == pytest.approx(g.total_mass, rel=1e-12)
    g2 = ro.extract_reeb(res.surface, samples=8)
    assert ro.match_measured(g, g2, tol_mass=1e-9).ok


def test_fixture_roundtrips(fig2, fig4a, fig4b, closed_torus):
    for g in (fig2, fig4a, fig4b, closed_torus):
        res = realize(g, resolution=8)
        samples = g.edges[0].profile.samples
        g2 = ro.extract_reeb(res.surface, samples=samples)
        iso = ro.match_measured(g, g2, tol_mass=1e-9)
        assert iso.ok, iso.obstruction


def test_area_fidelity(fig2):
    res = realize(fig2, resolution=8)
    assert res.surface.total_area == pytest.approx(fig2.total_mass, rel=1e-12)
    g2 = ro.extract_reeb(res.surface, samples=fig2.edges[0].profile.samples)
    iso = ro.match_measured(fig2, g2)
    for e in fig2.edges:
        assert g2.edge(iso.edge_map[e.id]).mass == pytest.approx(e.mass, rel=1e-9)


def test_sigma_matches_boundary_count_on_fuzz():
    for seed in range(12):
        g = random_measured_graph(seed)
        surf = realize(g, resolution=6).surface
        t = ro.topology_summary(surf)
        assert ro.sigma(g) == t.boundary_component_count
        assert ro.genus(g) == t.genus


def test_iv_order_must_alternate(pq_square):
    g = ro.extract_reeb(pq_square, samples=8)
    bad = MeasuredReebGraph(
        [copy.copy(v) for v in g.vertices],
        [copy.copy(e) for e in g.edges],
        dict(g.cyclic_orders),
    )
    (vid,) = [v.id for v in g.vertices if v.vtype == "IV"]
    a, b, c, d = bad.cyclic_orders[vid]
    bad.cyclic_orders[vid] = (a, c, b, d)  # below edges adjacent: unrealizable
    with pytest.raises(ro.InvalidGraph) as realized:
        realize(bad)
    with pytest.raises(ro.InvalidGraph) as counted:
        ro.genus(bad, method="handles")
    assert str(counted.value) == str(realized.value)


def test_invalid_graph_rejected(fig2):
    broken = MeasuredReebGraph(
        [copy.copy(v) for v in fig2.vertices],
        [copy.copy(e) for e in fig2.edges],
        dict(fig2.cyclic_orders),
    )
    broken.vertices[0].f = broken.vertices[1].f  # duplicate critical value
    with pytest.raises(ro.InvalidGraph):
        realize(broken)


def test_resolution_scales_mesh(fig2):
    small = realize(fig2, resolution=6).surface
    big = realize(fig2, resolution=12).surface
    assert len(big.triangles) > len(small.triangles)
    for s in (small, big):
        g2 = ro.extract_reeb(s, samples=fig2.edges[0].profile.samples)
        assert ro.match_measured(fig2, g2).ok
