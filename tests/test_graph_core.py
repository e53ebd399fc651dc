import pytest

from reeb_orbit import (
    NonIntegerFormulaValue,
    boundary_cycles,
    compatibility,
    extract_reeb,
    genus,
    genus_formula_value,
    homology_dims,
    orbit_moduli_dimension,
    sigma,
    topology_summary,
)
from reeb_orbit.fixtures import fig2_graph
from reeb_orbit.reebgraph import MeasuredReebGraph


def test_fig4a_boundary_cycles_match_worked_example(fig4a):
    cycles = boundary_cycles(fig4a)
    got = {(c.edges, c.vertices) for c in cycles}
    # vertices 1..6 are A, B, C, D, E, F; the three cycles of the example
    want = {
        ((2, 5, 3), (2, 3, 4)),  # B C D
        ((4, 6, 5), (3, 5, 4)),  # C E D
        ((1, 3, 6, 7, 7, 4, 2, 1), (1, 2, 4, 5, 6, 5, 3, 2)),  # A B D E F E C B
    }
    assert got == want


def test_fig4b_single_boundary_cycle(fig4b):
    cycles = boundary_cycles(fig4b)
    assert len(cycles) == 1
    assert len(cycles[0]) == 14


def test_sigma_values(fig2, fig4a, fig4b, closed_torus):
    assert sigma(fig2) == 1
    assert sigma(fig4a) == 3
    assert sigma(fig4b) == 1
    assert sigma(closed_torus) == 0


def test_disk_boundary_cycle(disk):
    g = extract_reeb(disk, samples=8)
    cycles = boundary_cycles(g)
    assert len(cycles) == 1
    (e,) = g.edges
    assert cycles[0].edges == (e.id, e.id)


def test_each_dashed_edge_used_twice(fig2, fig4a, fig4b):
    for g in (fig2, fig4a, fig4b):
        count = {}
        for c in boundary_cycles(g):
            for eid in c.edges:
                count[eid] = count.get(eid, 0) + 1
        assert count == {e.id: 2 for e in g.dashed_edges()}


def test_homology_dims_paper_values(fig2, fig4a, closed_torus):
    d2 = homology_dims(fig2)
    assert (d2.h1_dashed, d2.h1_rel, d2.h1_gamma) == (0, 1, 1)
    d4 = homology_dims(fig4a)
    assert d4.h1_gamma == 2
    assert (d4.h1_dashed, d4.h1_rel) == (2, 0)
    dt = homology_dims(closed_torus)
    assert (dt.h1_gamma, dt.h1_rel, dt.h0_dashed) == (1, 1, 0)


def test_orbit_moduli_dimensions(fig2, fig4a):
    assert orbit_moduli_dimension(fig2) == 1
    assert orbit_moduli_dimension(fig4a) == 2


def test_solid_tree_homology(sphere):
    g = extract_reeb(sphere, samples=8)
    dims = homology_dims(g)
    assert (dims.h1_gamma, dims.h1_dashed, dims.h1_rel, dims.h0_dashed) == (0, 0, 0, 0)
    assert dims.h0_solid == 1 and dims.h0_intersection == 0


def test_genus_realize(fig2, fig4a, fig4b):
    assert genus(fig2) == 1
    assert genus(fig4a) == 0
    assert genus(fig4b) == 1


def test_genus_formula_discrepancies(fig2, fig4a, fig4b):
    assert genus_formula_value(fig2) == 4.5
    with pytest.raises(NonIntegerFormulaValue):
        genus(fig2, method="formula")
    assert genus(fig4a, method="formula") == 1  # one too large
    assert genus(fig4b, method="formula") == 2  # one too large


def test_compatibility(fig2, torus_with_hole):
    t = topology_summary(torus_with_hole)
    g = extract_reeb(torus_with_hole, samples=8)
    res = compatibility(g, t)
    assert res.compatible
    scaled = MeasuredReebGraph(
        [v for v in g.vertices],
        [type(e)(e.id, e.tail, e.head, e.style, type(e.profile)(e.profile.f_lo, e.profile.f_hi, e.profile.cumulative * 1.01)) for e in g.edges],
        dict(g.cyclic_orders),
    )
    res2 = compatibility(scaled, t)
    assert not res2.compatible and "total_measure" in res2.failures


def test_fig4a_incompatible_with_torus(fig4a, fig2):
    # a graph of a disk with two holes cannot live on a torus with one hole
    from reeb_orbit.realization import surface_of

    t = surface_of(fig2)
    res = compatibility(fig4a, t)
    assert not res.compatible
    assert "genus" in res.failures and "boundary_components" in res.failures


def test_boundary_cycles_independent_of_labels(fig4a):
    # relabeling vertices and edges permutes the cycles consistently
    vmap = {v.id: v.id + 10 for v in fig4a.vertices}
    emap = {e.id: e.id + 20 for e in fig4a.edges}
    g2 = MeasuredReebGraph(
        [type(v)(vmap[v.id], v.f, v.vtype, v.orientation) for v in fig4a.vertices],
        [
            type(e)(emap[e.id], vmap[e.tail], vmap[e.head], e.style, e.profile)
            for e in fig4a.edges
        ],
        {vmap[v]: tuple(emap[x] for x in order) for v, order in fig4a.cyclic_orders.items()},
    )
    got = {tuple(emap[x] for x in c.edges) for c in boundary_cycles(fig4a)}
    want = {c.edges for c in boundary_cycles(g2)}
    assert {frozenset(c) for c in got} == {frozenset(c) for c in want}
    assert sigma(g2) == sigma(fig4a)


def _genus_corpus():
    from tests.test_equivalence import height_graph

    from reeb_orbit.fixtures import closed_torus_graph, fig4a_graph, fig4b_graph
    from reeb_orbit.fuzz import random_measured_graph

    for build in (fig2_graph, fig4a_graph, fig4b_graph, closed_torus_graph):
        yield build.__name__, build()
    for k in range(6, 13):
        yield f"height{k}", height_graph(k)
    for max_events in (10, 30):
        for seed in range(50):
            yield f"fuzz{seed}/{max_events}", random_measured_graph(seed, max_events=max_events)


def test_handle_count_equals_realized_genus():
    for name, g in _genus_corpus():
        assert genus(g, method="handles") == genus(g, method="realize"), name

