import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import scipy.sparse.linalg

import reeb_orbit as ro
from reeb_orbit import linalg
from reeb_orbit.circulation import (
    CirculationFunction,
    DiscreteOneForm,
    XiClass,
    augment,
    check_circulation,
    circulation_from_form,
    dashed_cycle_basis,
    edge_moment,
    exact_form,
    lift_dashed_graph,
    solve_circulations,
    synthesize_form,
    total_moment,
    vorticity,
    xi_class,
)
from reeb_orbit.fixtures import closed_torus_graph, fig2_graph, fig4a_graph, fig4b_graph
from reeb_orbit.fuzz import random_measured_graph
from reeb_orbit.reebgraph import MeasureProfile, MeasuredReebGraph, ProfileTable, ReebEdge, ReebVertex
from reeb_orbit.serialize import dumps, graph_to_dict, load_graph


def uniform_edge(lo, hi, mass, samples=16):
    u = np.linspace(0.0, 1.0, samples + 1)
    return MeasureProfile(lo, hi, u * mass)


def test_edge_moment_uniform_density():
    g = MeasuredReebGraph(
        [ReebVertex(1, 0.0, "VII"), ReebVertex(2, 1.0, "VII", "f-reversed")],
        [ReebEdge(1, 1, 2, "solid", uniform_edge(0.0, 1.0, 1.0))],
    )
    assert edge_moment(g, 1) == pytest.approx(0.5, rel=1e-12)


def test_edge_moment_odd_symmetry():
    g = MeasuredReebGraph(
        [ReebVertex(1, -1.0, "VII"), ReebVertex(2, 1.0, "VII", "f-reversed")],
        [ReebEdge(1, 1, 2, "solid", uniform_edge(-1.0, 1.0, 2.0))],
    )
    assert edge_moment(g, 1) == pytest.approx(0.0, abs=1e-12)


def test_edge_moment_against_mesh_quadrature(torus_with_hole):
    # the slab-midpoint oracle recomputed from the mesh agrees with the
    # trapezoid moment on the sampled profile
    g = ro.extract_reeb(torus_with_hole, samples=48)
    ctx = g.context
    e = g.edge(1)
    tris = sorted({t for _, band_tris in ctx.edge_triangles(e.id) for t in band_tris})
    grid = e.profile.grid()
    oracle = 0.0
    from tests.test_extraction import reference_band_area

    for a, b in zip(grid, grid[1:]):
        oracle += 0.5 * (a + b) * reference_band_area(torus_with_hole, tris, a, b)
    assert edge_moment(g, e) == pytest.approx(oracle, rel=1e-6)


def test_kirchhoff_residuals():
    # a merge vertex with incoming limits 2 and 3 balances an outgoing 5
    vertices = [
        ReebVertex(1, 0.0, "VII"),
        ReebVertex(2, 0.5, "VII"),
        ReebVertex(3, 1.0, "VI"),
        ReebVertex(4, 2.0, "VII", "f-reversed"),
    ]
    edges = [
        ReebEdge(1, 1, 3, "solid", uniform_edge(0.0, 1.0, 1.0)),
        ReebEdge(2, 2, 3, "solid", uniform_edge(0.5, 1.0, 1.0)),
        ReebEdge(3, 3, 4, "solid", uniform_edge(1.0, 2.0, 1.0)),
    ]
    g = MeasuredReebGraph(vertices, edges)
    m1, m2, m3 = (edge_moment(g, i) for i in (1, 2, 3))
    good = CirculationFunction({1: (2 - m1, 2.0), 2: (3 - m2, 3.0), 3: (5.0, 5.0 + m3)})
    chk = check_circulation(g, good, tol=1e-9)
    assert chk.kirchhoff[3] == pytest.approx(0.0, abs=1e-12)
    bad = CirculationFunction({1: (2 - m1, 2.0), 2: (3 - m2, 3.0), 3: (4.0, 4.0 + m3)})
    chk2 = check_circulation(bad and g, bad, tol=1e-9)
    assert chk2.kirchhoff[3] == pytest.approx(1.0, rel=1e-12)
    assert not chk2.ok


def test_solve_fig2(fig2):
    res = solve_circulations(fig2)
    assert res.exists
    assert len(res.basis) == 1
    assert check_circulation(fig2, res.particular).ok
    shifted = res.particular.shifted(res.basis[0], 2.5)
    assert check_circulation(fig2, shifted).ok


def test_solve_fig4a_trivial(fig4a):
    res = solve_circulations(fig4a)
    assert res.exists
    assert res.particular.limits == {}
    assert res.basis == []


def test_solve_closed_torus(closed_torus):
    res = solve_circulations(closed_torus)
    assert res.exists and len(res.basis) == 1
    bad = closed_torus_graph(total_moment_shift=0.3)
    res2 = solve_circulations(bad)
    assert not res2.exists
    assert res2.violated_moment == pytest.approx(0.3, rel=1e-9)


def test_solve_dimension_matches_homology(fig2, closed_torus):
    for g in (fig2, closed_torus):
        res = solve_circulations(g)
        assert len(res.basis) == ro.homology_dims(g).h1_rel


def test_vorticity_exact_form_vanishes(cylinder):
    pot = np.array([0.1 * (i % 13) for i in range(len(cylinder.vertex_ids))])
    a = exact_form(cylinder, pot)
    assert np.abs(vorticity(cylinder, a)).max() < 1e-10


def test_vorticity_linear(cylinder):
    vals = 0.01 * (cylinder.edge_rows[:, 0] - cylinder.edge_rows[:, 1])
    a = DiscreteOneForm(cylinder, vals)
    v1 = vorticity(cylinder, a)
    v2 = vorticity(cylinder, a.scaled(2.0))
    assert np.allclose(v2, 2.0 * v1)


def test_circulation_of_exact_form_vanishes(cylinder):
    g = ro.extract_reeb(cylinder, samples=16)
    pot = np.array([0.05 * (i % 7) for i in range(len(cylinder.vertex_ids))])
    a = exact_form(cylinder, pot)
    e = next(e for e in g.edges if e.style == "solid")
    for frac in (0.3, 0.55, 0.8):
        x = e.profile.f_lo + frac * (e.profile.f_hi - e.profile.f_lo)
        assert circulation_from_form(cylinder, a, g, (e.id, x)) == pytest.approx(0.0, abs=1e-12)


def test_level_on_vertex_raises(cylinder):
    g = ro.extract_reeb(cylinder, samples=16)
    e = next(e for e in g.edges if e.style == "solid")
    value = float(cylinder.f[len(cylinder.f) // 2])
    if e.profile.f_lo < value < e.profile.f_hi:
        with pytest.raises(ro.LevelOnVertex):
            circulation_from_form(
                cylinder, DiscreteOneForm(cylinder, np.zeros(len(cylinder.edge_rows))), g, (e.id, value)
            )


def _newton_leibniz_gap(surface):
    g = ro.extract_reeb(surface, samples=32)
    sol = solve_circulations(g)
    a = synthesize_form(surface, g, sol.particular, XiClass(dashed_cycle_basis(g), np.zeros(0)))
    e = next(e for e in g.edges if e.style == "solid")
    lo, hi = e.profile.f_lo, e.profile.f_hi
    x, y = lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)
    c1 = circulation_from_form(surface, a, g, (e.id, x))
    c2 = circulation_from_form(surface, a, g, (e.id, y))
    from tests.test_extraction import reference_band_moment

    gap_exact = abs((c2 - c1) - reference_band_moment(surface, range(len(surface.triangles)), x, y))
    gap_profile = abs((c2 - c1) - e.profile.partial_moment(x, y))
    return max(gap_exact, gap_profile)


def test_newton_leibniz_gap_within_tolerance_and_shrinking():
    # the circulation difference matches both the exact strip moment and the
    # profile moment within the quadrature tolerance, improving under
    # refinement (the structured mesh cancels the leading clipping error)
    from reeb_orbit.models import tilted_cylinder_mesh

    coarse = _newton_leibniz_gap(tilted_cylinder_mesh(sectors=32, levels=20))
    fine = _newton_leibniz_gap(tilted_cylinder_mesh(sectors=64, levels=40))
    assert coarse < 1e-6
    assert fine < 1e-6
    assert fine < coarse


def test_constant_circumference_form_on_cylinder(cylinder):
    # a form worth c per unit length around each level circle integrates to
    # c times the circumference (the flat cylinder has circumference 1)
    g = ro.extract_reeb(cylinder, samples=16)
    c = 1.7
    vals = []
    for u, v in cylinder.edge_rows[:, :2].tolist():
        du = cylinder.xy[v, 0] - cylinder.xy[u, 0]
        if du > 0.5:
            du -= 1.0
        elif du < -0.5:
            du += 1.0
        vals.append(c * du)
    a = DiscreteOneForm(cylinder, np.array(vals))
    assert np.abs(vorticity(cylinder, a)).max() < 1e-9
    e = next(e for e in g.edges if e.style == "solid")
    lo, hi = e.profile.f_lo, e.profile.f_hi
    got = {
        circulation_from_form(cylinder, a, g, (e.id, lo + t * (hi - lo)))
        for t in (0.2, 0.5, 0.8)
    }
    for val in got:
        assert abs(val) == pytest.approx(c, rel=1e-9)
    assert max(got) - min(got) < 1e-9  # constant along the edge


def test_disk_lift_is_one_boundary_arc(disk):
    # single dashed edge: the lift is one side arc of the boundary spanning
    # the full field range, oriented with increasing field
    g = ro.extract_reeb(disk, samples=8)
    lifted = lift_dashed_graph(disk, g)
    (arc,) = lifted.edges.values()
    assert lifted.trees == {}
    boundary = {(min(u, v), max(u, v)) for chain in disk.boundary_polygons for u, v in chain}
    fs = []
    for (u, v), s0, s1 in arc.pieces:
        assert (min(u, v), max(u, v)) in boundary
        assert s0 < s1 or len(arc.pieces) == 1
        fs.append((1 - s0) * disk.f[u] + s0 * disk.f[v])
        fs.append((1 - s1) * disk.f[u] + s1 * disk.f[v])
    assert fs == sorted(fs)  # ascending in field
    lo, hi = g.f_range()
    assert fs[0] == pytest.approx(lo, abs=1e-12)
    assert fs[-1] == pytest.approx(hi, abs=1e-12)


def test_fig4a_hole_circulations(fig4a):
    # prescribing coordinates (1, 2) on the two hole cycles of the disk with
    # two holes and reading them back
    surf = ro.realize(fig4a, resolution=8).surface
    g = ro.extract_reeb(surf, samples=fig4a.edges[0].profile.samples)
    basis = dashed_cycle_basis(g)
    assert len(basis) == 2
    target = XiClass(basis, np.array([1.0, 2.0]))
    a = synthesize_form(surf, g, CirculationFunction({}), target)
    xi = xi_class(surf, a, g)
    assert np.allclose(xi.coords, [1.0, 2.0], atol=1e-9)


def test_synthesis_on_reloaded_graph_extracts_once(monkeypatch):
    # a graph loaded from JSON is checked against one run of the extraction's
    # witness step, without its profiles, and the context then stays attached
    # for every later step of the synthesis
    from reeb_orbit import extraction
    from reeb_orbit.models import torus_with_hole_mesh
    from reeb_orbit.serialize import graph_from_dict, graph_to_dict

    surf = torus_with_hole_mesh()
    g = graph_from_dict(graph_to_dict(ro.extract_reeb(surf, samples=16)))
    calls = {"_witness": 0, "extract_reeb": 0}

    def counting(name):
        original = getattr(extraction, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(extraction, name, counting(name))
    basis = dashed_cycle_basis(g)
    synthesize_form(
        surf, g, solve_circulations(g).particular, XiClass(basis, np.zeros(len(basis)))
    )
    assert calls == {"_witness": 1, "extract_reeb": 0}


def test_disk_zero_target_synthesis(disk):
    # nothing to tune on a disk: the synthesized form just carries the field
    # as its vorticity
    g = ro.extract_reeb(disk, samples=8)
    a = synthesize_form(disk, g, CirculationFunction({}), XiClass([], np.zeros(0)))
    curl = vorticity(disk, a)
    fbar = np.array([disk.f[list(t)].mean() for t in disk.triangles])
    assert np.sqrt(np.mean((curl - fbar) ** 2)) < 1e-8


def test_orbit_dimension_equals_h1_for_connected_dashed():
    from reeb_orbit.fuzz import random_measured_graph
    from reeb_orbit.graph_core import homology_dims, orbit_moduli_dimension

    checked = 0
    for seed in range(120):
        g = random_measured_graph(seed)
        dims = homology_dims(g)
        if dims.h0_dashed == 1:
            assert orbit_moduli_dimension(g) == dims.h1_gamma
            checked += 1
    assert checked >= 20


def test_xi_angle_form(annulus):
    g = ro.extract_reeb(annulus, samples=16)
    vals = []
    for u, v in annulus.edge_rows[:, :2].tolist():
        du = math.atan2(annulus.xy[v, 1], annulus.xy[v, 0]) - math.atan2(
            annulus.xy[u, 1], annulus.xy[u, 0]
        )
        while du > math.pi:
            du -= 2 * math.pi
        while du < -math.pi:
            du += 2 * math.pi
        vals.append(du)
    a = DiscreteOneForm(annulus, np.array(vals))
    xi = xi_class(annulus, a, g)
    assert len(xi.coords) == 1
    assert abs(xi.coords[0]) == pytest.approx(2 * math.pi, rel=1e-12)
    pot = np.array([0.02 * (i % 17) for i in range(len(annulus.vertex_ids))])
    xi2 = xi_class(annulus, a.plus(exact_form(annulus, pot)), g)
    assert np.allclose(xi.coords, xi2.coords, atol=1e-12)
    xi0 = xi_class(annulus, exact_form(annulus, pot), g)
    assert np.abs(xi0.coords).max() < 1e-12


def test_lifted_graph_homotopy_type(annulus, torus_with_hole):
    # contracting the singular trees leaves one cycle per dashed cycle
    for s in (annulus, torus_with_hole):
        g = ro.extract_reeb(s, samples=8)
        lifted = lift_dashed_graph(s, g)
        nodes = set()
        edge_count = 0
        tree_of = {}
        for vid, tree in lifted.trees.items():
            for x, y, _ in tree.edges:
                tree_of[x] = tree_of[y] = ("tree", vid)
        for arc in lifted.edges.values():
            for node in (arc.start_node, arc.end_node):
                nodes.add(tree_of.get(node, node))
            edge_count += 1
        n_vertices = len(nodes)
        h1 = edge_count - n_vertices + 1  # lifted graph is connected here
        assert h1 == ro.homology_dims(g).h1_dashed


def test_synthesize_roundtrip_fig2(fig2):
    surf = ro.realize(fig2, resolution=8).surface
    g = ro.extract_reeb(surf, samples=16)
    sol = solve_circulations(g)
    target = sol.particular.shifted(sol.basis[0], 0.4)
    xi0 = XiClass(dashed_cycle_basis(g), np.zeros(0))
    a = synthesize_form(surf, g, target, xi0)
    aug = augment(surf, a, g)
    for eid, (t0, h0) in target.limits.items():
        t1, h1 = aug.circulation.limits[eid]
        assert abs(t0 - t1) < 1e-9 and abs(h0 - h1) < 1e-9
    # vorticity tracks the field mean per triangle
    curl = vorticity(surf, a)
    fbar = np.array([surf.f[list(t)].mean() for t in surf.triangles])
    rel = np.sqrt(np.mean((curl - fbar) ** 2)) / np.sqrt(np.mean(fbar**2))
    assert rel < 5e-3


def test_synthesize_infeasible_closed(closed_torus):
    surf = ro.realize(closed_torus_graph(total_moment_shift=0.4), resolution=6).surface
    g = ro.extract_reeb(surf, samples=16)
    assert abs(total_moment(g) - 0.4) < 1e-9
    target = CirculationFunction({e.id: (0.0, 0.0) for e in g.solid_edges()})
    with pytest.raises(ro.InfeasibleTarget):
        synthesize_form(surf, g, target, XiClass([], np.zeros(0)))


def test_synthesize_rejects_bad_circulation(fig2):
    surf = ro.realize(fig2, resolution=6).surface
    g = ro.extract_reeb(surf, samples=8)
    bad = CirculationFunction({e.id: (0.0, 0.0) for e in g.solid_edges()})
    with pytest.raises(ro.InfeasibleTarget):
        synthesize_form(surf, g, bad, XiClass(dashed_cycle_basis(g), np.zeros(0)))


def _zero_targets(g):
    basis = dashed_cycle_basis(g)
    return solve_circulations(g).particular, XiClass(basis, np.zeros(len(basis)))


def test_synthesis_reads_probe_levels_from_the_context(monkeypatch):
    # the attached context already holds every probe circle, and the solve is
    # checked on its own constraint rows
    from reeb_orbit import circulation, extraction
    from reeb_orbit.models import torus_with_hole_mesh

    surf = torus_with_hole_mesh()
    g = ro.extract_reeb(surf, samples=16)

    def forbidden(*args, **kwargs):
        raise AssertionError("synthesis re-derived what the context holds")

    monkeypatch.setattr(circulation, "trace_level", forbidden)
    monkeypatch.setattr(extraction, "trace_levels", forbidden)
    monkeypatch.setattr(circulation, "augment", forbidden)
    synthesize_form(surf, g, *_zero_targets(g))


def reference_singular_component(edges, root):
    """Nodes and edges of the level-graph component containing root, by an
    adjacency list and a depth-first search."""
    adj = {}
    for idx, (x, y, _) in enumerate(edges):
        adj.setdefault(x, []).append(idx)
        adj.setdefault(y, []).append(idx)
    seen_nodes = {root}
    seen_edges = set()
    stack = [root]
    while stack:
        cur = stack.pop()
        for idx in adj.get(cur, []):
            if idx in seen_edges:
                continue
            seen_edges.add(idx)
            x, y, _ = edges[idx]
            for nxt in (x, y):
                if nxt not in seen_nodes:
                    seen_nodes.add(nxt)
                    stack.append(nxt)
    return sorted(seen_nodes, key=repr), [edges[idx] for idx in sorted(seen_edges)]


def test_singular_trees_match_depth_first_reference(torus_with_hole):
    from reeb_orbit import circulation
    from reeb_orbit.extraction import ensure_context

    surfaces = [torus_with_hole] + [
        ro.realize(random_measured_graph(seed, max_events=6), resolution=4).surface
        for seed in (30001, 30004, 30006)
    ]
    trees = pruned = 0
    for s in surfaces:
        g = ro.extract_reeb(s, samples=8)
        ctx = ensure_context(s, g)
        for v in g.vertices:
            if v.vtype in ("II", "IV"):
                root, edges = circulation._level_graph(s, ctx, v.id)
                tree = circulation._singular_tree(s, ctx, v.id)
                nodes = {node for x, y, _ in tree.edges for node in (x, y)}
                assert (sorted(nodes, key=repr), tree.edges) == reference_singular_component(edges, root)
                trees += 1
                pruned += len(tree.edges) < len(edges)
    # half of them drop a second level component
    assert trees == 8 and pruned >= 2


def test_synthesis_lifts_the_dashed_graph_once(monkeypatch):
    from reeb_orbit import circulation
    from reeb_orbit.fuzz import random_measured_graph

    surf = ro.realize(random_measured_graph(30014, max_events=6), resolution=4).surface
    g = ro.extract_reeb(surf, samples=16)
    assert dashed_cycle_basis(g)
    calls = []
    original = circulation.lift_dashed_graph

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(circulation, "lift_dashed_graph", counting)
    synthesize_form(surf, g, *_zero_targets(g))
    assert len(calls) == 1


def _wrong_solution(monkeypatch):
    # synthesize_form looks dual_tree_solve up on the module at call time
    from reeb_orbit import circulation

    monkeypatch.setattr(circulation, "dual_tree_solve", lambda s, *args: np.zeros(len(s.edge_rows)))


def test_synthesis_check_catches_a_missed_circulation(monkeypatch, torus_with_hole):
    g = ro.extract_reeb(torus_with_hole, samples=16)
    target, xi = _zero_targets(g)
    _wrong_solution(monkeypatch)
    with pytest.raises(ro.InfeasibleTarget, match="circulation target on edge"):
        synthesize_form(torus_with_hole, g, target, xi)


def test_synthesis_check_catches_a_missed_cycle_coordinate(monkeypatch, annulus):
    g = ro.extract_reeb(annulus, samples=16)
    assert not g.solid_edges()
    _wrong_solution(monkeypatch)
    with pytest.raises(ro.InfeasibleTarget, match="cycle coordinate targets not met"):
        synthesize_form(annulus, g, CirculationFunction({}), XiClass(dashed_cycle_basis(g), [1.0]))


def test_synthesis_refuses_an_overflowing_scale(torus_with_hole):
    # the post-solve check is relative to total mass times the field range
    from reeb_orbit import serialize

    g = ro.extract_reeb(torus_with_hole, samples=16)
    doc = serialize.graph_to_dict(g)
    top = max(abs(v["f"]) for v in doc["vertices"])
    for v in doc["vertices"]:
        v["f"] *= 1e308 / top
    big = serialize.graph_from_dict(doc)
    with pytest.raises(ro.DataError, match="times field range .* is not finite"):
        synthesize_form(torus_with_hole, big, *_zero_targets(g))


@pytest.mark.parametrize("case", ["annulus", "closed_torus"])
def test_dual_tree_peel_inverts_the_curl_and_path_sums_are_its_adjoint(request, case):
    from reeb_orbit.dualtree import dual_tree

    if case == "closed_torus":
        surf = ro.realize(request.getfixturevalue(case), resolution=6).surface
    else:
        surf = request.getfixturevalue(case)
    tree = dual_tree(surf)
    ne, nt = len(surf.edge_rows), len(surf.triangles)
    closed = not surf.boundary_polygons
    # one tree edge per triangle but the root, each edge once
    assert len(tree.node) == nt - closed and len(set(tree.edge.tolist())) == len(tree.edge)
    rng = np.random.default_rng(3)
    y = rng.normal(size=nt)
    if closed:
        y -= y.mean()
    x = tree.peel(y, ne)
    assert np.max(np.abs(vorticity(surf, DiscreteOneForm(surf, x)) * surf.areas - y)) <= 1e-12
    assert not np.delete(x, tree.edge).any()
    w = rng.normal(size=(2, ne))
    a = tree.path_sums(w, nt)
    assert np.max(np.abs(a @ y - w @ x)) <= 1e-12 * np.max(np.abs(w @ x))


def reference_kkt_solution(s, m, con_rows, con_rhs):
    """The cochain of the KKT system of min |D x - m|^2 + ridge |x|^2 subject to
    the constraint rows, by sparse products, block stacks and SuperLU; D is the
    triangle-by-edge side-sign matrix."""
    from reeb_orbit.dualtree import side_signs

    ne, nt, nc = len(s.edge_rows), len(s.triangles), len(con_rows)
    D = scipy.sparse.csr_matrix(
        (side_signs(s), (np.repeat(np.arange(nt), 3), s.edge_of)), shape=(nt, ne)
    )
    ci, cj, cx = [], [], []
    for r, coeffs in enumerate(con_rows):
        for k, w in sorted(coeffs.items()):
            ci.append(r)
            cj.append(k)
            cx.append(w)
    C = scipy.sparse.csr_matrix((cx, (ci, cj)), shape=(nc, ne))
    ridge = 1e-10 * max(1.0, float(np.max(np.abs(m))))
    kkt = scipy.sparse.vstack([
        scipy.sparse.hstack([D.T @ D + ridge * scipy.sparse.identity(ne), C.T]),
        scipy.sparse.hstack([C, scipy.sparse.csr_matrix((nc, nc))]),
    ]).tocsc()
    return scipy.sparse.linalg.spsolve(kkt, np.concatenate([D.T @ m, np.array(con_rhs)]))[:ne], D


@pytest.mark.parametrize("case", ["disk", "annulus", "torus_with_hole", "closed_torus"])
def test_dual_tree_solve_matches_the_kkt_solution(monkeypatch, request, case):
    # the tree solve meets every constraint row and gives the curl of the
    # ridge-regularized KKT solution, up to the ridge
    from reeb_orbit import circulation

    if case == "closed_torus":
        surf = ro.realize(request.getfixturevalue(case), resolution=6).surface
    else:
        surf = request.getfixturevalue(case)
    g = ro.extract_reeb(surf, samples=16)
    seen = []
    original = circulation.dual_tree_solve
    monkeypatch.setattr(circulation, "dual_tree_solve", lambda *args: seen.append(args) or original(*args))
    basis = dashed_cycle_basis(g)
    coords = np.linspace(-1.5, 2.0, len(basis))
    form = synthesize_form(surf, g, solve_circulations(g).particular, XiClass(basis, coords))
    ((s, m, rows, rhs),) = seen
    assert np.max(np.abs(m)) > 0.0 and len(rows) == len(g.solid_edges()) + len(basis)
    lo, hi = g.f_range()
    scale = max(1.0, g.total_mass * max(1.0, hi - lo))
    for coeffs, want in zip(rows, rhs):
        got = math.fsum(w * form.values[k] for k, w in coeffs.items())
        assert abs(got - want) <= 1e-12 * scale
    reference, D = reference_kkt_solution(s, m, rows, rhs)
    curl = vorticity(s, form) * s.areas
    # the KKT curl moves from the minimizer in proportion to its ridge,
    # 1e-10 * max(1, max|m|)
    assert np.max(np.abs(curl - D @ reference)) <= 1e-8 * max(1.0, np.max(np.abs(m)))


# -- graph-side kernels against their rational and per-point references ---------------


def reference_nullspace(rows, ncols):
    """Kernel by exact rational row reduction: one vector per free column."""
    mat, pivots = linalg.rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def reference_partial_moment(p, a, b):
    """Moment over [a, b] with the grid rebuilt for every interpolated stop."""

    def value_at(x):
        return float(np.interp(x, np.linspace(p.f_lo, p.f_hi, len(p.cumulative)), p.cumulative))

    grid = np.linspace(p.f_lo, p.f_hi, len(p.cumulative))
    stops = [a] + [float(g) for g in grid if a < g < b] + [b]
    parts = []
    prev_x, prev_c = stops[0], value_at(stops[0])
    for x in stops[1:]:
        c = value_at(x)
        parts.append(0.5 * (x + prev_x) * (c - prev_c))
        prev_x, prev_c = x, c
    return float(math.fsum(parts))


def _corpus():
    graphs = [fig2_graph(), fig4a_graph(), fig4b_graph(), closed_torus_graph()]
    for max_events in (8, 20):
        graphs += [random_measured_graph(seed, max_events=max_events) for seed in range(100)]
    return graphs


def kirchhoff_rows(g):
    """Kirchhoff rows in the tail limits, one per vertex that touches no
    dashed edge: +1 on the solid edges arriving there, -1 on those leaving,
    with columns in solid edge id order."""
    solids = sorted(e.id for e in g.solid_edges())
    col = {eid: i for i, eid in enumerate(solids)}
    grounded = {v for e in g.dashed_edges() for v in (e.tail, e.head)}
    rows = []
    for v in g.vertices:
        if v.id not in grounded:
            row = [0] * len(solids)
            for e in g.edges:
                if v.id in (e.tail, e.head):
                    row[col[e.id]] += (e.head == v.id) - (e.tail == v.id)
            rows.append(row)
    return rows, solids


def test_forest_nullspace_matches_rational_elimination():
    systems = empty = 0
    for g in _corpus():
        res = solve_circulations(g)
        if not res.exists:
            continue
        rows, solids = kirchhoff_rows(g)
        assert all(t == h for b in res.basis for t, h in b.limits.values())
        got = [[b.limits[eid][0] for eid in solids] for b in res.basis]
        assert got == reference_nullspace(rows, len(solids))
        systems += 1
        empty += not rows
    assert systems > 150 and 0 < empty < systems


def test_particular_solution_calls_no_least_squares(monkeypatch):
    # the particular comes from peeling the spanning forest, so it cannot
    # depend on the LAPACK kernel
    def no_lstsq(*args, **kwargs):
        raise AssertionError("circulation solving must not call lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    solved = 0
    for g in _corpus():
        res = solve_circulations(g)
        if res.exists:
            lo, hi = g.f_range()
            scale = max(1.0, g.total_mass * max(1.0, hi - lo))
            assert check_circulation(g, res.particular, tol=1e-12 * scale).ok
            solved += 1
    assert solved > 150


def test_partial_moment_matches_per_point_reference():
    rng = np.random.default_rng(7)
    for g in _corpus()[:60]:
        for e in g.edges:
            p = e.profile
            want = reference_partial_moment(p, p.f_lo, p.f_hi)
            assert edge_moment(g, e) == want
            assert p.partial_moment(p.f_lo, p.f_hi) == want
            grid = p.grid()
            for a, b in (
                sorted(rng.uniform(p.f_lo, p.f_hi, 2)),
                (float(grid[1]), float(grid[-2])),
                (p.f_lo, float(rng.uniform(p.f_lo, p.f_hi))),
                (float(grid[1]), float(grid[1])),
            ):
                assert p.partial_moment(a, b) == reference_partial_moment(p, a, b)



def linspace_moment(p):
    """The per-edge moment the profile table replaced: slab midpoints on the
    edge's own ``np.linspace`` grid times the slab increments."""
    x = np.linspace(p.f_lo, p.f_hi, len(p.cumulative))
    with np.errstate(invalid="ignore"):
        return math.fsum((0.5 * (x[1:] + x[:-1]) * np.diff(p.cumulative)).tolist())


@st.composite
def table_profiles(draw):
    """A profile of 0 to 9 samples, valid or not: a range that may be
    subnormal (a zero linspace step), empty or decreasing, and a non-finite
    or out-of-order value at the first, the last or an interior sample."""
    n = draw(st.integers(0, 9))
    lo = draw(st.sampled_from([0.0, 5e-324, -3.25]) | st.floats(-1e6, 1e6))
    span = draw(st.sampled_from([5e-324, 1.5e-323, 0.0, -1.0]) | st.floats(1e-6, 1e6))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    cum = np.concatenate(([0.0], np.cumsum(steps)))[:n]
    if n and draw(st.booleans()):
        at = draw(st.sampled_from([0, n - 1, n // 2]))  # n // 2 is interior from n = 3
        cum[at] = draw(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1.0]))
    return MeasureProfile(lo, lo + span, cum)


def _verdict(p):
    try:
        p.check()
    except ro.ReebOrbitError:
        return True
    return False


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(table_profiles(), min_size=1, max_size=6))
def test_profile_table_kernels_match_the_per_profile_references(profiles):
    table = ProfileTable(profiles)
    assert table.screen().tolist() == [_verdict(p) for p in profiles]
    want = []
    for p in profiles:
        try:
            want.append(linspace_moment(p) if len(p.cumulative) > 1 else 0.0)
        except ValueError:  # inf - inf in math.fsum, for the table as for one profile
            with pytest.raises(ValueError):
                table.moments()
            return
    got = table.moments()
    assert [m.hex() for m in got] == [m.hex() for m in want]
    for p, moment in zip(profiles, got):
        grid = p.grid()
        # reference_partial_moment interpolates at distinct stops, so it is
        # the moment only where the grid ascends strictly: a zero step repeats
        # grid points
        if len(grid) > 1 and np.all(np.diff(grid) > 0) and np.isfinite(p.cumulative).all():
            assert moment == reference_partial_moment(p, p.f_lo, p.f_hi)


def test_built_and_loaded_graphs_share_their_profile_tables(torus_with_hole):
    graphs = [ro.extract_reeb(torus_with_hole, 16),
              ro.extract_reeb(ro.realize(fig4a_graph(), resolution=6).surface, 8)]
    graphs += [random_measured_graph(seed, max_events=12, samples=s)
               for seed, s in ((3, 4), (8, 16), (21, 32))]
    for g in graphs:
        back = load_graph(dumps(graph_to_dict(g)))
        assert back.edge_moments == g.edge_moments
        assert [e.id for e in back.edges] == list(g.edge_moments)
        assert back.profile_table.screen().tolist() == g.profile_table.screen().tolist()


def _level_shifted(g, d):
    vertices = [ReebVertex(v.id, v.f + d, v.vtype, v.orientation) for v in g.vertices]
    edges = [
        ReebEdge(e.id, e.tail, e.head, e.style,
                 MeasureProfile(e.profile.f_lo + d, e.profile.f_hi + d, e.profile.cumulative))
        for e in g.edges
    ]
    return MeasuredReebGraph(vertices, edges, g.cyclic_orders)


def test_large_closed_graph_solves_by_counting(monkeypatch):
    from tests.test_equivalence import height_graph

    g = height_graph(150)
    g = _level_shifted(g, -total_moment(g) / g.total_mass)
    assert len(g.solid_edges()) >= 450

    def no_elimination(*args):
        raise AssertionError("circulation solving must not row-reduce")

    linspace_calls = []
    linspace = np.linspace

    def counting_linspace(*args, **kwargs):
        linspace_calls.append(args)
        return linspace(*args, **kwargs)

    monkeypatch.setattr(linalg, "rref", no_elimination)
    monkeypatch.setattr(np, "linspace", counting_linspace)
    res = solve_circulations(g)
    assert len(linspace_calls) <= 2 * len(g.edges)
    assert res.exists
    assert len(res.basis) == ro.homology_dims(g).h1_rel == 150


def test_solid_moments_integrate_only_solid_profiles():
    from pathlib import Path

    from reeb_orbit.circulation import _finite_moments

    data = Path(__file__).resolve().parents[1] / "src" / "reeb_orbit" / "data"
    graphs = [load_graph((data / f"{name}.json").read_text())
              for name in ("closed_torus", "fig2", "fig4a", "fig4b")]
    for g in graphs + _corpus():
        moments = _finite_moments(g)
        # edge_moments, a cached property, integrates every edge and has not run
        assert "edge_moments" not in vars(g)
        want = {e.id: g.edge_moments[e.id].hex() for e in g.solid_edges()}
        assert {eid: m.hex() for eid, m in moments.items()} == want
