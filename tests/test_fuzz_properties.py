"""Property-based suites over randomly generated measured Reeb graphs."""

import copy
import hashlib
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reeb_orbit as ro
from reeb_orbit.circulation import check_circulation, solve_circulations, total_moment
from reeb_orbit.fuzz import random_measured_graph
from reeb_orbit.graph_core import boundary_cycles, homology_dims, sigma
from reeb_orbit.fixtures import fig2_graph, fig4a_graph, fig4b_graph
from reeb_orbit.serialize import graph_to_dict
from reeb_orbit.reebgraph import (
    _INCIDENCE,
    AS_IN_TABLE,
    F_REVERSED,
    VERTEX_TYPES,
    MeasuredReebGraph,
    MeasureProfile,
    ReebEdge,
    ReebVertex,
)

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10**6)


@given(seeds)
@PROPERTY_SETTINGS
def test_generated_graphs_are_valid(seed):
    g = random_measured_graph(seed)
    g.validate()


@given(seeds)
@PROPERTY_SETTINGS
def test_homology_pair_identity(seed):
    g = random_measured_graph(seed)
    dims = homology_dims(g)
    if dims.h0_dashed > 0:
        assert dims.h1_rel + dims.h1_dashed == dims.h1_gamma + dims.h0_dashed - 1
    else:
        assert dims.h1_rel == dims.h1_gamma


@given(seeds)
@PROPERTY_SETTINGS
def test_dashed_edges_appear_twice_in_cycles(seed):
    g = random_measured_graph(seed)
    count = {}
    for c in boundary_cycles(g):
        for eid in c.edges:
            count[eid] = count.get(eid, 0) + 1
    assert count == {e.id: 2 for e in g.dashed_edges()}


@given(seeds)
@PROPERTY_SETTINGS
def test_sigma_invariant_under_relabeling(seed):
    g = random_measured_graph(seed)
    vmap = {v.id: 1000 - v.id for v in g.vertices}
    emap = {e.id: e.id + 500 for e in g.edges}
    g2 = MeasuredReebGraph(
        [type(v)(vmap[v.id], v.f, v.vtype, v.orientation) for v in g.vertices],
        [
            type(e)(emap[e.id], vmap[e.tail], vmap[e.head], e.style, e.profile)
            for e in g.edges
        ],
        {vmap[v]: tuple(emap[x] for x in o) for v, o in g.cyclic_orders.items()},
    )
    assert sigma(g2) == sigma(g)


@given(seeds)
@PROPERTY_SETTINGS
def test_solve_space_dimension_and_validity(seed):
    g = random_measured_graph(seed)
    res = solve_circulations(g)
    dims = homology_dims(g)
    lo, hi = g.f_range()
    tol = 1e-9 * max(1.0, g.total_mass) * max(1.0, hi - lo)
    assert res.exists == (bool(g.dashed_edges()) or abs(total_moment(g)) <= tol)
    if res.exists:
        assert len(res.basis) == dims.h1_rel
        assert check_circulation(g, res.particular).ok
        for delta in res.basis:
            shifted = res.particular.shifted(delta, 1.7)
            assert check_circulation(g, shifted).ok


@given(seeds)
@PROPERTY_SETTINGS
def test_match_is_reflexive(seed):
    g = random_measured_graph(seed)
    assert ro.match_measured(g, g).ok


def euler_census(g) -> int:
    """Independent Euler characteristic prediction from the vertex census.

    Summing compactly supported Euler characteristics over the level-set
    strata: singular fibers contribute 1 for point and tree types (I, II,
    IV, VII), 0 for types with one loop (III, V), -1 for the figure-eight
    (VI); every open dashed strip contributes -1, solid cylinders 0.
    """
    counts = {t: 0 for t in ("I", "II", "III", "IV", "V", "VI", "VII")}
    for v in g.vertices:
        counts[v.vtype] += 1
    fibers = (
        counts["I"] + counts["II"] + counts["IV"] + counts["VII"] - counts["VI"]
    )
    return fibers - len(g.dashed_edges())


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=25, deadline=None)
def test_roundtrip_and_boundary_count(seed):
    g = random_measured_graph(seed)
    surf = ro.realize(g, resolution=6).surface
    assert ro.validate_simple_morse(surf).is_simple_morse
    g2 = ro.extract_reeb(surf, samples=g.edges[0].profile.samples)
    assert ro.match_measured(g, g2, tol_mass=1e-6).ok
    t = ro.topology_summary(surf)
    assert sigma(g) == t.boundary_component_count
    assert t.euler_characteristic == euler_census(g)


@given(seeds)
@PROPERTY_SETTINGS
def test_profiles_strictly_increasing(seed):
    g = random_measured_graph(seed)
    for e in g.edges:
        assert np.all(np.diff(e.profile.cumulative) > 0)


@given(seeds)
@PROPERTY_SETTINGS
def test_boundary_cycle_reversal_parity(seed):
    # the restricted field has equally many minima and maxima along each
    # boundary circle: direction reversals of the walk come in pairs and
    # happen only where the boundary actually turns (types I, II, III)
    g = random_measured_graph(seed)
    for c in boundary_cycles(g):
        n = len(c)
        reversals = []
        for i in range(n):
            prev_edge = g.edge(c.edges[i - 1])
            next_edge = g.edge(c.edges[i])
            v = c.vertices[i]
            same_side = (prev_edge.head == v) == (next_edge.head == v)
            if same_side:
                reversals.append(g.vertex(v).vtype)
        assert len(reversals) % 2 == 0
        assert set(reversals) <= {"I", "II", "III"}


def reference_validate(g):
    """``MeasuredReebGraph.validate`` checking every profile and counting each
    vertex's incidences with its own scans over the edges."""
    if not g.vertices or not g.edges:
        raise ro.InvalidGraph("graph needs at least one vertex and one edge")
    if len({v.id for v in g.vertices}) != len(g.vertices):
        raise ro.InvalidGraph("duplicate vertex ids")
    if len({e.id for e in g.edges}) != len(g.edges):
        raise ro.InvalidGraph("duplicate edge ids")
    if any(e.id < 1 for e in g.edges):
        raise ro.InvalidGraph("edge ids must be positive (signed cycle encoding)")
    fvals = [v.f for v in g.vertices]
    if not all(math.isfinite(f) for f in fvals):
        raise ro.DataError("vertex field values must be finite")
    if len(set(fvals)) != len(fvals):
        raise ro.InvalidGraph("vertex field values must be pairwise distinct")
    ids = {v.id for v in g.vertices}
    for e in g.edges:
        if e.tail not in ids or e.head not in ids:
            raise ro.InvalidGraph(f"edge {e.id} references unknown vertex")
        if not g.vertex(e.tail).f < g.vertex(e.head).f:
            raise ro.InvalidGraph(f"edge {e.id} not oriented towards increasing f")
        if e.style not in ("solid", "dashed"):
            raise ro.InvalidGraph(f"edge {e.id} has unknown style {e.style!r}")
        e.profile.check()
        if e.profile.f_lo != g.vertex(e.tail).f or e.profile.f_hi != g.vertex(e.head).f:
            raise ro.InvalidGraph(f"edge {e.id} profile range mismatch")
    for v in g.vertices:
        if v.vtype not in VERTEX_TYPES:
            raise ro.InvalidGraph(f"unknown vertex type {v.vtype!r}")
        if (v.vtype, v.orientation) not in _INCIDENCE:
            raise ro.InvalidGraph(f"vertex {v.id}: invalid orientation {v.orientation!r} for {v.vtype}")
        din = sum(1 for e in g.edges if e.head == v.id and e.dashed)
        dout = sum(1 for e in g.edges if e.tail == v.id and e.dashed)
        sin = sum(1 for e in g.edges if e.head == v.id and not e.dashed)
        sout = sum(1 for e in g.edges if e.tail == v.id and not e.dashed)
        if (din, dout, sin, sout) != _INCIDENCE[(v.vtype, v.orientation)]:
            raise ro.InvalidGraph(
                f"vertex {v.id}: incidence {(din, dout, sin, sout)} does not "
                f"match type {v.vtype}/{v.orientation}"
            )
    for v in g.vertices:
        if len(g.dashed_edges_at(v.id)) >= 3:
            order = g.cyclic_orders.get(v.id)
            if order is None:
                raise ro.InvalidGraph(f"vertex {v.id} needs a cyclic order")
            if sorted(order) != sorted(e.id for e in g.dashed_edges_at(v.id)):
                raise ro.InvalidGraph(f"vertex {v.id}: cyclic order is not a "
                                      "permutation of its dashed edges")
        elif v.id in g.cyclic_orders:
            raise ro.InvalidGraph(f"vertex {v.id} must not carry a cyclic order")
    reached, stack = {g.vertices[0].id}, [g.vertices[0].id]
    while stack:
        x = stack.pop()
        for e in g.edges_at(x):
            if g.other_end(e, x) not in reached:
                reached.add(g.other_end(e, x))
                stack.append(g.other_end(e, x))
    if len(reached) != len(g.vertices):
        raise ro.InvalidGraph("graph is disconnected")


def _set_sample(value, at):
    def mutate(rng, vertices, edges, orders):
        p = edges[rng.randrange(len(edges))].profile
        if len(p.cumulative) < 2:
            return
        p.cumulative = p.cumulative.copy()
        p.cumulative[at(rng, len(p.cumulative))] = value(p.cumulative)
    return mutate


def _short_profile(n):
    def mutate(rng, vertices, edges, orders):
        p = edges[rng.randrange(len(edges))].profile
        p.cumulative = p.cumulative[:n]
    return mutate


def _resample(rng, vertices, edges, orders):
    # a valid profile of another length, so that the graph's profiles differ
    # in length and the screen must find each edge's samples in the table
    p = edges[rng.randrange(len(edges))].profile
    if len(p.cumulative) >= 2:
        old, new = np.linspace(0.0, 1.0, len(p.cumulative)), np.linspace(0.0, 1.0, rng.randrange(2, 14))
        p.cumulative = np.interp(new, old, p.cumulative)


def _restyle(rng, vertices, edges, orders):
    e = edges[rng.randrange(len(edges))]
    e.style = rng.choice(["solid", "dashed", "dotted"])


def _retype(rng, vertices, edges, orders):
    v = vertices[rng.randrange(len(vertices))]
    v.vtype, v.orientation = rng.choice(
        sorted(_INCIDENCE) + [("VIII", AS_IN_TABLE), ("IV", F_REVERSED)]
    )


def _reorder(rng, vertices, edges, orders):
    vid = rng.choice([v.id for v in vertices])
    if vid in orders and rng.random() < 0.5:
        order = list(orders[vid])
        order[rng.randrange(len(order))] = max(e.id for e in edges) + 1
        orders[vid] = tuple(order)
    elif vid in orders:
        del orders[vid]
    else:
        orders[vid] = tuple(e.id for e in edges[:3])


def _shift_range(rng, vertices, edges, orders):
    p = edges[rng.randrange(len(edges))].profile
    p.f_lo += 1e-3


def _add_island(rng, vertices, edges, orders):
    vid, f = max(v.id for v in vertices), max(v.f for v in vertices)
    vertices += [ReebVertex(vid + 1, f + 1.0, "VII"), ReebVertex(vid + 2, f + 2.0, "VII", F_REVERSED)]
    profile = MeasureProfile(f + 1.0, f + 2.0, np.linspace(0.0, 1.0, 5))
    edges.append(ReebEdge(max(e.id for e in edges) + 1, vid + 1, vid + 2, "solid", profile))


MUTATIONS = [
    _add_island,
    _set_sample(lambda c: np.nan, lambda rng, n: rng.randrange(n)),
    _set_sample(lambda c: np.inf, lambda rng, n: rng.randrange(n)),
    _set_sample(lambda c: -np.inf, lambda rng, n: rng.randrange(1, n)),
    _set_sample(lambda c: c[0], lambda rng, n: rng.randrange(1, n)),  # non-monotone
    _set_sample(lambda c: 0.5 * c[1], lambda rng, n: 0),  # nonzero start
    _short_profile(1),
    _short_profile(0),
    _resample,
    _restyle,
    _retype,
    _reorder,
    _shift_range,
]


def test_validate_reports_the_first_error_of_the_per_edge_checks():
    rng = random.Random(5)
    graphs = [fig2_graph(), fig4a_graph(), fig4b_graph()]
    graphs += [random_measured_graph(seed, max_events=12, samples=6) for seed in range(40)]
    seen = set()
    for g in graphs:
        for _ in range(12):
            vertices = [copy.copy(v) for v in g.vertices]
            edges = [copy.copy(e) for e in g.edges]
            for e in edges:
                e.profile = copy.copy(e.profile)
            orders = dict(g.cyclic_orders)
            for mutate in rng.sample(MUTATIONS, rng.choice([1, 1, 2, 3])):
                mutate(rng, vertices, edges, orders)
            results = []
            for check in (MeasuredReebGraph.validate, reference_validate):
                try:
                    check(MeasuredReebGraph(vertices, edges, orders))
                    results.append(None)
                except ro.ReebOrbitError as err:
                    results.append((type(err), str(err)))
            assert results[0] == results[1]
            if results[0]:
                seen.add(re.sub(r"\d+", "N", results[0][1]).split(" does not match")[0])
    assert seen >= {
        "profile samples must be finite",
        "profile needs at least two samples",
        "profile must start at zero",
        "profile must be strictly increasing",
        "edge N profile range mismatch",
        "edge N has unknown style 'dotted'",
        "vertex N: incidence (N, N, N, N)",
        "vertex N needs a cyclic order",
        "vertex N must not carry a cyclic order",
        "vertex N: cyclic order is not a permutation of its dashed edges",
        "graph is disconnected",
    }


# sha256 of the generator's graphs, one digest per call shape the benchmark
# and the tests use: their inputs and pinned figures all come from these
# graphs, so a change to the generator must keep every random draw in order
GENERATOR_DIGESTS = {
    "defaults": ({}, range(20000, 20011), "b7fd03e0a787f78b02bc41290b35959e9f7117416be3a69c244087324197c706"),
    "max_events=6": ({"max_events": 6}, range(30000, 30080), "fa5e82b88c390de32d1e5b8f268a2e48598537ebf58f4a0a40c30929b30f0220"),
    "max_events=10": ({"max_events": 10}, range(40), "c233b9bb6b358d19f7d84e2c3c32a051949f8d3eeafa0e27b47d78efd0903f74"),
    "max_events=25,samples=32": (
        {"max_events": 25, "samples": 32}, range(40000, 40008),
        "3b89139fedb88fe206a0b7ba6efebb2c40785bbf173e5374c3224e74b294ccb0",
    ),
    "allow_dashed=False": ({"allow_dashed": False}, range(40), "6618940d92c22f2fbaf311e13ce29c8fe2341f6e035dca5f38f4f16c3678fbf8"),
}


@pytest.mark.parametrize("shape", sorted(GENERATOR_DIGESTS))
def test_generator_output_is_pinned(shape):
    kwargs, seeds, digest = GENERATOR_DIGESTS[shape]
    h = hashlib.sha256()
    for seed in seeds:
        doc = graph_to_dict(random_measured_graph(seed, **kwargs))
        h.update(json.dumps(doc, sort_keys=True).encode())
    assert h.hexdigest() == digest
