"""Random measured Reeb graphs and surface transformations for property tests.

Graphs are generated by simulating a sweep: a pool of active level families
(circles and segments) changes through randomly chosen birth, merge, split,
reconnection, and death events, each event becoming a vertex of the matching
type; the vertex's transition (``reebgraph.transition``) says which families
the event consumes and which it produces.  The construction guarantees every structural invariant by design and
keeps the graph connected by steering merges across components while
draining the pool.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .levels import DSU
from .reebgraph import (
    AS_IN_TABLE,
    F_REVERSED,
    MeasuredReebGraph,
    MeasureProfile,
    ReebEdge,
    ReebVertex,
    transition,
)
from .surface import PLSurface


@dataclass
class _Strand:
    sid: int
    style: str  # "solid" | "dashed"
    birth_event: int


# sweep events and the vertex each one becomes
_EVENTS = {
    "birth_circle": ("VII", AS_IN_TABLE),
    "birth_segment": ("I", AS_IN_TABLE),
    "close_circle": ("VII", F_REVERSED),
    "close_segment": ("I", F_REVERSED),
    "split_circle": ("VI", F_REVERSED),
    "merge_circles": ("VI", AS_IN_TABLE),
    "seg_to_circle": ("III", AS_IN_TABLE),
    "circle_to_seg": ("III", F_REVERSED),
    "merge_circle_seg": ("V", AS_IN_TABLE),
    "split_seg_circle": ("V", F_REVERSED),
    "merge_segs": ("II", AS_IN_TABLE),
    "split_seg": ("II", F_REVERSED),
    "reconnect": ("IV", AS_IN_TABLE),
}
# (event, weight) in the order they are offered while the sweep grows the
# pool and while it drains it
_GROW = [
    ("birth_circle", 1.5), ("birth_segment", 2.0), ("split_circle", 2.0), ("circle_to_seg", 1.2),
    ("split_seg", 1.5), ("seg_to_circle", 1.0), ("split_seg_circle", 1.2), ("reconnect", 1.5),
    ("merge_segs", 1.0), ("merge_circles", 1.0), ("merge_circle_seg", 1.0),
]
_DRAIN = [
    ("merge_circles", 2.0), ("merge_segs", 2.0), ("merge_circle_seg", 2.0), ("close_circle", 1.0),
    ("circle_to_seg", 0.6), ("close_segment", 1.0), ("seg_to_circle", 0.4),
]


def _random_profile(rng: random.Random, lo: float, hi: float, mass: float, samples: int) -> MeasureProfile:
    u = np.linspace(0.0, 1.0, samples + 1)
    omega = rng.choice([1.0, 2.0])
    phase = rng.uniform(0.0, 2.0 * math.pi)
    density = 1.0 + 0.7 * np.sin(math.pi * omega * u + phase)
    cum = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2.0)])
    cum = cum / cum[-1] * mass
    cum[0] = 0.0
    return MeasureProfile(lo, hi, cum)


def random_measured_graph(
    seed: int,
    max_events: int = 8,
    samples: int = 12,
    allow_dashed: bool = True,
) -> MeasuredReebGraph:
    """Random valid measured Reeb graph, deterministic per seed."""
    for attempt in range(64):
        g = _try_random_graph(random.Random(seed * 100003 + attempt), max_events, samples, allow_dashed)
        if g is not None:
            return g
    raise RuntimeError(f"failed to build a connected random graph for seed {seed}")


def _try_random_graph(
    rng: random.Random, max_events: int, samples: int, allow_dashed: bool
) -> Optional[MeasuredReebGraph]:
    strands: list[_Strand] = []  # the active pool
    born: list[_Strand] = []  # every strand, by id
    events: list[tuple[str, str, list[_Strand]]] = []  # (type, orientation, consumed)
    conn = DSU()

    def choose(pool: list[_Strand], n: int) -> list[_Strand]:
        # prefer strands from distinct components to help connectivity
        if n == 2 and len(pool) >= 2:
            by_root: dict[Any, _Strand] = {}
            for s in pool:
                by_root.setdefault(conn.find(("e", s.birth_event)), s)
            if len(by_root) >= 2:
                roots = sorted(by_root, key=repr)[:2]
                return [by_root[r] for r in rng.sample(roots, 2)]
        return rng.sample(pool, n)

    grow = rng.randrange(max_events // 2, max_events + 1)
    while len(events) < grow or strands:
        pools = ([s for s in strands if s.style == "solid"], [s for s in strands if s.style == "dashed"])
        options = [
            (name, w)
            for name, w in (_GROW if len(events) < grow else _DRAIN)
            for cb, sb, _, sa in [transition(*_EVENTS[name])]
            if cb <= len(pools[0]) and sb <= len(pools[1]) and (allow_dashed or not sa)
        ]
        if not options:
            break
        total = sum(w for _, w in options)
        pick = rng.uniform(0.0, total)
        acc = 0.0
        op = options[-1][0]
        for name, w in options:
            acc += w
            if pick <= acc:
                op = name
                break

        vtype, orientation = _EVENTS[op]
        cb, sb, ca, sa = transition(vtype, orientation)
        consumed = [s for pool, n in zip(pools, (cb, sb)) if n for s in choose(pool, n)]
        for s in consumed:
            strands.remove(s)
            conn.union(("e", len(events)), ("e", s.birth_event))
        for style, n in (("solid", ca), ("dashed", sa)):
            for _ in range(n):
                born.append(_Strand(len(born), style, len(events)))
                strands.append(born[-1])
        events.append((vtype, orientation, consumed))
        if len(events) > 4 * max_events + 8:
            return None

    if strands or len(events) < 2:
        return None
    roots = {conn.find(("e", i)) for i in range(len(events))}
    if len(roots) != 1:
        return None

    # assemble: vertices at jittered increasing levels
    fvals = [i + rng.uniform(-0.2, 0.2) for i in range(len(events))]
    vertices = [ReebVertex(i + 1, fvals[i], vtype, orientation)
                for i, (vtype, orientation, _) in enumerate(events)]

    # every strand dies in the pool, so strand i becomes edge i + 1; each
    # event's produced strands are listed in the order they die
    death_of: dict[int, int] = {}
    produced_at: dict[int, list[int]] = {}
    for idx, (_, _, consumed) in enumerate(events):
        for s in consumed:
            death_of[s.sid] = idx
            produced_at.setdefault(s.birth_event, []).append(s.sid + 1)
    edges = []
    for s in born:
        tail, head = s.birth_event, death_of[s.sid]
        mass = random.Random(s.sid * 1000033 + tail * 1013 + head).uniform(0.4, 2.0)
        prof = _random_profile(rng, fvals[tail], fvals[head], mass, samples)
        edges.append(ReebEdge(s.sid + 1, tail + 1, head + 1, s.style, prof))

    cyclic: dict[int, tuple[int, ...]] = {}
    for idx, (vtype, _, consumed) in enumerate(events):
        b, a = [s.sid + 1 for s in consumed], produced_at.get(idx, [])
        if vtype == "II":
            t = b + a
            cyclic[idx + 1] = (t[0], t[1], t[2]) if rng.random() < 0.5 else (t[0], t[2], t[1])
        elif vtype == "IV":
            cyclic[idx + 1] = (b[0], a[0], b[1], a[1]) if rng.random() < 0.5 else (b[0], a[1], b[1], a[0])

    g = MeasuredReebGraph(vertices, edges, cyclic)
    g.validate()
    return g


def random_remap_spec(rng: random.Random, s: PLSurface) -> dict[str, Any]:
    """One of the supported area-preserving test transformations."""
    kinds = ["relabel", "refine"]
    if s.xy is not None:
        kinds.append("shear")
    kind = rng.choice(kinds)
    if kind == "relabel":
        ids = list(s.vertex_ids)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        return {"kind": "relabel", "mapping": dict(zip(ids, shuffled))}
    if kind == "shear":
        return {"kind": "shear", "factor": rng.uniform(-0.5, 0.5)}
    return {"kind": "refine"}


def run_property_suite(cases: int, seed: int) -> dict[str, Any]:
    """Deterministic fuzz battery used by the command line."""
    from . import graph_core
    from .circulation import solve_circulations
    from .equivalence import match_measured
    from .extraction import extract_reeb
    from .realization import realize

    counts = {
        "cases": cases,
        "homology_identity": 0,
        "solve_dimension": 0,
        "solve_existence": 0,
        "roundtrip": 0,
        "sigma_matches_boundary": 0,
        "failures": [],
    }
    for i in range(cases):
        g = random_measured_graph(seed * 1000003 + i, allow_dashed=(i % 7 != 3))
        dims = graph_core.homology_dims(g)
        if dims.h0_dashed > 0:
            if dims.h1_rel + dims.h1_dashed == dims.h1_gamma + dims.h0_dashed - 1:
                counts["homology_identity"] += 1
            else:
                counts["failures"].append((i, "homology_identity"))
        else:
            counts["homology_identity"] += 1
        res = solve_circulations(g)
        lo, hi = g.f_range()
        tol = 1e-9 * max(1.0, g.total_mass) * max(1.0, hi - lo)
        from .circulation import total_moment

        should_exist = bool(g.dashed_edges()) or abs(total_moment(g)) <= tol
        if res.exists == should_exist:
            counts["solve_existence"] += 1
        else:
            counts["failures"].append((i, "solve_existence"))
        if not res.exists or len(res.basis) == dims.h1_rel:
            counts["solve_dimension"] += 1
        else:
            counts["failures"].append((i, "solve_dimension"))
        try:
            surf = realize(g, resolution=6).surface
            g2 = extract_reeb(surf, samples=g.edges[0].profile.samples)
            if match_measured(g, g2, tol_mass=1e-6).ok:
                counts["roundtrip"] += 1
            else:
                counts["failures"].append((i, "roundtrip"))
            from .surface import topology_summary

            if graph_core.sigma(g2) == topology_summary(surf).boundary_component_count:
                counts["sigma_matches_boundary"] += 1
            else:
                counts["failures"].append((i, "sigma"))
        except Exception as exc:  # pragma: no cover - surfaced in the report
            counts["failures"].append((i, f"realize/extract: {type(exc).__name__}: {exc}"))
    counts["passed"] = not counts["failures"]
    return counts
