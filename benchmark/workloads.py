"""The three CLI pipelines the benchmark runs, their inputs and their checks.

Each workload builds a fixed pool of cases from a seed (``build``), runs one
case as a job through ``reeb_orbit.cli.main`` exactly as a user would run the
commands (``run``, the timed part), and checks the job's outputs outside the
timed region (``check``).  The seed never changes which graphs or meshes are
in a pool, only vertex ids, shear factors, id permutations, synthesis targets
and the order in which the pool is cycled, so the cost of a round hardly
depends on it.  Each pool has an odd number of cases, and each tail
percentile is chosen so that, with whole rounds, the median and the tail
percentile fall inside the block of jobs of one case rather than between two
cases of different cost.

Checks compare against arithmetic done here, apart from the program, or
against properties the method must have; none compares against a stored copy
of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from reeb_orbit import cli, serialize
from reeb_orbit.circulation import augment, dashed_cycle_basis
from reeb_orbit.extraction import extract_reeb
from reeb_orbit.fuzz import random_measured_graph
from reeb_orbit.models import torus_with_hole_mesh
from reeb_orbit.realization import realize
from reeb_orbit.surface import remap


class JobFailed(Exception):
    """A pipeline step exited with an unexpected code: the job did not complete."""


def cli_call(argv: list[str]) -> str:
    """Run one CLI command in-process and return its standard output; any
    exit code but 0 fails the job."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = buf.getvalue()
    if code != 0:
        raise JobFailed(f"`reeb-orbit {argv[0]}` exited {code}: {' '.join(out.split())[:300]}")
    return out


def _write(path: Path, doc: dict) -> None:
    path.write_text(serialize.dumps(doc), encoding="utf-8")


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def profile_moment(f_lo: float, f_hi: float, cumulative: list[float]) -> float:
    """Field moment of an edge: slab midpoints times slab mass increments."""
    k = len(cumulative) - 1
    parts = []
    for i in range(k):
        x0 = f_lo + (f_hi - f_lo) * i / k
        x1 = f_lo + (f_hi - f_lo) * (i + 1) / k
        parts.append(0.5 * (x0 + x1) * (cumulative[i + 1] - cumulative[i]))
    return math.fsum(parts)


def euler_from_types(doc: dict) -> int:
    """chi = #VII - #IV - #V - #VI + #I^ - #II^ - #III^ (^: as-in-table)."""
    chi = 0
    for v in doc["vertices"]:
        up = v["orientation"] == "as-in-table"
        chi += {
            "VII": 1,
            "IV": -1,
            "V": -1,
            "VI": -1,
            "I": 1 if up else 0,
            "II": -1 if up else 0,
            "III": -1 if up else 0,
        }[v["type"]]
    return chi


@dataclass
class Case:
    """One pool entry: the files a job reads and what its outputs must satisfy."""

    name: str
    paths: dict[str, Path]
    expect: dict[str, Any] = field(default_factory=dict)
    size: dict[str, int] = field(default_factory=dict)
    # in-process objects used only by checks, never by the timed job
    objects: dict[str, Any] = field(default_factory=dict)


# -- remap-classify --------------------------------------------------------------------


class RemapClassify:
    """Criterion 5 as a CLI pipeline: extract a remapped mesh, compare with
    the graph that generated it."""

    name = "remap-classify"
    fuzz_seeds = (20000, 20001, 20002, 20003, 20004, 20005, 20008, 20009, 20010)
    refined_seeds = (20008, 20009)
    samples = 12
    tail_pct = 86
    # per-job counts any correct implementation gives, checked in the traced run
    expected_counts = {"extraction.extract_reeb.calls": 1, "realization.realize.calls": 0}

    def build(self, work: Path, seed: int) -> list[Case]:
        rng = random.Random(seed)
        cases = []
        for fs in self.fuzz_seeds:
            g = random_measured_graph(fs, samples=self.samples)
            gen_doc = serialize.graph_to_dict(g)
            gen_path = work / f"gen{fs}.json"
            _write(gen_path, gen_doc)
            surf = realize(g, resolution=6).surface
            ids = list(surf.vertex_ids)
            fresh = rng.sample(range(1, 10 * len(ids)), len(ids))
            mapped = remap(surf, {"kind": "relabel", "mapping": dict(zip(ids, fresh))})
            mapped = remap(mapped, {"kind": "shear", "factor": rng.uniform(-0.5, 0.5)})
            variants = [("", mapped)]
            if fs in self.refined_seeds:
                variants.append(("-refined", remap(mapped, {"kind": "refine"})))
            vertices = sorted(
                (v["f"], v["type"], v["orientation"]) for v in gen_doc["vertices"]
            )
            for suffix, mesh in variants:
                mesh_doc = mesh.to_dict()
                name = f"fuzz{fs}{suffix}"
                mesh_path = work / f"{name}.mesh.json"
                _write(mesh_path, mesh_doc)
                cases.append(
                    Case(
                        name,
                        {"mesh": mesh_path, "gen": gen_path, "out": work / f"{name}.graph.json"},
                        {
                            "vertices": vertices,
                            "area": math.fsum(t["area"] for t in mesh_doc["triangles"]),
                        },
                        {
                            "T": len(mesh_doc["triangles"]),
                            "m": len(gen_doc["vertices"]),
                            "K": self.samples,
                            "E": len(gen_doc["edges"]),
                        },
                    )
                )
        return cases

    def run(self, case: Case) -> dict:
        p = case.paths
        cli_call(["extract", str(p["mesh"]), "--samples", str(self.samples), "-o", str(p["out"])])
        return {"compare": cli_call(["compare", str(p["gen"]), str(p["out"])])}

    def check(self, case: Case, out: dict) -> list[str]:
        return check_remap(case.expect, _read(case.paths["out"]), json.loads(out["compare"]))


def check_remap(expect: dict, graph: dict, compare: dict) -> list[str]:
    errors = []
    if not compare.get("isomorphic"):
        errors.append(f"compare found no isomorphism: {compare.get('obstruction')}")
    mass = math.fsum(e["mass"] for e in graph["edges"])
    if not _close(mass, expect["area"], 1e-9 * expect["area"]):
        errors.append(f"total edge mass {mass!r} != triangle area sum {expect['area']!r}")
    got = sorted((v["f"], v["type"], v["orientation"]) for v in graph["vertices"])
    want = expect["vertices"]
    if [(t, o) for _, t, o in got] != [(t, o) for _, t, o in want]:
        errors.append("vertex types or orientations differ from the generator graph")
    elif any(not _close(a[0], b[0], 1e-12 * max(1.0, abs(b[0]))) for a, b in zip(got, want)):
        errors.append("critical values differ from the generator graph")
    return errors


# -- orbit-synthesis -----------------------------------------------------------------


class OrbitSynthesis:
    """Criterion 8 round trip: solve, synthesize a form for targets built from
    the solution, read its cycle coordinates back."""

    name = "orbit-synthesis"
    fuzz_seeds = (30002, 30014, 30039, 30050, 30055, 30057, 30060, 30072)
    max_events = 6
    resolution = 4
    tail_pct = 83
    expected_counts = {
        "circulation.solve_circulations.calls": 1,
        "circulation.synthesize_form.calls": 1,
        "realization.realize.calls": 0,
    }

    def build(self, work: Path, seed: int) -> list[Case]:
        rng = random.Random(seed)
        meshes = [("torus_with_hole", torus_with_hole_mesh())]
        for fs in self.fuzz_seeds:
            g = random_measured_graph(fs, max_events=self.max_events)
            meshes.append((f"fuzz{fs}", realize(g, resolution=self.resolution).surface))
        cases = []
        for name, surf in meshes:
            mesh_path = work / f"{name}.mesh.json"
            graph_path = work / f"{name}.graph.json"
            _write(mesh_path, surf.to_dict())
            g = extract_reeb(surf)  # the CLI default K
            graph_doc = serialize.graph_to_dict(g)
            _write(graph_path, graph_doc)
            basis = dashed_cycle_basis(g)
            lo, hi = g.f_range()
            cases.append(
                Case(
                    name,
                    {
                        "mesh": mesh_path,
                        "graph": graph_path,
                        "targets": work / f"{name}.targets.json",
                        "form": work / f"{name}.form.json",
                    },
                    {
                        "graph": graph_doc,
                        "basis": [list(c) for c in basis],
                        "coords": [rng.uniform(-2.0, 2.0) for _ in basis],
                        "shift_seed": rng.randrange(2**32),
                        "scale": max(1.0, g.total_mass * (hi - lo)),
                    },
                    {
                        "T": len(surf.triangles),
                        "m": len(g.vertices),
                        "K": g.edges[0].profile.samples,
                        "E": len(g.edges),
                        "solid": len(g.solid_edges()),
                        "cycles": len(basis),
                    },
                    {"surface": surf, "graph": g},
                )
            )
        return cases

    def run(self, case: Case) -> dict:
        p = case.paths
        solved = json.loads(cli_call(["circulation", "solve", str(p["graph"])]))
        targets = build_targets(solved, case.expect)
        p["targets"].write_text(json.dumps(targets), encoding="utf-8")
        cli_call(["synthesize", str(p["mesh"]), str(p["graph"]), str(p["targets"]), "-o", str(p["form"])])
        xi = cli_call(["xi", str(p["mesh"]), str(p["form"]), str(p["graph"])])
        return {"targets": targets, "xi": json.loads(xi)}

    def check(self, case: Case, out: dict) -> list[str]:
        surf, g = case.objects["surface"], case.objects["graph"]
        form = serialize.oneform_from_dict(_read(case.paths["form"]), surf)
        limits = augment(surf, form, g).circulation.limits
        read_back = {str(eid): list(pair) for eid, pair in limits.items()}
        return check_synthesis(case.expect, out["targets"], out["xi"], read_back)


def build_targets(solved: dict, expect: dict) -> dict:
    """Particular solution plus fixed shifts along the homogeneous basis."""
    rng = random.Random(expect["shift_seed"])
    circ = {k: list(v) for k, v in solved["particular"].items()}
    for delta in solved["basis"]:
        factor = rng.uniform(-1.5, 1.5)
        for k, (dt, dh) in delta.items():
            circ[k][0] += factor * dt
            circ[k][1] += factor * dh
    return {"circulation": circ, "xi": {"basis": expect["basis"], "coords": expect["coords"]}}


def check_synthesis(expect: dict, targets: dict, xi: dict, limits: dict) -> list[str]:
    errors = []
    tol = 1e-6 * expect["scale"]
    graph = expect["graph"]
    f = {v["id"]: v["f"] for v in graph["vertices"]}
    solid = [e for e in graph["edges"] if e["style"] == "solid"]
    circ = targets["circulation"]
    if sorted(circ) != sorted(str(e["id"]) for e in solid):
        return ["targets do not cover exactly the solid edges"]
    for e in solid:
        t, h = circ[str(e["id"])]
        moment = profile_moment(f[e["tail"]], f[e["head"]], e["cumulative"])
        if not _close(h - t, moment, tol):
            errors.append(f"edge {e['id']}: Newton-Leibniz residual {h - t - moment:g}")
    dashed_vs = {v for e in graph["edges"] if e["style"] == "dashed" for v in (e["tail"], e["head"])}
    for vid in f:
        if vid in dashed_vs:
            continue
        inc = math.fsum(circ[str(e["id"])][1] for e in solid if e["head"] == vid)
        out = math.fsum(circ[str(e["id"])][0] for e in solid if e["tail"] == vid)
        if not _close(inc, out, tol):
            errors.append(f"vertex {vid}: Kirchhoff residual {inc - out:g}")
    if xi["basis"] != expect["basis"]:
        errors.append("xi basis differs from the target basis")
    elif any(not _close(a, b, tol) for a, b in zip(xi["coords"], expect["coords"])):
        errors.append(f"xi coordinates {xi['coords']} miss the targets {expect['coords']}")
    for k, (t, h) in circ.items():
        got = limits.get(k)
        if got is None or not (_close(got[0], t, tol) and _close(got[1], h, tol)):
            errors.append(f"edge {k}: form circulation {got} misses the target {[t, h]}")
    return errors


# -- graph-algebra -------------------------------------------------------------------


def _profile(lo: float, hi: float, mass: float, phase: float, samples: int) -> list[float]:
    dens = [1.0 + 0.6 * math.sin(math.pi * (i / samples + phase)) ** 2 for i in range(samples + 1)]
    cum = [0.0]
    for i in range(samples):
        cum.append(cum[-1] + 0.5 * (dens[i] + dens[i + 1]))
    total = cum[-1]
    cum = [c / total * mass for c in cum]
    cum[0], cum[-1] = 0.0, mass
    return cum


def height_graph_doc(genus: int, samples: int = 32) -> dict:
    """Height function on a closed surface of the given genus.

    Vertex 1 is the minimum; handle i splits a circle at vertex 2i and merges
    it back at 2i+1; the last vertex is the maximum.  Each handle is a bundle
    of two solid edges with equal mass and different profiles.  The levels are
    shifted so that the total field moment vanishes and circulation data
    exists.
    """
    nv = 2 * genus + 2
    f = [k + 0.3 * math.sin(1.7 * k) for k in range(nv)]
    types = [("VII", "as-in-table")]
    for _ in range(genus):
        types += [("VI", "f-reversed"), ("VI", "as-in-table")]
    types.append(("VII", "f-reversed"))
    specs = [(1, 2, 0.8, 0.0)]
    for i in range(1, genus + 1):
        split, merge = 2 * i, 2 * i + 1
        mass = 0.5 + 0.05 * i
        specs += [(split, merge, mass, 0.0), (split, merge, mass, 0.5)]
        specs.append((merge, merge + 1, 0.9 + 0.01 * i, 0.25))
    shift = 0.0
    for _ in range(2):
        moment = math.fsum(
            profile_moment(f[t - 1] + shift, f[h - 1] + shift, _profile(0.0, 1.0, m, ph, samples))
            for t, h, m, ph in specs
        )
        shift -= moment / math.fsum(m for _, _, m, _ in specs)
    f = [x + shift for x in f]
    return {
        "vertices": [
            {"id": k + 1, "f": f[k], "type": t, "orientation": o} for k, (t, o) in enumerate(types)
        ],
        "edges": [
            {
                "id": i,
                "tail": t,
                "head": h,
                "style": "solid",
                "mass": m,
                "cumulative": _profile(f[t - 1], f[h - 1], m, ph, samples),
            }
            for i, (t, h, m, ph) in enumerate(specs, start=1)
        ],
        "cyclic_orders": {},
    }


def permuted_copy(doc: dict, rng: random.Random, swap_first_bundle: bool) -> tuple[dict, dict, dict]:
    """The graph with seeded vertex and edge id permutations.

    Parallel edges of equal mass keep their relative id order, except that
    the first such bundle is swapped when ``swap_first_bundle`` is set, so
    that the copy needs exactly one bundle matched against id order whatever
    the seed.  Returns the copy and the vertex and edge id maps.
    """
    vids = [v["id"] for v in doc["vertices"]]
    vmap = dict(zip(vids, rng.sample(range(1, 3 * len(vids) + 1), len(vids))))
    eids = [e["id"] for e in doc["edges"]]
    emap = dict(zip(eids, rng.sample(range(1, 3 * len(eids) + 1), len(eids))))
    bundles: dict[tuple, list[int]] = {}
    for e in doc["edges"]:
        bundles.setdefault((e["tail"], e["head"], e["mass"]), []).append(e["id"])
    swapped = False
    for key in sorted(bundles):
        members = sorted(bundles[key])
        if len(members) < 2:
            continue
        new = sorted(emap[i] for i in members)
        if swap_first_bundle and not swapped:
            new.reverse()
            swapped = True
        emap.update(zip(members, new))
    copy = {
        "vertices": [dict(v, id=vmap[v["id"]]) for v in doc["vertices"]],
        "edges": [
            dict(e, id=emap[e["id"]], tail=vmap[e["tail"]], head=vmap[e["head"]])
            for e in doc["edges"]
        ],
        "cyclic_orders": {
            str(vmap[int(v)]): [emap[i] for i in order] for v, order in doc["cyclic_orders"].items()
        },
    }
    return copy, vmap, emap


class GraphAlgebra:
    """Graph-only pipeline: invariants, circulation solve, and an
    isomorphism check against an id-permuted copy."""

    name = "graph-algebra"
    fuzz_seeds = tuple(range(40000, 40008))
    max_events = 25
    samples = 32
    genera = tuple(range(6, 13))
    tail_pct = 90
    # no mesh is read, so extraction and the level layer do no work
    expected_counts = {
        "surface.load_mesh.calls": 0,
        "levels.trace_level.calls": 0,
        "levels.slab_triangle_components.calls": 0,
        "extraction.extract_reeb.calls": 0,
        "equivalence.match_measured.calls": 1,
    }

    def build(self, work: Path, seed: int) -> list[Case]:
        rng = random.Random(seed)
        docs: list[tuple[str, dict, Optional[int]]] = []
        for fs in self.fuzz_seeds:
            g = random_measured_graph(fs, max_events=self.max_events, samples=self.samples)
            docs.append((f"fuzz{fs}", serialize.graph_to_dict(g), None))
        for genus in self.genera:
            docs.append((f"height{genus}", height_graph_doc(genus, self.samples), genus))
        cases = []
        for name, doc, handles in docs:
            copy, vmap, emap = permuted_copy(doc, rng, swap_first_bundle=handles is not None)
            graph_path, copy_path = work / f"{name}.graph.json", work / f"{name}.copy.json"
            _write(graph_path, doc)
            _write(copy_path, copy)
            cases.append(
                Case(
                    name,
                    {"graph": graph_path, "copy": copy_path},
                    {"graph": doc, "copy": copy, "vmap": vmap, "handles": handles},
                    {"m": len(doc["vertices"]), "E": len(doc["edges"]), "K": self.samples},
                )
            )
        return cases

    def run(self, case: Case) -> dict:
        p = case.paths
        inv = cli_call(["invariants", str(p["graph"])])
        sol = cli_call(["circulation", "solve", str(p["graph"])])
        cmp = cli_call(["compare", str(p["graph"]), str(p["copy"])])
        return {"invariants": json.loads(inv), "solve": json.loads(sol), "compare": json.loads(cmp)}

    def check(self, case: Case, out: dict) -> list[str]:
        return check_algebra(case.expect, out["invariants"], out["solve"], out["compare"])


def check_algebra(expect: dict, inv: dict, sol: dict, cmp: dict) -> list[str]:
    errors = []
    doc, copy = expect["graph"], expect["copy"]
    nv, ne = len(doc["vertices"]), len(doc["edges"])
    chi = euler_from_types(doc)
    if 2 * inv["genus_realize"] != 2 - chi - inv["sigma"]:
        errors.append(f"genus {inv['genus_realize']} != (2 - {chi} - {inv['sigma']}) / 2")
    if expect["handles"] is not None and (inv["genus_realize"], inv["sigma"]) != (expect["handles"], 0):
        errors.append(f"height graph with {expect['handles']} handles has genus {inv['genus_realize']}")
    hom = inv["homology"]
    if hom["h1_gamma"] != ne - nv + 1:
        errors.append(f"h1_gamma {hom['h1_gamma']} != E - V + 1 = {ne - nv + 1}")
    if not sol.get("exists") or sol["homogeneous_dimension"] != hom["h1_rel"]:
        errors.append(f"homogeneous dimension {sol.get('homogeneous_dimension')} != h1_rel {hom['h1_rel']}")
    total = math.fsum(e["mass"] for e in doc["edges"])
    if not _close(inv["total_mass"], total, 1e-12 * total):
        errors.append(f"total mass {inv['total_mass']!r} != {total!r}")
    if not cmp.get("isomorphic"):
        return errors + [f"copy not recognized: {cmp.get('obstruction')}"]
    vm = {int(k): v for k, v in cmp["vertex_map"].items()}
    if vm != expect["vmap"]:
        errors.append("vertex map differs from the permutation applied")
    em = {int(k): v for k, v in cmp["edge_map"].items()}
    partner = {e["id"]: e for e in copy["edges"]}
    if sorted(em) != sorted(e["id"] for e in doc["edges"]) or len(set(em.values())) != ne:
        return errors + ["edge map is not a bijection"]
    for e in doc["edges"]:
        p = partner.get(em[e["id"]])
        if p is None or (p["tail"], p["head"]) != (vm.get(e["tail"]), vm.get(e["head"])):
            errors.append(f"edge map moves the endpoints of edge {e['id']}")
        elif p["style"] != e["style"] or p["mass"] != e["mass"]:
            errors.append(f"edge map changes the style or mass of edge {e['id']}")
    return errors


WORKLOADS = {w.name: w for w in (RemapClassify(), OrbitSynthesis(), GraphAlgebra())}
