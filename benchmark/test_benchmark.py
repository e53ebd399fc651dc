"""Tests of the benchmark itself: its checks reject planted wrong answers, and
the tracer leaves every module binding as it found it.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reeb_orbit  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from reeb_orbit import equivalence, serialize  # noqa: E402
from reeb_orbit.circulation import edge_probe_value, polyline_coeffs  # noqa: E402
from reeb_orbit.levels import trace_level  # noqa: E402


def small(workload, **pool):
    """The workload with a reduced pool."""
    clone = type(workload)()
    for key, value in pool.items():
        setattr(clone, key, value)
    return clone


@pytest.fixture(scope="module")
def remap_job(tmp_path_factory):
    wl = small(workloads.RemapClassify(), fuzz_seeds=(20008,), refined_seeds=())
    case = wl.build(tmp_path_factory.mktemp("remap"), seed=3)[0]
    return wl, case, wl.run(case)


@pytest.fixture(scope="module")
def synthesis_job(tmp_path_factory):
    wl = workloads.OrbitSynthesis()
    case = next(c for c in wl.build(tmp_path_factory.mktemp("synth"), seed=3) if c.name == "fuzz30072")
    return wl, case, wl.run(case)


@pytest.fixture(scope="module")
def algebra_jobs(tmp_path_factory):
    wl = small(workloads.GraphAlgebra(), fuzz_seeds=(40003,), genera=(6,))
    cases = wl.build(tmp_path_factory.mktemp("algebra"), seed=3)
    return wl, [(case, wl.run(case)) for case in cases]


def test_remap_check_accepts_the_real_output(remap_job):
    wl, case, out = remap_job
    assert wl.check(case, out) == []


def test_remap_check_rejects_a_scaled_edge_mass(remap_job):
    wl, case, out = remap_job
    graph = json.loads(case.paths["out"].read_text())
    graph["edges"][0]["mass"] *= 1.001
    errors = workloads.check_remap(case.expect, graph, json.loads(out["compare"]))
    assert any("total edge mass" in e for e in errors)


def test_remap_check_rejects_a_wrong_vertex_type(remap_job):
    wl, case, out = remap_job
    graph = json.loads(case.paths["out"].read_text())
    v = next(v for v in graph["vertices"] if v["type"] == "VII")
    v["type"] = "I"
    errors = workloads.check_remap(case.expect, graph, json.loads(out["compare"]))
    assert any("vertex types" in e for e in errors)


def test_synthesis_check_accepts_the_real_output(synthesis_job):
    wl, case, out = synthesis_job
    assert wl.check(case, out) == []


def test_synthesis_check_rejects_a_perturbed_form_value(synthesis_job, tmp_path):
    wl, case, out = synthesis_job
    surf, g = case.objects["surface"], case.objects["graph"]
    edge = g.solid_edges()[0]
    probe = edge_probe_value(g.context, edge.id)
    comp = next(c for c in trace_level(surf, probe) if g.context.edge_of_component(probe, c) == edge.id)
    key = next(iter(polyline_coeffs(surf, comp)))
    form = serialize.oneform_from_dict(json.loads(case.paths["form"].read_text()), surf)
    form.values[key] += 0.5
    paths = dict(case.paths, form=tmp_path / "bad.json")
    bad_case = workloads.Case(case.name, paths, case.expect, objects=case.objects)
    bad_case.paths["form"].write_text(json.dumps(serialize.oneform_to_dict(form)))
    errors = wl.check(bad_case, out)
    assert any("form circulation" in e for e in errors)


def test_synthesis_check_rejects_targets_off_the_moment(synthesis_job):
    wl, case, out = synthesis_job
    targets = json.loads(json.dumps(out["targets"]))
    first = next(iter(targets["circulation"]))
    targets["circulation"][first][1] += 1e-3
    limits = {k: v for k, v in targets["circulation"].items()}
    errors = workloads.check_synthesis(case.expect, targets, out["xi"], limits)
    assert any("Newton-Leibniz" in e for e in errors)


def test_synthesis_check_rejects_a_wrong_cycle_coordinate(synthesis_job):
    wl, case, out = synthesis_job
    xi = {"basis": out["xi"]["basis"], "coords": [c + 1e-3 for c in out["xi"]["coords"]]}
    limits = {k: v for k, v in out["targets"]["circulation"].items()}
    errors = workloads.check_synthesis(case.expect, out["targets"], xi, limits)
    assert any("xi coordinates" in e for e in errors)


def test_algebra_check_accepts_the_real_output(algebra_jobs):
    wl, jobs = algebra_jobs
    for case, out in jobs:
        assert wl.check(case, out) == []


@pytest.mark.parametrize("delta", [-1, 1])
def test_algebra_check_rejects_a_genus_off_by_one(algebra_jobs, delta):
    wl, jobs = algebra_jobs
    for case, out in jobs:
        inv = dict(out["invariants"], genus_realize=out["invariants"]["genus_realize"] + delta)
        errors = workloads.check_algebra(case.expect, inv, out["solve"], out["compare"])
        assert any("genus" in e for e in errors), case.name


def test_algebra_check_rejects_an_edge_map_that_swaps_styles_or_ends(algebra_jobs):
    wl, jobs = algebra_jobs
    case, out = jobs[0]
    em = out["compare"]["edge_map"]
    a, b = sorted(em)[:2]
    cmp = dict(out["compare"], edge_map=dict(em, **{a: em[b], b: em[a]}))
    assert workloads.check_algebra(case.expect, out["invariants"], out["solve"], cmp)


def test_euler_count_matches_the_realized_genus_on_fuzz_graphs():
    from reeb_orbit.fuzz import random_measured_graph
    from reeb_orbit.graph_core import genus, sigma

    for seed in range(5):
        g = random_measured_graph(50_000 + seed, max_events=10)
        chi = workloads.euler_from_types(serialize.graph_to_dict(g))
        assert 2 * genus(g) == 2 - chi - sigma(g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_swapped_height_copy_needs_one_bundle_matched_against_id_order(seed):
    import random

    doc = workloads.height_graph_doc(10)
    copy, vmap, emap = workloads.permuted_copy(doc, random.Random(seed), swap_first_bundle=True)
    # handle 1 is edges 2 and 3; its copy reverses their id order, the others keep it
    assert emap[2] > emap[3] and emap[5] < emap[6]
    g1, g2 = serialize.graph_from_dict(doc), serialize.graph_from_dict(copy)
    iso = equivalence.match_measured(g1, g2)
    assert iso.ok and iso.vertex_map == vmap and iso.edge_map == emap


def _bindings() -> dict:
    mods = {n: m for n, m in sys.modules.items() if n == "reeb_orbit" or n.startswith("reeb_orbit.")}
    state = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    state[("PLSurface", "__init__")] = reeb_orbit.PLSurface.__dict__["__init__"]
    return state


def test_tracer_restores_every_binding_and_records_spans():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert reeb_orbit.cli.extract_reeb is not before[("reeb_orbit.extraction", "extract_reeb")]
        assert reeb_orbit.extract_reeb is reeb_orbit.extraction.extract_reeb
        assert reeb_orbit.circulation.trace_level is reeb_orbit.levels.trace_level
        tracer.job = 0
        reeb_orbit.genus(serialize.graph_from_dict(workloads.height_graph_doc(2)))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    totals = tracer.totals({0})
    assert totals["graph_core.genus.calls"] == 1 and totals["realization.realize.calls"] == 1
    assert totals["surface.PLSurface.tris"] == totals["realization.realize.tris"] > 0
    assert totals["graph_core.genus.self_s"] < totals["graph_core.genus.s"]


def test_run_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "graph-algebra", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_command_line_names_every_workload():
    import run

    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
