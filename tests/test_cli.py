import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import reeb_orbit as ro
from reeb_orbit import serialize
from reeb_orbit.cli import main

DATA = Path(__file__).resolve().parents[1] / "src" / "reeb_orbit" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_disk(capsys):
    code, out, _ = run(capsys, "validate", str(DATA / "disk_linear.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["is_simple_morse"] is True
    kinds = sorted(c["kind"] for c in doc["critical_points"])
    assert kinds == ["boundary-max", "boundary-min"]


def test_extract_and_dot(capsys, tmp_path):
    out_path = tmp_path / "disk_graph.json"
    code, _, _ = run(capsys, "extract", str(DATA / "disk_linear.json"), "--samples", "8", "-o", str(out_path))
    assert code == 0
    g = serialize.load_graph(out_path.read_text())
    assert len(g.edges) == 1
    code, out, _ = run(capsys, "dot", str(out_path))
    assert code == 0
    assert "style=dashed" in out and "digraph" in out


def test_invariants_fig2(capsys):
    code, out, _ = run(capsys, "invariants", str(DATA / "fig2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit_moduli_dimension"] == 1
    assert doc["sigma"] == 1
    assert doc["genus_realize"] == 1
    assert doc["genus_formula"]["value"] == 4.5
    assert doc["genus_formula"]["error"] == "NonIntegerFormulaValue"


def test_compare_same_graph(capsys):
    code, out, _ = run(capsys, "compare", str(DATA / "fig2.json"), str(DATA / "fig2.json"))
    assert code == 0
    assert json.loads(out)["isomorphic"] is True


def test_compare_fig4_pair(capsys):
    code, out, _ = run(capsys, "compare", str(DATA / "fig4a.json"), str(DATA / "fig4b.json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["obstruction"]["kind"] == "CYCLIC_ORDER"


def test_circulation_solve(capsys):
    code, out, _ = run(capsys, "circulation", "solve", str(DATA / "fig2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["exists"] is True and doc["homogeneous_dimension"] == 1


@pytest.mark.parametrize(
    "extra, what",
    [(["fig4a.json", "--tol", "5"], "data file"), (["fig4a.json"], "data file"), (["--tol", "5"], "--tol")],
)
def test_circulation_solve_refuses_what_it_does_not_read(capsys, extra, what):
    # solve ignored both and exited 0, so a data file or a tolerance given to
    # it did nothing
    argv = [str(DATA / x) if x.endswith(".json") else x for x in extra]
    code, out, _ = run(capsys, "circulation", "solve", str(DATA / "fig2.json"), *argv)
    assert code == 2
    assert json.loads(out) == {"error": "ReebOrbitError", "message": f"circulation solve takes no {what}"}


def test_circulation_check(capsys, tmp_path):
    code, out, _ = run(capsys, "circulation", "solve", str(DATA / "fig2.json"))
    particular = json.loads(out)["particular"]
    payload = tmp_path / "circ.json"
    payload.write_text(json.dumps({"circulation": particular}))
    code, out, _ = run(capsys, "circulation", "check", str(DATA / "fig2.json"), str(payload))
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("limit", ["0.5", True, float("nan")], ids=["str", "bool", "nan"])
def test_circulation_limit_off_its_json_type_exits_2(capsys, tmp_path, limit):
    # float() took each of these and the check exited 1, printing a bare NaN
    # (not JSON) for the last
    _, out, _ = run(capsys, "circulation", "solve", str(DATA / "fig2.json"))
    particular = json.loads(out)["particular"]
    particular["1"][0] = limit
    payload = tmp_path / "circ.json"
    payload.write_text(json.dumps({"circulation": particular}))
    code, out, _ = run(capsys, "circulation", "check", str(DATA / "fig2.json"), str(payload))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def _fig2_copy(tmp_path, f_shift=0.0, mass_factor=1.0):
    doc = json.loads((DATA / "fig2.json").read_text())
    for v in doc["vertices"]:
        v["f"] += f_shift
    for e in doc["edges"]:
        e["mass"] *= mass_factor
        e["cumulative"] = [mass_factor * c for c in e["cumulative"]]
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "option, value, change",
    [
        ("--tol-mass", "nan", {"mass_factor": 3.0}),
        ("--tol-f", "nan", {"f_shift": 0.5}),
        ("--tol-mass", "inf", {"mass_factor": 3.0}),
        ("--tol-f", "-1e-9", {}),
    ],
)
def test_compare_rejects_non_finite_or_negative_tolerances(capsys, tmp_path, option, value, change):
    # every comparison with a NaN tolerance is false, so no obstruction was
    # ever found and the copy came out isomorphic
    fig2, copy = str(DATA / "fig2.json"), _fig2_copy(tmp_path, **change)
    assert run(capsys, "compare", fig2, copy)[0] == (1 if change else 0)
    code, out, _ = run(capsys, "compare", fig2, copy, f"{option}={value}")
    assert code == 2
    assert json.loads(out) == {
        "error": "DataError",
        "message": f"{option[2:].replace('-', '_')} must be finite and non-negative, got {float(value)!r}",
    }


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_circulation_check_rejects_non_finite_or_negative_tolerances(capsys, tmp_path, tol):
    fig2 = str(DATA / "fig2.json")
    particular = json.loads(run(capsys, "circulation", "solve", fig2)[1])["particular"]
    payload = tmp_path / "circ.json"
    payload.write_text(json.dumps({"circulation": {k: [t, h + 5.0] for k, (t, h) in particular.items()}}))
    assert run(capsys, "circulation", "check", fig2, str(payload))[0] == 1
    code, out, _ = run(capsys, "circulation", "check", fig2, str(payload), "--tol", tol)
    assert code == 2
    assert json.loads(out)["error"] == "DataError"


def test_realize_and_compare(capsys, tmp_path):
    mesh_path = tmp_path / "fig2_mesh.json"
    code, _, err = run(capsys, "realize", str(DATA / "fig2.json"), "-o", str(mesh_path))
    assert code == 0
    assert "genus=1" in err
    graph_path = tmp_path / "fig2_back.json"
    code, _, _ = run(capsys, "extract", str(mesh_path), "--samples", "16", "-o", str(graph_path))
    assert code == 0
    code, out, _ = run(capsys, "compare", str(DATA / "fig2.json"), str(graph_path))
    assert code == 0


@pytest.mark.parametrize(
    "name, samples",
    [(name, None) for name in ("fig2", "fig4a", "fig4b", "closed_torus")] + [("fig2", 12), ("fig2", 32)],
)
def test_realize_extract_compare_round_trip_at_any_sample_count(capsys, tmp_path, name, samples):
    # the fixtures hold 16 slabs per edge and the extraction another count;
    # between samples a realized profile is not linear, so comparing them
    # through a linear interpolation called these graphs non-isomorphic
    mesh_path, graph_path = tmp_path / "mesh.json", tmp_path / "back.json"
    assert run(capsys, "realize", str(DATA / f"{name}.json"), "-o", str(mesh_path))[0] == 0
    count = [] if samples is None else ["--samples", str(samples)]
    assert run(capsys, "extract", str(mesh_path), *count, "-o", str(graph_path))[0] == 0
    code, out, _ = run(capsys, "compare", str(DATA / f"{name}.json"), str(graph_path))
    assert (code, json.loads(out)["isomorphic"]) == (0, True)


@pytest.mark.parametrize("scale", [1e-9, 1e-50, 1e-300])
def test_compare_decides_a_graph_with_a_tiny_field_range(capsys, tmp_path, scale):
    # the default tol_f is relative to the field range, with no absolute floor
    def scaled(shift):
        def edit(doc):
            for v in doc["vertices"]:
                v["f"] = (v["f"] + shift) * scale
        where = tmp_path / f"shift{shift}"
        where.mkdir()
        return str(_edited_copy(where, "fig4a.json", edit))

    path, shifted = scaled(0), scaled(0.001)
    code, out, _ = run(capsys, "compare", path, path)
    assert (code, json.loads(out)["isomorphic"]) == (0, True)
    code, out, _ = run(capsys, "compare", path, shifted)
    assert (code, json.loads(out)["obstruction"]["kind"]) == (1, "F_VALUES")


def _annulus_files(capsys, tmp_path, id_shift=0):
    """Annulus mesh with its vertex ids shifted, its extracted graph, and the
    graph's dashed cycle basis."""
    from reeb_orbit.circulation import dashed_cycle_basis
    from reeb_orbit.models import annulus_mesh
    from reeb_orbit.surface import PLSurface

    s = annulus_mesh()
    s = PLSurface([i + id_shift for i in s.vertex_ids], s.f, s.triangles, s.areas, s.xy)
    mesh_path = tmp_path / "a_mesh.json"
    graph_path = tmp_path / "a_graph.json"
    mesh_path.write_text(serialize.dumps(s.to_dict()))
    code, _, _ = run(capsys, "extract", str(mesh_path), "--samples", "12", "-o", str(graph_path))
    assert code == 0
    basis = dashed_cycle_basis(serialize.load_graph(graph_path.read_text()))
    return mesh_path, graph_path, [list(c) for c in basis]


def _synthesize_and_read_xi(capsys, tmp_path, id_shift=0):
    """The written one-form and the xi output for cycle coordinate 0.9."""
    mesh_path, graph_path, basis = _annulus_files(capsys, tmp_path, id_shift)
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({"circulation": {}, "xi": {"basis": basis, "coords": [0.9]}}))
    form_path = tmp_path / "form.json"
    code, _, _ = run(capsys, "synthesize", str(mesh_path), str(graph_path), str(targets), "-o", str(form_path))
    assert code == 0
    code, out, _ = run(capsys, "xi", str(mesh_path), str(form_path), str(graph_path))
    assert code == 0, out
    return json.loads(form_path.read_text()), json.loads(out)


def test_xi_and_synthesize_pipeline(capsys, tmp_path):
    _, doc = _synthesize_and_read_xi(capsys, tmp_path)
    assert doc["coords"][0] == pytest.approx(0.9, abs=1e-8)


def test_negative_vertex_ids_round_trip(capsys, tmp_path):
    # the reader split keys such as "-1000--999" at every "-", so xi exited 2
    form, doc = _synthesize_and_read_xi(capsys, tmp_path, id_shift=-1000)
    assert all(k.startswith("-") and "--" in k for k in form["edges"])
    assert doc["coords"][0] == pytest.approx(0.9, abs=1e-8)


def test_fractional_xi_basis_id_exits_2(capsys, tmp_path):
    # int() read 3.4 as edge id 3, so synthesize exited 0
    mesh_path, graph_path, basis = _annulus_files(capsys, tmp_path)
    assert basis[0][0] == 3
    basis[0][0] = 3.4
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({"circulation": {}, "xi": {"basis": basis, "coords": [0.9]}}))
    code, out, _ = run(capsys, "synthesize", str(mesh_path), str(graph_path), str(targets))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_string_circulation_target_is_a_parse_error(capsys, tmp_path):
    # float() read "0.5" as a number, which then failed as an InfeasibleTarget
    from reeb_orbit.circulation import dashed_cycle_basis
    from reeb_orbit.models import torus_with_hole_mesh

    mesh_path, graph_path = tmp_path / "mesh.json", tmp_path / "graph.json"
    mesh_path.write_text(serialize.dumps(torus_with_hole_mesh().to_dict()))
    assert run(capsys, "extract", str(mesh_path), "-o", str(graph_path))[0] == 0
    particular = json.loads(run(capsys, "circulation", "solve", str(graph_path))[1])["particular"]
    particular[next(iter(particular))][0] = "0.5"
    basis = [list(c) for c in dashed_cycle_basis(serialize.load_graph(graph_path.read_text()))]
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(
        {"circulation": particular, "xi": {"basis": basis, "coords": [0.0] * len(basis)}}
    ))
    code, out, _ = run(capsys, "synthesize", str(mesh_path), str(graph_path), str(targets))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize("samples", ["1", "0", "-3"])
def test_extract_with_fewer_than_two_samples_exits_2(capsys, samples):
    # extract_reeb raised a bare ValueError, which ended in a traceback
    code, out, _ = run(capsys, "extract", str(DATA / "disk_linear.json"), "--samples", samples)
    assert code == 2
    assert json.loads(out)["error"] == "DataError"


def test_non_canonical_one_form_key_exits_2(capsys, tmp_path):
    # "0u-v" named edge u-v too, so a form could hold one edge under two keys
    form, _ = _synthesize_and_read_xi(capsys, tmp_path)
    key = next(k for k in form["edges"] if not k.startswith("-"))
    form["edges"]["0" + key] = form["edges"].pop(key)
    form_path = tmp_path / "form.json"
    form_path.write_text(json.dumps(form))
    mesh_path, graph_path = tmp_path / "a_mesh.json", tmp_path / "a_graph.json"
    code, out, _ = run(capsys, "xi", str(mesh_path), str(form_path), str(graph_path))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize("mesh", ["torus_with_hole", "fuzz30014"])
def test_one_interval_profiles_synthesize_and_read_back(capsys, tmp_path, mesh):
    # a loaded graph was re-attached by extracting at its own K, and K = 1
    # ended in a ValueError traceback
    from reeb_orbit.circulation import dashed_cycle_basis
    from reeb_orbit.fuzz import random_measured_graph
    from reeb_orbit.models import torus_with_hole_mesh

    if mesh == "torus_with_hole":
        s = torus_with_hole_mesh()
    else:
        s = ro.realize(random_measured_graph(30014, max_events=6), resolution=4).surface
    mesh_path, graph_path = tmp_path / "mesh.json", tmp_path / "graph.json"
    mesh_path.write_text(serialize.dumps(s.to_dict()))
    assert run(capsys, "extract", str(mesh_path), "-o", str(graph_path))[0] == 0
    doc = json.loads(graph_path.read_text())
    for e in doc["edges"]:
        e["cumulative"] = [0.0, e["mass"]]
    graph_path.write_text(serialize.dumps(doc))
    particular = json.loads(run(capsys, "circulation", "solve", str(graph_path))[1])["particular"]
    basis = [list(c) for c in dashed_cycle_basis(serialize.load_graph(graph_path.read_text()))]
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(
        {"circulation": particular, "xi": {"basis": basis, "coords": [0.5] * len(basis)}}
    ))
    form_path = tmp_path / "form.json"
    code, out, _ = run(capsys, "synthesize", str(mesh_path), str(graph_path), str(targets), "-o", str(form_path))
    assert code == 0, out
    code, out, _ = run(capsys, "xi", str(mesh_path), str(form_path), str(graph_path))
    assert code == 0, out
    assert json.loads(out)["coords"] == pytest.approx([0.5] * len(basis), abs=1e-8)


def test_compare_augmented(capsys, tmp_path):
    import reeb_orbit.circulation as circ
    from reeb_orbit.models import annulus_mesh

    s = annulus_mesh()
    g = ro.extract_reeb(s, samples=12)
    basis = circ.dashed_cycle_basis(g)
    a1 = circ.augment(s, circ.synthesize_form(s, g, circ.CirculationFunction({}), circ.XiClass(basis, np.array([0.5]))), g)
    a2 = circ.augment(s, circ.synthesize_form(s, g, circ.CirculationFunction({}), circ.XiClass(basis, np.array([1.5]))), g)
    p1, p2 = tmp_path / "a1.json", tmp_path / "a2.json"
    p1.write_text(serialize.dumps(serialize.augmented_to_dict(a1)))
    p2.write_text(serialize.dumps(serialize.augmented_to_dict(a2)))
    code, out, _ = run(capsys, "compare", str(p1), str(p1), "--augmented")
    assert code == 0
    code, out, _ = run(capsys, "compare", str(p1), str(p2), "--augmented")
    assert code == 1
    assert json.loads(out)["obstruction"]["kind"] == "XI"


def test_fuzz_command(capsys):
    code, out, _ = run(capsys, "fuzz", "--cases", "4", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_fuzz_deterministic(capsys):
    _, out1, _ = run(capsys, "fuzz", "--cases", "3", "--seed", "11")
    _, out2, _ = run(capsys, "fuzz", "--cases", "3", "--seed", "11")
    assert out1 == out2


def test_usage_error(capsys):
    code, _, _ = run(capsys, "compare", "/nonexistent/a.json", "/nonexistent/b.json")
    assert code == 2


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"
    bad2 = tmp_path / "targets.json"
    bad2.write_text('{"circulation": "oops"}')
    code, _, _ = run(capsys, "circulation", "check", str(DATA / "fig2.json"), str(bad2))
    assert code == 2


def _edited_copy(tmp_path, name, edit):
    doc = json.loads((DATA / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_cyclic_orders_list_exits_2(capsys, tmp_path):
    path = _edited_copy(tmp_path, "fig2.json", lambda d: d.update(cyclic_orders=[[1, 2, 3]]))
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_stated_mass_off_profile_exits_2(capsys, tmp_path):
    def edit(doc):
        doc["edges"][0]["mass"] = 123.0

    path = _edited_copy(tmp_path, "fig2.json", edit)
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "DataError"


def _assert_solve_refuses(capsys, tmp_path, edit):
    # `circulation solve` only loads the graph, so the load itself must refuse
    path = _edited_copy(tmp_path, "fig2.json", edit)
    code, out, _ = run(capsys, "circulation", "solve", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "DataError"


def test_nan_inside_cumulative_exits_2(capsys, tmp_path):
    def edit(doc):
        doc["edges"][0]["cumulative"][2] = float("nan")

    _assert_solve_refuses(capsys, tmp_path, edit)


def test_inf_last_sample_exits_2(capsys, tmp_path):
    # the stated mass stays finite, and inf passes its relative check
    def edit(doc):
        doc["edges"][0]["cumulative"][-1] = float("inf")

    _assert_solve_refuses(capsys, tmp_path, edit)


def test_minus_inf_vertex_value_exits_2(capsys, tmp_path):
    def edit(doc):
        min(doc["vertices"], key=lambda v: v["f"])["f"] = float("-inf")

    _assert_solve_refuses(capsys, tmp_path, edit)


@pytest.mark.parametrize(
    "field, message",
    [
        # max |f| = 1e308, so total mass times the field range overflows
        (lambda f: f * 2e307, "total mass 6.3 times field range 1e+308 is not finite"),
        # a range of 5e305 near 1.79e308: the scale is finite, edge 1's mass of
        # 1.1 times its field values is not
        (lambda f: 1.79e308 - (5.0 - f) * 1e305, "field moment of edge 1 is not finite"),
        # near 1e308 every moment is finite, edge 1's is about 1.1e308, but
        # their sum, which bounds the solve's node sums, is not
        (lambda f: 1e308 - (5.0 - f) * 1e305,
         "sum of the solid edges' absolute field moments is not finite"),
    ],
    ids=["range", "moment", "moment-sum"],
)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_circulation_with_an_overflowing_scale_exits_2(capsys, tmp_path, field, message):
    # at max |f| = 1e308 the solve wrote -Infinity and NaN, and the check's
    # tolerance overflowed to inf and accepted any limits
    def edit(doc):
        for v in doc["vertices"]:
            v["f"] = field(v["f"])

    graph = str(_edited_copy(tmp_path, "fig2.json", edit))
    limits = tmp_path / "limits.json"
    limits.write_text(json.dumps({"circulation": {k: [12345.0, -6789.0] for k in ("1", "2", "3", "6")}}))
    for argv in (["circulation", "solve", graph], ["circulation", "check", graph, str(limits)]):
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": "DataError", "message": message}


@pytest.mark.parametrize(
    "top, message",
    [
        # the band midpoint overflowed to inf and extraction raised KeyError
        (1e308, "edge 1: field range from -1e+308 to 1e+308 is not finite"),
    ],
)
def test_extract_with_an_overflowing_field_exits_2(capsys, tmp_path, top, message):
    def edit(doc):
        scale = max(abs(v["f"]) for v in doc["vertices"])
        for v in doc["vertices"]:
            v["f"] = v["f"] / scale * top

    code, out, _ = run(capsys, "extract", str(_edited_copy(tmp_path, "disk_linear.json", edit)))
    assert code == 2
    assert json.loads(out) == {"error": "DataError", "message": message}


def test_extract_near_the_top_of_double_range_measures_the_field(capsys, tmp_path):
    # at max |f| = 1e300 the products of the clipped-area formula overflowed,
    # and extract exited 2 with "profile samples must be finite"
    def edit(doc):
        scale = max(abs(v["f"]) for v in doc["vertices"])
        for v in doc["vertices"]:
            v["f"] = v["f"] / scale * 1e300

    code, out, _ = run(capsys, "extract", str(_edited_copy(tmp_path, "disk_linear.json", edit)))
    assert code == 0
    _, plain, _ = run(capsys, "extract", str(DATA / "disk_linear.json"))
    for got, want in zip(json.loads(out)["edges"], json.loads(plain)["edges"], strict=True):
        assert np.allclose(got["cumulative"], want["cumulative"], rtol=0.0, atol=1e-12 * want["mass"])


@pytest.mark.parametrize(
    "pair, message",
    [
        # the limits are finite, the Kirchhoff sum at vertex 2 is not
        ([1.7e308, 1.7e308], "Kirchhoff residual at vertex 2 is not finite"),
        # head minus tail is beyond double range
        ([-9e307, 9e307], "Newton-Leibniz residual of edge 1 is not finite"),
    ],
    ids=["kirchhoff", "newton-leibniz"],
)
def test_circulation_check_with_overflowing_residuals_exits_2(capsys, tmp_path, pair, message):
    # math.fsum raised OverflowError on both, and the command ended in a traceback
    limits = tmp_path / "limits.json"
    limits.write_text(json.dumps({"circulation": {k: pair for k in ("1", "2", "3", "6")}}))
    code, out, _ = run(capsys, "circulation", "check", str(DATA / "fig2.json"), str(limits))
    assert code == 2
    assert json.loads(out) == {"error": "DataError", "message": message}


def test_one_coordinate_xy_exits_2(capsys, tmp_path):
    def edit(doc):
        doc["vertices"][0]["xy"] = [0.0]

    path = _edited_copy(tmp_path, "disk_linear.json", edit)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_empty_cumulative_exits_2(capsys, tmp_path):
    # the stated-mass check used to read the last sample of an empty profile
    path = _edited_copy(tmp_path, "fig2.json", lambda d: d["edges"][0].update(cumulative=[]))
    for argv in (
        ["invariants", str(path)],
        ["circulation", "solve", str(path)],
        ["compare", str(path), str(path)],
        ["dot", str(path)],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out) == {
            "error": "InvalidGraph",
            "message": "profile needs at least two samples",
        }


@pytest.mark.parametrize("member", [{"vertices": True}, {"vertices": 3}, {"triangles": None}])
def test_mesh_members_that_are_not_lists_exit_2(capsys, tmp_path, member):
    path = _edited_copy(tmp_path, "disk_linear.json", lambda d: d.update(member))
    for argv in (["validate", str(path)], ["extract", str(path)]):
        code, out, _ = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize(
    "name, edit, argv",
    [
        # int() or float() used to coerce each edited value back to the one
        # it replaced, so these files loaded as the originals and exited 0
        ("disk_linear.json", lambda d: d["vertices"][5].update(id=float(d["vertices"][5]["id"])),
         ["validate"]),
        ("disk_linear.json", lambda d: d["triangles"][0].update(area=str(d["triangles"][0]["area"])),
         ["extract"]),
        ("disk_linear.json", lambda d: d["vertices"][0].update(f=False), ["validate"]),
        ("fig2.json", lambda d: d["edges"][0]["cumulative"].__setitem__(0, False), ["invariants"]),
        ("fig2.json", lambda d: d["edges"][1]["cumulative"].__setitem__(3, str(d["edges"][1]["cumulative"][3])),
         ["circulation", "solve"]),
    ],
    ids=["id-float", "area-str", "f-bool", "sample-bool", "sample-str"],
)
def test_non_numeric_json_fields_exit_2(capsys, tmp_path, name, edit, argv):
    path = _edited_copy(tmp_path, name, edit)
    code, out, _ = run(capsys, *argv, str(path))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def _rekey(orders, key, new_key):
    orders[new_key] = orders.pop(key)


@pytest.mark.parametrize(
    "edit",
    [
        # int(), float() or str() read each of these as a value of the right
        # type, so the edited graph loaded
        lambda d: d["edges"][0].update(tail=1.4),
        lambda d: d["vertices"][0].update(f="0.0"),
        lambda d: d["vertices"][0].update(id=True),
        lambda d: d["edges"][0].update(id="1"),
        lambda d: d["edges"][0].update(mass="0.7"),
        lambda d: d["cyclic_orders"]["3"].__setitem__(0, 2.3),
        lambda d: d["cyclic_orders"]["3"].__setitem__(0, "2"),
        lambda d: _rekey(d["cyclic_orders"], "2", " 2"),
    ],
    ids=["tail-float", "f-str", "id-bool", "edge-id-str", "mass-str", "order-id-float",
         "order-id-str", "order-key-padded"],
)
def test_graph_fields_off_their_json_type_exit_2(capsys, tmp_path, edit):
    path = _edited_copy(tmp_path, "fig4a.json", edit)
    for argv in (["invariants"], ["circulation", "solve"]):
        code, out, _ = run(capsys, *argv, str(path))
        assert code == 2, argv
        assert json.loads(out)["error"] == "ParseError"


def test_circulation_keys_naming_one_edge_twice_exit_2(capsys, tmp_path):
    # "01" read as edge 1 too, and the later pair replaced the earlier one:
    # the check exited 1 with max_residual 9.5 from the overwritten pair
    particular = json.loads(run(capsys, "circulation", "solve", str(DATA / "fig2.json"))[1])
    limits = dict(particular["particular"], **{"01": [9.0, 9.5]})
    payload = tmp_path / "circ.json"
    payload.write_text(json.dumps({"circulation": limits}))
    code, out, _ = run(capsys, "circulation", "check", str(DATA / "fig2.json"), str(payload))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


@pytest.mark.parametrize("listed", ["edges", "vertices"])
def test_reordered_graph_files_synthesize_and_read_back(capsys, tmp_path, listed):
    # the graph was matched to its mesh's extraction by list position, so
    # either reversed list failed as "graph does not match"
    from reeb_orbit.circulation import dashed_cycle_basis
    from reeb_orbit.models import torus_with_hole_mesh

    mesh_path, graph_path = tmp_path / "mesh.json", tmp_path / "graph.json"
    mesh_path.write_text(serialize.dumps(torus_with_hole_mesh().to_dict()))
    assert run(capsys, "extract", str(mesh_path), "-o", str(graph_path))[0] == 0
    doc = json.loads(graph_path.read_text())
    doc[listed].reverse()
    graph_path.write_text(serialize.dumps(doc))
    particular = json.loads(run(capsys, "circulation", "solve", str(graph_path))[1])["particular"]
    basis = [list(c) for c in dashed_cycle_basis(serialize.load_graph(graph_path.read_text()))]
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps(
        {"circulation": particular, "xi": {"basis": basis, "coords": [0.5] * len(basis)}}
    ))
    form_path = tmp_path / "form.json"
    code, out, _ = run(capsys, "synthesize", str(mesh_path), str(graph_path), str(targets), "-o", str(form_path))
    assert code == 0, out
    code, out, _ = run(capsys, "xi", str(mesh_path), str(form_path), str(graph_path))
    assert code == 0, out
    assert json.loads(out)["coords"] == pytest.approx([0.5] * len(basis), abs=1e-8)


def test_every_input_is_decoded_as_meshes_are(capsys, tmp_path):
    # a byte-order mark was skipped in a mesh file but a parse error in a
    # graph file, which went through a second decoding path
    for name, argv in (("disk_linear.json", ["validate"]), ("fig2.json", ["invariants"])):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
        assert run(capsys, *argv, str(path))[:2] == run(capsys, *argv, str(DATA / name))[:2]


@pytest.mark.parametrize("pair", [[0.5], [10**400, 0.0]], ids=["short", "huge"])
def test_bad_circulation_pairs_exit_2(capsys, tmp_path, pair):
    # a one-element pair raised IndexError and a huge integer OverflowError
    data = tmp_path / "targets.json"
    data.write_text(json.dumps({"circulation": {"1": pair}}))
    for argv in (
        ["circulation", "check", str(DATA / "fig2.json"), str(data)],
        ["synthesize", str(DATA / "disk_linear.json"), str(DATA / "fig2.json"), str(data)],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == "ParseError"


def test_invariants_builds_no_surface(capsys, monkeypatch):
    from reeb_orbit import realization

    def refuse(*args, **kwargs):
        raise AssertionError("invariants realized a surface")

    monkeypatch.setattr(realization, "realize", refuse)
    code, out, _ = run(capsys, "invariants", str(DATA / "fig2.json"))
    assert code == 0
    assert json.loads(out)["genus_realize"] == 1


@pytest.mark.parametrize("name", ["fig2", "fig4a", "closed_torus"])
def test_invariants_walks_the_boundary_and_counts_homology_once(capsys, monkeypatch, name):
    # the formula value, sigma and the orbit dimension share one boundary-cycle
    # walk and one homology count, whether or not the formula is an integer
    from reeb_orbit import graph_core

    calls = {"boundary_cycles": 0, "homology_dims": 0}
    for fn in calls:
        original = getattr(graph_core, fn)

        def counting(*args, _fn=fn, _original=original):
            calls[_fn] += 1
            return _original(*args)

        monkeypatch.setattr(graph_core, fn, counting)
    code, out, _ = run(capsys, "invariants", str(DATA / f"{name}.json"))
    assert code == 0
    assert calls == {"boundary_cycles": 1, "homology_dims": 1}
    doc = json.loads(out)
    g = serialize.load_graph((DATA / f"{name}.json").read_bytes())
    assert doc["genus_formula"]["value"] == graph_core.genus_formula_value(g)
    assert doc["orbit_moduli_dimension"] == graph_core.orbit_moduli_dimension(g)


def test_non_alternating_iv_order_exits_2(capsys, tmp_path):
    from reeb_orbit.fuzz import random_measured_graph

    doc = serialize.graph_to_dict(random_measured_graph(0, max_events=10))
    a, b, c, d = doc["cyclic_orders"]["6"]
    doc["cyclic_orders"]["6"] = [a, c, b, d]
    path = tmp_path / "iv.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 2
    assert json.loads(out) == {
        "error": "InvalidGraph",
        "message": "vertex 6: cyclic order does not alternate below/above edges; "
        "no surface realizes it",
    }


def test_pinched_vertex_exits_2(capsys, tmp_path):
    # vertex 1 is the centre of two closed fans, one above it and one below
    upper, lower = [2, 3, 4, 5, 6], [7, 8, 9, 10, 11]
    doc = {
        "vertices": [{"id": 1, "f": 0.0}]
        + [{"id": v, "f": 1.0 + 0.01 * k} for k, v in enumerate(upper)]
        + [{"id": v, "f": -1.0 - 0.01 * k} for k, v in enumerate(lower)],
        "triangles": [
            {"v": [1, rim[k], rim[(k + 1) % 5]], "area": 1.0}
            for rim in (upper, lower)
            for k in range(5)
        ],
    }
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)], ["extract", str(path), "--samples", "12"]):
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {
            "error": "TopologyError",
            "message": "non-manifold star at vertex 1",
        }


# runs each command line of argv[1] through cli.main, then reports the exit
# codes and the scipy modules the process imported; with argv[2] set, every
# import of scipy fails first
_COMMANDS_CHILD = """
import contextlib, importlib.abc, io, json, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

if sys.argv[2:]:
    sys.meta_path.insert(0, NoScipy())
from reeb_orbit import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _run_commands_in_child(commands, *block):
    src = str(Path(ro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _COMMANDS_CHILD, json.dumps(commands), *block],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def every_command(tmp_path_factory):
    """One command line per CLI command, on a realized fig2 mesh and its
    extracted graph, with the exit code of each."""
    from reeb_orbit.circulation import dashed_cycle_basis, exact_form

    tmp_path = tmp_path_factory.mktemp("commands")
    disk, fig2, fig4a, fig4b = (str(DATA / f"{name}.json") for name in ("disk_linear", "fig2", "fig4a", "fig4b"))
    mesh, graph, form, circ, targets = (str(tmp_path / f"{name}.json") for name in ("mesh", "graph", "form", "circ", "targets"))
    s = ro.realize(serialize.load_graph(Path(fig2).read_bytes()), resolution=4).surface
    Path(mesh).write_text(serialize.dumps(s.to_dict()))
    g = ro.extract_reeb(s, samples=8)
    Path(graph).write_text(serialize.dumps(serialize.graph_to_dict(g)))
    Path(form).write_text(serialize.dumps(serialize.oneform_to_dict(exact_form(s, s.f))))
    solved = ro.solve_circulations(g).particular.limits
    particular = {str(eid): list(pair) for eid, pair in sorted(solved.items())}
    Path(circ).write_text(json.dumps({"circulation": particular}))
    basis = [list(c) for c in dashed_cycle_basis(g)]
    Path(targets).write_text(json.dumps(
        {"circulation": particular, "xi": {"basis": basis, "coords": [0.0] * len(basis)}}
    ))
    commands = [
        ["validate", disk],
        ["extract", disk, "--samples", "8"],
        ["invariants", fig2],
        ["compare", fig4a, fig4b],
        ["circulation", "solve", graph],
        ["circulation", "check", graph, circ],
        ["synthesize", mesh, graph, targets],
        ["xi", mesh, form, graph],
        ["dot", fig2],
        ["realize", fig2, "--resolution", "4"],
        ["fuzz", "--cases", "1"],
    ]
    return commands, [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]


def test_no_command_imports_scipy(every_command):
    # synthesis solves on the dual spanning tree, so no command needs scipy
    commands, codes = every_command
    assert _run_commands_in_child(commands) == {"codes": codes, "scipy": []}


def test_every_command_runs_with_scipy_blocked(every_command):
    # scipy is a test dependency only: every command keeps its exit code in a
    # process where importing it fails
    commands, codes = every_command
    assert _run_commands_in_child(commands, "block") == {"codes": codes, "scipy": []}


def test_extract_payload_byte_identical(capsys):
    _, out1, _ = run(capsys, "extract", str(DATA / "disk_linear.json"), "--samples", "8")
    _, out2, _ = run(capsys, "extract", str(DATA / "disk_linear.json"), "--samples", "8")
    assert out1 == out2


def test_graph_json_roundtrip(fig2):
    doc = serialize.graph_to_dict(fig2)
    g2 = serialize.graph_from_dict(json.loads(json.dumps(doc)))
    assert serialize.graph_to_dict(g2) == doc


def test_fixture_files_match_builders(fig2, fig4a, fig4b, closed_torus):
    names = {
        "fig2.json": fig2,
        "fig4a.json": fig4a,
        "fig4b.json": fig4b,
        "closed_torus.json": closed_torus,
    }
    for name, g in names.items():
        on_disk = json.loads((DATA / name).read_text())
        assert on_disk == serialize.graph_to_dict(g)
