import json
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


def test_circulation_check(capsys, tmp_path):
    code, out, _ = run(capsys, "circulation", "solve", str(DATA / "fig2.json"))
    particular = json.loads(out)["particular"]
    payload = tmp_path / "circ.json"
    payload.write_text(json.dumps({"circulation": particular}))
    code, out, _ = run(capsys, "circulation", "check", str(DATA / "fig2.json"), str(payload))
    assert code == 0
    assert json.loads(out)["ok"] is True


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


def test_xi_and_synthesize_pipeline(capsys, tmp_path):
    mesh_path = tmp_path / "a_mesh.json"
    graph_path = tmp_path / "a_graph.json"
    from reeb_orbit.models import annulus_mesh

    s = annulus_mesh()
    mesh_path.write_text(serialize.dumps(s.to_dict()))
    code, _, _ = run(capsys, "extract", str(mesh_path), "--samples", "12", "-o", str(graph_path))
    assert code == 0
    g = serialize.load_graph(graph_path.read_text())
    from reeb_orbit.circulation import dashed_cycle_basis

    basis = dashed_cycle_basis(g)
    targets = tmp_path / "targets.json"
    targets.write_text(
        json.dumps({"circulation": {}, "xi": {"basis": [list(c) for c in basis], "coords": [0.9]}})
    )
    form_path = tmp_path / "form.json"
    code, _, _ = run(capsys, "synthesize", str(mesh_path), str(graph_path), str(targets), "-o", str(form_path))
    assert code == 0
    code, out, _ = run(capsys, "xi", str(mesh_path), str(form_path), str(graph_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["coords"][0] == pytest.approx(0.9, abs=1e-8)


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


def test_one_coordinate_xy_exits_2(capsys, tmp_path):
    def edit(doc):
        doc["vertices"][0]["xy"] = [0.0]

    path = _edited_copy(tmp_path, "disk_linear.json", edit)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


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
            "message": "non-manifold star at vertex 0",
        }


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
