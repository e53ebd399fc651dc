import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("where", ["src/reeb_orbit", "benchmark"])
def test_bytecode_caches_stop_the_script_before_any_run(tmp_path, monkeypatch, where):
    bench_pairs = load_script()
    spec = {"run_seconds": 1, "workloads": [{"name": "graph-algebra"}], "end_to_end": []}
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "reeb_orbit").mkdir(parents=True)
        (tmp_path / side / "benchmark").mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    cache = tmp_path / "parent" / where / "__pycache__"
    cache.mkdir()
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: runs.append(args))

    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--pr", "0"])
    assert str(tmp_path / "parent") in str(exc.value) and str(cache) in str(exc.value)
    assert runs == []
    assert not (tmp_path / "change" / "BENCH_0.json").exists()


def test_runs_write_no_bytecode(tmp_path, monkeypatch):
    bench_pairs = load_script()
    seen = {}

    class Done:
        returncode = 0
        stdout = '{"metrics": {}}\n'
        stderr = ""

    def fake_run(argv, **kwargs):
        seen.update(kwargs)
        return Done()

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_once(tmp_path, "graph-algebra", 1) == {"metrics": {}}
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
