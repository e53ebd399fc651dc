import importlib.util
import json
from importlib import metadata
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


def _checkouts(tmp_path, seconds=1):
    spec = {
        "run_seconds": seconds,
        "workloads": [{"name": "graph-algebra"}],
        "end_to_end": [{"name": "jobs_per_s", "unit": "1/s", "better": "higher"}],
    }
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def _result(correct, attempted=10, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"jobs_per_s": {"value": 50.0, "unit": "1/s"}}}


def test_a_run_with_failed_checks_stops_the_script(tmp_path, monkeypatch):
    # benchmark/run.py exits 0 when its checks fail, and such a run's
    # timings were recorded
    bench_pairs = load_script()
    argv = _checkouts(tmp_path)
    runs = []

    def fake_run_once(checkout, workload, seconds):
        runs.append(checkout.name)
        return _result(len(runs) != 3)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv + ["--pr", "0", "--pairs", "2"])
    # pair 2 runs the change first
    assert runs == ["parent", "change", "change"]
    message = str(exc.value)
    assert str(tmp_path / "change") in message
    assert "graph-algebra" in message and "pair 2" in message
    assert not (tmp_path / "change" / "BENCH_0.json").exists()


def test_machine_records_the_decoder_version(tmp_path, monkeypatch):
    # orjson decodes every input file, so its version sets part of the speed
    bench_pairs = load_script()
    argv = _checkouts(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: _result(True))
    assert bench_pairs.main(argv + ["--pr", "0", "--pairs", "2"]) == 0
    machine = json.loads((tmp_path / "change" / "BENCH_0.json").read_text())["machine"]
    assert machine["orjson"] == metadata.version("orjson")
    assert {"nproc", "python", "numpy", "scipy"} <= set(machine)


def test_summary_holds_each_sides_job_totals(tmp_path, monkeypatch):
    bench_pairs = load_script()
    argv = _checkouts(tmp_path)
    totals = {"parent": (10, 0), "change": (12, 1)}

    def fake_run_once(checkout, workload, seconds):
        return _result(True, *totals[checkout.name])

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    assert bench_pairs.main(argv + ["--pr", "0", "--pairs", "3"]) == 0
    summary = json.loads((tmp_path / "change" / "BENCH_0.json").read_text())["workloads"][
        "graph-algebra"]["summary"]
    assert summary["attempted"] == {"parent": 30, "change": 36}
    assert summary["failed"] == {"parent": 0, "change": 3}
    assert summary["jobs_per_s"]["pairs_change_better"] == 0


def test_summary_judges_the_parent_spread_and_the_bound():
    bench_pairs = load_script()
    metrics = [
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
        {"name": "job_p50_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "job_tail_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "setup_s", "unit": "s", "better": "lower"},
    ]
    sides = {
        # medians 50 and 39.5: 21% worse, far beyond the parent's quartiles 49-51
        "jobs_per_s": ([48.0, 49.0, 50.0, 51.0, 52.0], [38.0, 39.0, 39.5, 40.0, 41.0]),
        # medians 0.020 and 0.0202: 1% worse, inside the parent's quartiles 0.0195-0.0205
        "job_p50_s": ([0.019, 0.0195, 0.020, 0.0205, 0.021], [0.0199, 0.0201, 0.0202, 0.0203, 0.0204]),
        # half the parent's median: better by far more than the bound, not worse
        "job_tail_s": ([0.04, 0.04, 0.04, 0.04, 0.04], [0.02, 0.02, 0.02, 0.02, 0.02]),
        # no bound declared; the parent's runs do not spread at all
        "setup_s": ([1.0] * 5, [1.1] * 5),
    }
    pairs = [
        {side: {"metrics": {name: {"value": values[k][i]} for name, values in sides.items()}}
         for k, side in enumerate(("parent", "change"))}
        for i in range(5)
    ]
    summary = bench_pairs.summarize(pairs, metrics)
    judged = {name: (s["medians_differ_beyond_parent_spread"], s["worse_beyond_bound"])
              for name, s in summary.items()}
    assert judged == {
        "jobs_per_s": (True, True),
        "job_p50_s": (False, False),
        "job_tail_s": (True, False),
        "setup_s": (True, None),
    }
