"""The example scripts run end to end as a user runs them."""

import math
import os
import subprocess
import sys
from pathlib import Path

import reeb_orbit
from reeb_orbit.fixtures import ALL_GRAPH_FIXTURES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name: str, *args: str) -> str:
    # the package is found where this test imported it from, installed or not
    src = str(Path(reeb_orbit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "MISMATCH" not in done.stdout
    return done.stdout


def test_worked_examples_script():
    table, round_trips, _ = _run_script("worked_examples.py").split("\n\n")
    names = list(ALL_GRAPH_FIXTURES)
    assert [line.split()[0] for line in table.splitlines()[1:]] == names
    assert [line.split()[0] for line in round_trips.splitlines()[1:]] == names
    assert all(line.endswith("isomorphic") for line in round_trips.splitlines()[1:])


def test_asymptotics_report_script():
    fits, saddles = _run_script("asymptotics_report.py", "--samples", "16", "--window", "8").split("\n\n")
    # four minimum models, then three saddle models, one row each
    assert len(fits.splitlines()) == 1 + 4
    assert len(saddles.splitlines()) == 1 + 3
    for line in fits.splitlines()[1:] + saddles.splitlines()[1:]:
        *_, vtype, a, b, c = line.split()
        assert vtype in {"I", "IV", "VI", "VII"}
        assert all(math.isfinite(float(x)) for x in (a, b, c))
