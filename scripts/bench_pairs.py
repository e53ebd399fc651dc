#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written to ``BENCH_<pr>.json``.

    python3 scripts/bench_pairs.py PARENT CHANGE --pr N

PARENT and CHANGE are two checkouts of the repository (for example the
parent commit unpacked with ``git archive`` and the working tree).  For each
workload named in CHANGE's ``BENCHMARK.json`` the script runs
``benchmark/run.py`` in both checkouts, for that file's ``run_seconds`` and
with ``run.py``'s default seed, one after the other, ``--pairs`` times
(default 10, the fewest pairs a claimed gain is judged on); the side that
goes first alternates from pair to pair, so that a drift in machine speed
does not favour either side.  Each run's last line of
standard output is its result JSON; a run whose checks failed
(``"correct": false``) stops the script, naming the checkout, the workload
and the pair.  The output file holds every pair's end-to-end metrics, the
per-side medians and quartiles, the number of pairs in which the change did
better, whether the medians differ by more than the parent's quartile
spread, whether the change's median is worse than the metric's bound, each
side's total of attempted and failed jobs, and the machine (CPUs, Python,
numpy, scipy, and orjson, which sets the speed of decoding).  It is written
to CHANGE.

The runs write no bytecode (``PYTHONDONTWRITEBYTECODE=1``), and the script
refuses to start while either checkout holds a ``__pycache__`` under ``src/``
or ``benchmark/``: a side that imports cached bytecode starts faster and
reads less memory than one that compiles its sources, which biases
``setup_s`` and ``peak_rss_mb``.

Standard library only; the runs use this interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    """One untraced benchmark run; returns its result JSON."""
    argv = [sys.executable, "benchmark/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout.name}: {' '.join(argv[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def bytecode_caches(checkout: Path) -> list[Path]:
    """``__pycache__`` directories under the checkout's src/ and benchmark/."""
    return sorted(p for sub in ("src", "benchmark") for p in (checkout / sub).rglob("__pycache__"))


def machine() -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "orjson": version("orjson"),
    }


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-side medians and quartiles and, per metric, how many pairs the
    change won (ties count for neither side), whether the medians differ by
    more than the distance between the parent's quartiles, and whether the
    change's median is worse than the parent's by more than the metric's
    ``bound``, a fraction of the parent's median (null when the metric
    declares no bound)."""
    out = {}
    for m in metrics:
        name = m["name"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        higher = m["better"] == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        medians = {side: statistics.median(v) for side, v in values.items()}
        quartiles = {
            side: statistics.quantiles(v, n=4, method="inclusive")[::2] for side, v in values.items()
        }
        ratio = medians["change"] / medians["parent"]
        spread = quartiles["parent"][1] - quartiles["parent"][0]
        worse = None
        if m.get("bound") is not None:
            worse = ratio < 1.0 - m["bound"] if higher else ratio > 1.0 + m["bound"]
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "median": medians,
            "quartiles": quartiles,
            "change_over_parent": ratio,
            "pairs_change_better": wins,
            "medians_differ_beyond_parent_spread": abs(medians["change"] - medians["parent"]) > spread,
            "worse_beyond_bound": worse,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        caches = bytecode_caches(checkout)
        if caches:
            raise SystemExit(f"{side} checkout {checkout} holds bytecode caches, which bias "
                             f"setup_s and peak_rss_mb; remove them first: "
                             f"{', '.join(str(p) for p in caches)}")

    doc = {
        "pr": args.pr,
        "seconds": seconds,
        "pairs_per_workload": args.pairs,
        "machine": machine(),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                start = time.perf_counter()
                result = run_once(checkouts[side], workload, seconds)
                if result.get("correct") is not True:
                    raise SystemExit(f"{side} checkout {checkouts[side]}: workload {workload}, "
                                     f"pair {i + 1}: the run's checks failed (correct: "
                                     f"{result.get('correct')!r}); no timings are recorded")
                pair[side] = result
                values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"{workload} pair {i + 1}/{args.pairs} {side}: {values} "
                      f"({time.perf_counter() - start:.0f} s)", file=sys.stderr, flush=True)
            pairs.append(pair)
        summary = summarize(pairs, spec["end_to_end"])
        for total in ("attempted", "failed"):
            summary[total] = {side: sum(p[side][total] for p in pairs) for side in SIDES}
        doc["workloads"][workload] = {"pairs": pairs, "summary": summary}

    out = args.change / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
