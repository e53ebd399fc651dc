"""Benchmark of the reeb-orbit command line pipelines.

    python3 benchmark/run.py --workload remap-classify --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and README.md) in this process, with
one thread, on inputs it generates from ``--seed`` under ``.benchrun/``.
Each job calls ``reeb_orbit.cli.main`` as a user would call the commands; the
pool of cases is cycled in whole rounds until the jobs have taken
``--seconds`` seconds (scaled, see below) and there are enough jobs for the
tail percentile.
Every job's outputs are checked after its round, outside the timed region.

The machine this benchmark is calibrated on changes speed by tens of percent
over seconds to minutes.  So after every job, outside the timed region, the
run times ``reference()``, a fixed computation that does not touch the
program, and every time it reports is scaled to nominal speed: multiplied by
``REFERENCE_S`` over the median reference time of the same round (or set-up
pass).  See README.md for what this does to the spread.

With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
reported.  With ``--trace 1`` rounds alternate between untraced and traced,
and the per-layer metrics (per traced job) and the tracing overhead are
reported; the spans are written to ``.benchrun/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress and check
failures go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import spans

# Set-up passes per run; setup_s reports their median.  The first comes
# before the first timed job, the others after every other round, so that
# they fall into different speed phases of the machine (see README.md).
SETUP_PASSES = 5
MAX_MEASURE_S = 120.0  # stop measuring after this long, however few jobs ran
# Median time of reference() on the reference machine at nominal speed.
REFERENCE_S = 0.0037
_REFERENCE_DOC = {"v": [{"id": i, "f": i * 0.37, "xy": [i * 0.1, i * 0.2]} for i in range(200)]}
# the names of workloads.WORKLOADS, so that arguments are checked before the timed import
WORKLOAD_NAMES = ("remap-classify", "orbit-synthesis", "graph-algebra")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_job(workload, case) -> tuple[float, float, dict | None]:
    """Time the reference and then one job; the outcome is None when a step
    did not complete.

    Both start from a collected heap, as a fresh CLI process would, so that
    neither pays for collecting the previous job's garbage."""
    from workloads import JobFailed

    gc.collect()
    ref = reference()
    start = time.perf_counter()
    try:
        out = workload.run(case)
    except JobFailed as exc:
        out = None
        log(f"job {case.name} failed: {exc}")
    except Exception:  # a crash inside the program fails this job, not the run
        out = None
        log(f"job {case.name} raised:\n{traceback.format_exc()}")
    return time.perf_counter() - start, ref, out


def reference() -> float:
    """Wall time of a fixed mix of dict, float, numpy and JSON work, like the
    program's own, that the program cannot change."""
    import numpy as np

    start = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(2500):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i * 1.0001) ** 0.5
    sorted(table.items(), key=lambda kv: kv[1])
    a = np.arange(200.0)
    for _ in range(8):
        a = np.cumsum(a) / (1.0 + a.sum())
    json.loads(json.dumps(_REFERENCE_DOC))
    return time.perf_counter() - start


def speed_scale() -> float:
    """Factor that scales a time measured just now to nominal speed."""
    gc.collect()
    return REFERENCE_S / statistics.median(reference() for _ in range(9))


def is_time(name: str) -> bool:
    return name.rsplit(".", 1)[1] in ("s", "self_s")


def quantile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "reeb_orbit" / "__init__.py").is_file():
        log(f"cannot find the reeb_orbit sources under {src}")
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import reeb_orbit

    if Path(reeb_orbit.__file__).resolve().parent != (src / "reeb_orbit").resolve():
        log(f"imported reeb_orbit from {reeb_orbit.__file__}, not from {src}")
        return 2
    import workloads

    import_s = time.perf_counter() - t0

    workload = workloads.WORKLOADS[args.workload]
    work = root / ".benchrun" / f"{workload.name}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    passes: list[tuple[float, float]] = []  # wall time and speed scale of each pass

    def set_up() -> list:
        """Generate and write the inputs, then run one warm-up job."""
        start = time.perf_counter()
        cases = workload.build(work, args.seed)
        run_job(workload, cases[0])  # the same warm-up case for every seed
        random.Random(args.seed).shuffle(cases)
        passes.append((time.perf_counter() - start, speed_scale()))
        return cases

    cases = set_up()
    # set-up objects stay alive for the checks; keep the collector off them
    gc.collect()
    gc.freeze()
    log(f"{workload.name}: {len(cases)} cases")

    tracer = spans.Tracer() if args.trace else None
    pct = workload.tail_pct
    min_jobs = -(-10 * 100 // (100 - pct))  # at least ten jobs beyond the tail percentile
    times = {False: [], True: []}  # scaled job times, untraced and traced
    by_case: dict[str, list[float]] = {c.name: [] for c in cases}
    traced_rounds: list[tuple[set[int], float]] = []  # jobs and speed scale
    scales: list[float] = []
    attempted = 0
    failed = {False: 0, True: 0}  # failed jobs, untraced and traced
    errors: list[str] = []
    measure_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(traced_rounds) < len(times[False]) // len(cases)
        round_jobs: set[int] = set()
        outcomes = []
        walls, refs = [], []
        if traced:
            tracer.install()
        try:
            for case in cases:
                if traced:
                    tracer.job = attempted
                    round_jobs.add(attempted)
                elapsed, ref, out = run_job(workload, case)
                refs.append(ref)
                attempted += 1
                walls.append(elapsed)
                outcomes.append((case, out))
        finally:
            if traced:
                tracer.uninstall()
        scale = REFERENCE_S / statistics.median(refs)
        scales.append(scale)
        if traced:
            traced_rounds.append((round_jobs, scale))
        for case, wall in zip(cases, walls):
            times[traced].append(wall * scale)
            by_case[case.name].append(wall * scale)
        for case, out in outcomes:
            if out is None:
                failed[traced] += 1
                continue
            for err in workload.check(case, out):
                errors.append(f"{case.name}: {err}")
                log(f"CHECK FAILED {case.name}: {err}")
        done = sum(times[False] + times[True]) >= args.seconds
        if tracer is None:
            done = done and len(times[False]) >= min_jobs
        else:  # as many traced as untraced rounds, at least two of each
            done = done and len(traced_rounds) >= 2 and len(times[True]) == len(times[False])
        if done:
            while len(passes) < SETUP_PASSES:
                set_up()
            break
        if len(passes) < SETUP_PASSES and (attempted // len(cases)) % 2 == 1:
            set_up()  # rewrites the same inputs; the cases in use stay
        if time.perf_counter() - measure_start > MAX_MEASURE_S:
            log(f"stopped after {MAX_MEASURE_S} s with {attempted} jobs")
            break

    for case in cases:
        log(f"  {case.name:>22} {case.size} median {statistics.median(by_case[case.name]):.4f} s (scaled)")
    setup_s = import_s * passes[0][1] + statistics.median(wall * k for wall, k in passes)
    log(f"import {import_s:.3f} s, set-up passes {[round(wall, 3) for wall, _ in passes]} s (wall)")
    log(f"speed scale per round {[round(k, 3) for k in scales]}, per pass {[round(k, 3) for _, k in passes]}")
    n_failed = failed[False] + failed[True]
    result = {"correct": not errors, "attempted": attempted, "failed": n_failed}
    plain = times[False]
    log(
        f"{attempted} jobs in {attempted // len(cases)} rounds, {n_failed} failed; "
        f"tail = p{pct} of {len(plain)} untraced jobs"
    )
    if tracer is None:
        metrics = {
            "jobs_per_s": ((len(plain) - failed[False]) / sum(plain), "1/s"),
            "job_p50_s": (statistics.median(plain), "s"),
            "job_tail_s": (quantile(plain, pct), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, traced_rounds, workload.expected_counts, times)
        trace_path = root / ".benchrun" / f"trace-{workload.name}-{args.seed}.json"
        tracer.write(trace_path)
        log(f"spans written to {trace_path}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, rounds: list[tuple[set[int], float]], expected: dict[str, int], times: dict) -> dict:
    """Per-job layer figures over the traced rounds, with times scaled to
    nominal speed, the tracing overhead, and the number of trace checks that
    failed."""
    per_round = [tracer.totals(jobs) for jobs, _ in rounds]
    n = sum(len(jobs) for jobs, _ in rounds)
    totals: Counter = Counter()
    for tot, (_, scale) in zip(per_round, rounds):
        for name, value in tot.items():
            totals[name] += value * scale if is_time(name) else value
    failures = 0
    # counts must repeat exactly from one traced round to the next
    for name in spans.LAYER_METRICS + sorted(expected):
        if is_time(name):
            continue
        values = {tot[name] for tot in per_round}
        if len(values) != 1:
            failures += 1
            log(f"TRACE CHECK FAILED {name}: differs between rounds {sorted(values)}")
    for name, want in expected.items():
        if totals[name] != want * n:
            failures += 1
            log(f"TRACE CHECK FAILED {name}: {totals[name] / n} per job, expected {want}")
    out = {}
    for name in spans.LAYER_METRICS:
        out[name] = (totals[name] / n, "s" if is_time(name) else "count")
    traced_p50 = statistics.median(times[True])
    plain_p50 = statistics.median(times[False])
    out["trace.job_p50_s"] = (traced_p50, "s")
    out["trace.untraced_job_p50_s"] = (plain_p50, "s")
    out["trace.p50_ratio"] = (traced_p50 / plain_p50, "ratio")
    out["trace.check_failures"] = (failures, "count")
    log(f"tracing overhead: p50 {traced_p50:.4f} s traced vs {plain_p50:.4f} s untraced")
    return out


if __name__ == "__main__":
    sys.exit(main())
