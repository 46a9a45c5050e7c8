"""Run the benchmark repeatedly and record how much its figures spread.

    python3 benchmarks/steadiness.py [--first-seed 1] [--out benchmarks/STEADINESS.json]

Each workload of BENCHMARK.json runs ``RUNS`` times as ``run.py
--workload W --seed S --trace 0``, each time with a new seed.  For
every end-to-end metric it records the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json.  Then ``JOBS_CHECK_RUNS`` times, an untraced
hunt verb at --jobs 2 and one at --jobs 1 run on the same range, and
the ratio of their wall times is recorded as ``sweep.jobs2_speedup``.
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

from run import HERE, ROOT, RUN_LIMIT_S, WORK, verb
from workloads import Workload, load_golden

RUNS = 10
JOBS_CHECK_RUNS = 3


def bench(*args: str) -> dict:
    """One run's result, with the run's own wall time added."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = time.perf_counter() - t0
    return result


def hunt_speedup(seed: int) -> float:
    """Wall time of the hunt verb at --jobs 1 over that at --jobs 2."""
    wl = Workload("hunt_prop24_j2", "full")
    work = WORK / wl.name
    work.mkdir(parents=True, exist_ok=True)
    golden = load_golden()
    deadline = time.perf_counter() + RUN_LIMIT_S
    walls = []
    for jobs in (None, 1):
        report, check = verb(wl, seed, golden, work, None, deadline, jobs=jobs)
        if report is None or check.failed:
            raise SystemExit(f"hunt verb at jobs {jobs or 2} failed: {check.problems}")
        walls.append(report["wall_s"])
    return walls[1] / walls[0]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=str(HERE / "STEADINESS.json"))
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    seconds = str(contract["run_seconds"])
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": contract["run_seconds"],
        "recorded": time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime()),
        "workloads": {},
    }
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    for name in [w["name"] for w in contract["workloads"]]:
        runs = [bench("--workload", name, "--seed", str(s), "--seconds", seconds, "--trace", "0")
                for s in seeds]
        entry = {
            "seeds": seeds,
            "failed": sum(r["failed"] for r in runs),
            "max_run_wall_s": max(r["run_wall_s"] for r in runs),
            "metrics": {},
        }
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "values": values,
            }
            print(f"{name} {metric}: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"spread {spread:.4f} (bound {bound})", flush=True)
        record["workloads"][name] = entry

    speedups = [hunt_speedup(s) for s in seeds[:JOBS_CHECK_RUNS]]
    q1, med, q3 = statistics.quantiles(speedups, n=4)
    record["hunt_jobs2_speedup"] = {"median": med, "q1": q1, "q3": q3, "values": speedups}
    print(f"hunt jobs-1 wall / jobs-2 wall: median {med:.4g} (q1 {q1:.4g}, q3 {q3:.4g})")

    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
