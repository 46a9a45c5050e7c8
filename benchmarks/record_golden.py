"""Write ``golden.json``: the outputs of the current program, as the record.

    python3 benchmarks/record_golden.py

Run it only on a commit whose outputs are known to be right; every
benchmark run is checked against what it writes.  For the exhaustive
workloads it keeps the exit code, the sha256 of the output file and the
anomaly and candidate counts; for ``compute_large`` the sha256 of the
output for each of the first ``COMPUTE_SEEDS`` seeds.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

from run import RUN_LIMIT_S, WORK, run_child
from workloads import GOLDEN_PATH, SIZES, WORKLOADS, Workload, sha256_file

COMPUTE_SEEDS = 20


def record(wl: Workload, seed: int) -> tuple[int, str, str]:
    work = WORK / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report, err = run_child(wl, seed, "verb", work, time.perf_counter() + RUN_LIMIT_S)
    if report is None:
        sys.exit(f"{wl.name} failed: {err}")
    with open(report["out"]) as fh:
        text = fh.read()
    return report["rc"], sha256_file(report["out"]), text


def main() -> None:
    golden: dict = {}
    for size in SIZES:
        golden[size] = {}
        for name in WORKLOADS:
            wl = Workload(name, size)
            if name == "compute_large":
                by_seed = {}
                for seed in range(COMPUTE_SEEDS):
                    rc, digest, _ = record(wl, seed)
                    if rc != 0:
                        sys.exit(f"compute exited {rc} on seed {seed}")
                    by_seed[str(seed)] = digest
                golden[size][name] = {"exit": 0, "sha256_by_seed": by_seed}
                continue
            rc, digest, text = record(wl, 0)
            if name.startswith("sweep_") and rc != 0:
                sys.exit(f"{name} reports anomalies; not recording it")
            counts = {"anomalies": 0}
            if wl.output_format == "json":
                doc = json.loads(text)
                counts["anomalies"] = len(doc.get("anomalies", ()))
                if "candidates" in doc:
                    counts["candidates"] = len(doc["candidates"])
            golden[size][name] = {"exit": rc, "sha256": digest, "counts": counts}
            print(size, name, golden[size][name], flush=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
