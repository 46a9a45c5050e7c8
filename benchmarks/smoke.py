"""Fast check of the benchmark harness itself, on tiny ranges.

    python3 benchmarks/smoke.py

Runs every workload at t <= 2, entries <= 3 (20 compute matrices) with
tracing off and on, and checks that every metric prints with its unit,
that a tampered output file is reported as failed, and that the
benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

from run import END_TO_END, HERE, LAYER_UNITS, RUN_LIMIT_S, WORK, contract_names, run_child
from workloads import WORKLOADS, Workload, check_output, load_golden


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--size", "tiny", "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


class Harness(unittest.TestCase):
    def assert_metrics(self, proc: subprocess.CompletedProcess, units: dict,
                       section: str) -> None:
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        listed = {k: u for k, u in units.items() if k in contract_names(section)}
        self.assertEqual(set(listed), contract_names(section))
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, listed)
        text = "\n".join(lines[:-1])
        for name, unit in units.items():
            self.assertRegex(text, rf"{name}: \S+ {unit}\b")

    def test_end_to_end_metrics(self) -> None:
        for name in WORKLOADS:
            with self.subTest(workload=name):
                proc = bench("--workload", name, "--seconds", "0.1", "--trace", "0")
                self.assert_metrics(proc, END_TO_END, "end_to_end")
                self.assertIn("failed_share: 0 share", proc.stdout)

    def test_layer_metrics(self) -> None:
        for name in WORKLOADS:
            with self.subTest(workload=name):
                proc = bench("--workload", name, "--trace", "1")
                self.assert_metrics(proc, LAYER_UNITS, "per_layer")

    def test_tampered_output_fails(self) -> None:
        golden = load_golden()
        for name in WORKLOADS:
            with self.subTest(workload=name):
                wl = Workload(name, "tiny")
                work = WORK / "smoke"
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                docs = wl.input_docs(3)
                report, err = run_child(wl, 3, "verb", work, time.perf_counter() + RUN_LIMIT_S)
                out = report["out"]
                ok = check_output(wl, golden, 3, report["rc"], err, out, docs)
                self.assertEqual(ok.failed, 0, ok.problems)
                text = Path(out).read_text()
                Path(out).write_text(text.replace("1", "2", 1))
                bad = check_output(wl, golden, 3, report["rc"], err, out, docs)
                self.assertGreater(bad.failed, 0)

    def test_refuses_without_sources(self) -> None:
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("_work"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = bench("--workload", "sweep_cm2", "--seconds", "1", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
