"""The benchmark's workloads, their command lines and their output checks.

Every workload is one verb of ``degmult.cli.main`` run in a fresh
process.  Three are exhaustive ranges with one fixed output, recorded
in ``golden.json``; ``compute_large`` reads a seeded input file, so its
output is checked matrix by matrix against ``inputs.reference_multiplicity``
and, for the seeds the record holds, against a recorded digest as well.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import inputs

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Why each workload is here:
# - sweep_cm2: acceptance 4's code path at a quarter of its size; the
#   extension check and the three cm2 routes dominate, the uv_data
#   cache is live, and the CSV writer runs.
# - sweep_gor3: acceptance 5's exact range; gor3.extend dominates, with
#   no uv cache and no staircase route.
# - hunt_prop24_j2: tiny work per instance, so enumeration, the list
#   the driver builds, pickling to the pool and merging dominate.  The
#   only workload with pool workers, so driver changes show here.
# - compute_large: few matrices of huge degree; K-polynomial division,
#   genus, full_matrix, minimalize and JSON rendering dominate, and the
#   sweep driver is bypassed.  The only workload the seed changes.
WORKLOADS = ("sweep_cm2", "sweep_gor3", "hunt_prop24_j2", "compute_large")

SIZES = {
    "full": {
        "sweep_cm2": {"t_max": 4, "entry_max": 5},
        "sweep_gor3": {"t_max": 3, "entry_max": 5},
        "hunt_prop24_j2": {"t_max": 4, "entry_max": 7},
        "compute_large": {"n": 500, "t_lo": 100, "t_hi": 200, "entry_max": 200},
    },
    "tiny": {
        "sweep_cm2": {"t_max": 2, "entry_max": 3},
        "sweep_gor3": {"t_max": 2, "entry_max": 3},
        "hunt_prop24_j2": {"t_max": 2, "entry_max": 3},
        "compute_large": {"n": 20, "t_lo": 1, "t_hi": 4, "entry_max": 3},
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    size: str

    @property
    def params(self) -> dict:
        return SIZES[self.size][self.name]

    @property
    def family(self) -> str:
        return "gor3" if self.name == "sweep_gor3" else "cm2"

    @property
    def output_format(self) -> str:
        return "csv" if self.name == "sweep_cm2" else "json"

    def input_docs(self, seed: int) -> list[dict] | None:
        if self.name != "compute_large":
            return None
        return inputs.compute_input(seed, **self.params)

    def operations(self) -> int:
        """Operations one verb attempts: instances, or matrices for compute."""
        if self.name == "compute_large":
            return self.params["n"]
        return self.range_counts()[0]

    def range_counts(self) -> tuple[int, int]:
        p = self.params
        return inputs.range_counts(self.family, p["t_max"], p["entry_max"])

    def argv(self, out_path: str, in_path: str, jobs: int | None = None) -> list[str]:
        """The verb's command line; ``jobs`` overrides the workload's own."""
        fmt = ["--format", self.output_format, "--out", out_path]
        if self.name == "compute_large":
            return ["compute", "--in", in_path] + fmt
        p = self.params
        rng = ["--t-max", str(p["t_max"]), "--entry-max", str(p["entry_max"])]
        if self.name == "hunt_prop24_j2":
            return ["hunt", "--target", "prop24_bound"] + rng + ["--jobs", str(jobs or 2)] + fmt
        return ["sweep", f"--{self.family}"] + rng + ["--jobs", str(jobs or 1)] + fmt


@dataclass
class Check:
    """Outcome of checking one verb's output."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def fail_all(self, problem: str) -> None:
        self.failed = self.attempted
        self.problems.append(problem)


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_output(
    wl: Workload,
    golden: dict,
    seed: int,
    returncode: int,
    stderr: str,
    out_path: str,
    docs: list[dict] | None,
) -> Check:
    """Compare one verb's exit code and output file with the record.

    A traceback, an unexpected exit code, a digest or count that differs
    from the record, or a sweep anomaly fails every operation of the
    verb, since none of them can be pinned on one instance.  In
    ``compute_large`` a matrix whose routes disagree or whose value
    differs from the reference fails on its own.
    """
    record = golden[wl.size][wl.name]
    check = Check(attempted=wl.operations())
    if "Traceback (most recent call last)" in stderr:
        check.fail_all("traceback: " + stderr.strip().splitlines()[-1])
        return check
    if returncode != record["exit"]:
        check.fail_all(f"exit code {returncode}, expected {record['exit']}")
        return check
    try:
        digest = sha256_file(out_path)
        with open(out_path) as fh:
            text = fh.read()
    except OSError as exc:
        check.fail_all(f"output unreadable: {exc}")
        return check
    check.counts["output_bytes"] = len(text.encode())

    if wl.name == "compute_large":
        _check_compute(check, record, seed, digest, text, docs)
        return check

    if digest != record["sha256"]:
        check.fail_all(f"output digest {digest[:12]} differs from the record")
    if wl.output_format == "csv":
        # The CSV has no anomaly list; exit code 0, checked above, means none.
        instances = text.count("\n") - 1
        anomalies = 0
    else:
        try:
            doc = json.loads(text)
        except ValueError as exc:
            check.fail_all(f"output is not JSON: {exc}")
            return check
        instances = doc["instances_checked"]
        anomalies = len(doc.get("anomalies", ()))
        if "candidates" in doc:
            check.counts["candidates"] = len(doc["candidates"])
    check.counts["instances"] = instances
    check.counts["anomalies"] = anomalies
    expected = {"instances": wl.operations(), **record["counts"]}
    for key, want in expected.items():
        if check.counts.get(key) != want:
            check.fail_all(f"{key} = {check.counts.get(key)}, expected {want}")
    return check


def _check_compute(check: Check, record: dict, seed: int, digest: str, text: str,
                   docs: list[dict] | None) -> None:
    recorded = record["sha256_by_seed"].get(str(seed))
    if recorded is not None and digest != recorded:
        check.fail_all(f"output digest {digest[:12]} differs from the record for seed {seed}")
        return
    try:
        results = json.loads(text)
    except ValueError as exc:
        check.fail_all(f"output is not JSON: {exc}")
        return
    if not isinstance(results, list):
        results = [results]
    check.counts["instances"] = len(results)
    if len(results) != len(docs):
        check.fail_all(f"{len(results)} results for {len(docs)} matrices")
        return
    bad = 0
    for doc, res in zip(docs, results):
        mult = res.get("multiplicity", {})
        if (
            res.get("instance") != doc
            or mult.get("agree") is not True
            or mult.get("value") != inputs.reference_multiplicity(doc)
        ):
            bad += 1
    if bad:
        check.failed = bad
        check.problems.append(f"{bad} matrices disagree with the reference")
