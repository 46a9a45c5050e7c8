"""Benchmark of degmult's command-line verbs.

    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn, including the two
that BENCHMARK.json leaves out.  Each verb runs in a fresh process
(closed loop, one client), as many times as fit in ``--seconds``, and
each output is checked against ``golden.json``.  With ``--trace 0`` the
end-to-end metrics are printed, the time metrics scaled to a host of
fixed speed by the run's ``hostref.py`` times; with ``--trace 1`` one
untraced and one traced verb run instead and the per-layer metrics are
printed.  The last line of standard output is one JSON object per the
contract in ``BENCHMARK.json``, with the metrics it lists; the lines
above it give every metric with its unit, its quartiles and its sample
count.  Only the standard library is used.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Check, Workload, check_output, load_golden  # noqa: E402

END_TO_END = {"instances_per_s": "1/s", "peak_rss_mib": "MiB", "setup_s": "s"}
# Extra set-up-only processes per run, so setup_s is a median of many.
# Each is followed by one run of hostref.py.
SETUP_PROBES = 20
# hostref.py's launch-to-exit time on the reference host.  The time
# metrics are scaled by the run's median hostref time over this.
HOSTREF_NOMINAL_S = 0.1
# Every child of one run must end within RUN_LIMIT_S of the run's start.
RUN_LIMIT_S = 170
MIB = 1024 * 1024
# Bytes one span takes in the tracer's arrays (name, start, end, parent).
SPAN_BYTES = 2 + 8 + 8 + 8

LAYER_UNITS = {
    "sweep.enumerate_us": "us",
    "sweep.materialize_mib": "MiB",
    "sweep.ipc_bytes": "bytes",
    "sweep.jobs2_speedup": "x",
    "sweep.driver_self_s": "s",
    "sweep.serialize_us": "us",
    "sweep.output_bytes": "bytes",
    "sweep.instances": "count",
    "sweep.extension_children": "count",
    "sweep.anomalies": "count",
    "sweep.hunt_candidates": "count",
    "cm2.uv_route_us": "us",
    "cm2.uv_data_hit_ratio": "ratio",
    "cm2.uv_data_currsize": "count",
    "cm2.resolution_route_us": "us",
    "cm2.hs_identities_us": "us",
    "cm2.extend_us": "us",
    "cm2.full_matrix_us": "us",
    "gor3.pfaffian_route_us": "us",
    "gor3.resolution_route_us": "us",
    "gor3.linkage_route_us": "us",
    "gor3.extend_us": "us",
    "betti.multiplicity_us": "us",
    "betti.genus_dim2_us": "us",
    "betti.kpoly_len": "count",
    "oracle.staircase_route_us": "us",
    "oracle.minimalize_us": "us",
    "bounds.us_per_instance": "us",
    "cli.load_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def contract_names(section: str) -> set[str] | None:
    """The metric names BENCHMARK.json lists under ``section``, if it is there.

    The result line carries only these; the lines above it print every
    metric the harness measures, including those of layers that only the
    workloads left out of BENCHMARK.json reach.
    """
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        return {m["name"] for m in json.load(fh)[section]}


class ChildFailed(Exception):
    pass


def run_child(wl: Workload, seed: int, mode: str, work: Path, deadline: float,
              jobs: int | None = None):
    """Start one workload process and wait for it; returns (report, stderr).

    The process gets its own session so that, if it is still running at
    ``deadline`` (a ``time.perf_counter()`` value), it is killed together
    with any pool workers it started.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT), "--workload", wl.name, "--size", wl.size,
        "--seed", str(seed), "--mode", mode, "--work", str(work),
    ]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    cmd += ["--launched", repr(time.perf_counter())]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "killed: the run's time limit passed"
    if proc.returncode == 3:
        raise ChildFailed(err.strip())
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, err
    return json.loads(lines[-1]), err


def hostref_s(deadline: float) -> float | None:
    """Launch-to-exit time of one hostref.py process, or None if it failed."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "hostref.py")], capture_output=True,
            timeout=max(0.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        return None
    return time.perf_counter() - t0 if proc.returncode == 0 else None


def verb(wl: Workload, seed: int, golden: dict, work: Path, docs, deadline: float,
         mode: str = "verb", jobs: int | None = None) -> tuple[dict | None, Check]:
    """Run one verb and check its output."""
    report, err = run_child(wl, seed, mode, work, deadline, jobs)
    rc = report["rc"] if report else -1
    out_path = report["out"] if report else str(work / "missing")
    check = check_output(wl, golden, seed, rc, err, out_path, docs)
    return report, check


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_end_to_end(wl: Workload, seed: int, seconds: float, golden: dict, work: Path):
    deadline = time.perf_counter() + RUN_LIMIT_S
    docs = wl.input_docs(seed)
    samples = {name: [] for name in END_TO_END}
    refs: list[float] = []
    probes_left = SETUP_PROBES

    def probe(count: int) -> None:
        nonlocal probes_left
        for _ in range(min(count, probes_left)):
            if time.perf_counter() >= deadline:
                return
            probes_left -= 1
            report, _ = run_child(wl, seed, "setup", work, deadline)
            if report:
                samples["setup_s"].append(report["setup_s"])
            ref = hostref_s(deadline)
            if ref is not None:
                refs.append(ref)

    attempted = failed = 0
    problems: list[str] = []
    # Verbs run while at least half of the next one, judged by the median
    # so far, fits in ``seconds``, so a run lasts about ``seconds`` however
    # the machine's speed drifts.  The set-up probes are spread
    # over the gaps before, between and after the verbs, so that setup_s
    # samples the whole run: a shared machine's speed changes in phases.
    probe(SETUP_PROBES // 4)
    durations: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        began = time.perf_counter()
        report, check = verb(wl, seed, golden, work, docs, deadline)
        durations.append(time.perf_counter() - began)
        left = round((seconds - (time.perf_counter() - start)) / statistics.median(durations))
        attempted += check.attempted
        failed += check.failed
        problems += check.problems
        if report:
            samples["setup_s"].append(report["setup_s"])
            samples["instances_per_s"].append(wl.operations() / report["wall_s"])
            samples["peak_rss_mib"].append(report["maxrss_kib"] / 1024)
        probe(-(-probes_left // (max(left, 0) + 1)))
        if left < 1:
            break
    # The host's speed drifts by tens of percent over minutes, and a slow
    # phase slows fresh processes and long verbs alike; hostref.py's time
    # follows it.  Scaling by hostref's median in this run turns the time
    # metrics into figures for a host of fixed speed.  hostref does not
    # use the program, so a change to the program moves them as much as
    # the raw figures.
    slowness = quartiles(refs or [HOSTREF_NOMINAL_S])[1] / HOSTREF_NOMINAL_S
    scale = {"instances_per_s": slowness, "setup_s": 1 / slowness, "peak_rss_mib": 1.0}
    lines = []
    metrics = {}
    for name, unit in END_TO_END.items():
        vals = samples[name] or [0.0]
        q1, med, q3 = (v * scale[name] for v in quartiles(vals))
        metrics[name] = {"value": med, "unit": unit}
        line = f"  {name}: {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])}"
        if scale[name] != 1.0:
            line += f"; unscaled median {med / scale[name]:.6g} {unit}"
        lines.append(line + ")")
    lines.append(f"  host: hostref.py {slowness * HOSTREF_NOMINAL_S:.4g} s median over "
                 f"{len(refs)} runs, {slowness:.4g} x the nominal {HOSTREF_NOMINAL_S} s")
    lines.append(f"  failed_share: {failed / attempted:.6g} share  ({failed} of {attempted} operations)")
    return metrics, attempted, failed, problems, lines


def run_traced(wl: Workload, seed: int, golden: dict, work: Path):
    deadline = time.perf_counter() + RUN_LIMIT_S
    docs = wl.input_docs(seed)
    checks = []
    plain, check = verb(wl, seed, golden, work, docs, deadline)
    checks.append(check)
    jobs1 = None
    if wl.name == "hunt_prop24_j2":
        jobs1, check = verb(wl, seed, golden, work, docs, deadline, jobs=1)
        checks.append(check)
    traced, check = verb(wl, seed, golden, work, docs, deadline, mode="trace")
    checks.append(check)
    if traced is not None and traced.get("reports"):
        instances = traced["reports"][-1][0]
        if instances != wl.operations():
            check.fail_all(f"program reports {instances} instances, closed form gives {wl.operations()}")
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [p for c in checks for p in c.problems]
    values = layer_metrics(wl, plain, jobs1, traced, check) if plain and traced else {}
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in LAYER_UNITS.items()}
    lines = [f"  {name}: {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if traced:
        lines.append(f"  spans written to {Path(traced['spans_file']).relative_to(ROOT)}")
        if traced["missing_hooks"]:
            lines.append("  not in the program, so read as 0: " + ", ".join(traced["missing_hooks"]))
    return metrics, attempted, failed, problems, lines


def layer_metrics(wl: Workload, plain: dict, jobs1: dict | None, traced: dict, check: Check) -> dict:
    """Per-layer numbers from one traced verb, as described in README.md."""
    summary = traced["summary"]
    ops = wl.operations()
    is_sweep = wl.name != "compute_large"

    def calls(name: str) -> int:
        return summary.get(name, [0])[0]

    def self_s(*names: str) -> float:
        return sum(summary.get(n, [0, 0.0])[1] for n in names)

    def per_call_us(name: str, *also: str) -> float:
        """Self time of ``name`` and ``also`` spans per ``name`` call."""
        n = calls(name)
        return self_s(name, *also) / n * 1e6 if n else 0.0

    def prefixed(prefix: str) -> list[str]:
        return [n for n in summary if n.startswith(prefix)]

    materialize = 0.0
    for rss0, spans0, rss1, spans1 in traced["enum_marks"]:
        grown = rss1 - rss0 - (spans1 - spans0) * SPAN_BYTES
        materialize = max(materialize, grown / MIB)
    hits, misses, currsize = traced["uv_cache"]
    extend_source = summary if calls("cm2.extend") else traced.get("replay", {})
    extend = extend_source.get("cm2.extend", [0, 0.0])
    reports = traced["reports"]
    output_bytes = check.counts.get("output_bytes", 0)
    return {
        "sweep.enumerate_us": self_s("sweep.enumerate_cm2", "sweep.enumerate_gor3") / ops * 1e6,
        "sweep.materialize_mib": materialize,
        "sweep.ipc_bytes": traced["ipc_bytes"],
        "sweep.jobs2_speedup": jobs1["wall_s"] / plain["wall_s"] if jobs1 else 0.0,
        "sweep.driver_self_s": self_s(
            "sweep.verify_all", "sweep.write_sweep_csv", "sweep.hunt", "sweep.pool_map"),
        "sweep.serialize_us": self_s(*prefixed("serialize.")) / ops * 1e6,
        "sweep.output_bytes": output_bytes if is_sweep else 0,
        "sweep.instances": ops,
        "sweep.extension_children": wl.range_counts()[1] if wl.name.startswith("sweep_") else 0,
        "sweep.anomalies": reports[-1][1] if reports else 0,
        "sweep.hunt_candidates": reports[-1][2] if reports else 0,
        "cm2.uv_route_us": per_call_us("cm2.multiplicity_uv"),
        "cm2.uv_data_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cm2.uv_data_currsize": currsize,
        "cm2.resolution_route_us": per_call_us("cm2.betti_table"),
        "cm2.hs_identities_us": per_call_us("cm2.hs_identities"),
        "cm2.extend_us": extend[1] / extend[0] * 1e6 if extend[0] else 0.0,
        "cm2.full_matrix_us": per_call_us("cm2.full_matrix"),
        "gor3.pfaffian_route_us": per_call_us("gor3.multiplicity_pfaffian"),
        "gor3.resolution_route_us": per_call_us("gor3.betti_table"),
        "gor3.linkage_route_us": per_call_us("gor3.linkage_value", "gor3.linkage_check"),
        "gor3.extend_us": per_call_us("gor3.extend"),
        "betti.multiplicity_us": per_call_us("betti.multiplicity"),
        "betti.genus_dim2_us": per_call_us("betti.genus_dim2"),
        "betti.kpoly_len": (traced["kpoly_coeffs"] / traced["kpoly_calls"]
                            if traced["kpoly_calls"] else 0.0),
        "oracle.staircase_route_us": per_call_us("oracle.colength", "cm2.witness_monomial_ideal"),
        "oracle.minimalize_us": per_call_us("oracle.minimalize"),
        "bounds.us_per_instance": self_s(*prefixed("bounds.")) / ops * 1e6,
        "cli.load_s": traced.get("load_s", 0.0),
        "cli.output_bytes": output_bytes,
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.spans": traced["spans"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=52)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny ranges for the harness's own smoke test")
    args = ap.parse_args()

    if not (ROOT / "src" / "degmult" / "cli.py").is_file():
        print(f"error: no degmult sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = load_golden()
    for name in [args.workload] if args.workload else WORKLOADS:
        wl = Workload(name, args.size)
        work = WORK / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            if args.trace:
                result = run_traced(wl, args.seed, golden, work)
            else:
                result = run_end_to_end(wl, args.seed, args.seconds, golden, work)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        metrics, attempted, failed, problems, lines = result
        listed = contract_names("per_layer" if args.trace else "end_to_end")
        if listed is not None:
            metrics = {k: v for k, v in metrics.items() if k in listed}
        print(f"workload {name} (size {args.size}, seed {args.seed}, trace {args.trace})")
        print("\n".join(lines))
        for problem in problems:
            print(f"  FAILED: {problem}")
        print(json.dumps({
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
