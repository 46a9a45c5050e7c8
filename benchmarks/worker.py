"""One workload process: set up, run one verb, report as a JSON line.

Run by ``run.py``, never by hand:

    python3 benchmarks/worker.py --root R --workload W --size S --seed N
        --mode {setup,verb,trace} --launched T --work DIR [--jobs J]

``--launched`` is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is CLOCK_MONOTONIC, shared by
all processes, so the set-up time includes interpreter start-up.  Set-up
ends when ``degmult`` is imported and, for ``compute_large``, the seeded
input file is written.  The verb is timed from the call into
``degmult.cli.main`` until it returns with its output file written.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "verb", "trace"), required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--jobs", type=int)
    args = ap.parse_args()

    src = Path(args.root, "src").resolve()
    sys.path.insert(0, str(src))
    import degmult.cli

    if not Path(degmult.__file__).resolve().is_relative_to(src):
        print(f"degmult imported from {degmult.__file__}, not from {src}", file=sys.stderr)
        return 3

    from workloads import Workload

    wl = Workload(args.workload, args.size)
    work = Path(args.work)
    in_path = str(work / "input.json")
    out_path = str(work / f"{wl.name}.out")
    docs = wl.input_docs(args.seed)
    if docs is not None:
        with open(in_path, "w") as fh:
            json.dump(docs, fh)
    report = {"setup_s": time.perf_counter() - args.launched}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    argv = wl.argv(out_path, in_path, args.jobs)
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli_main = degmult.cli.main
    if os.path.exists(out_path):
        os.remove(out_path)
    t0 = time.perf_counter()
    rc = cli_main(argv)
    wall = time.perf_counter() - t0
    own = _peak_resident_kib()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report.update(rc=rc, wall_s=wall, maxrss_kib=own + kids, out=out_path)
    if tracer is not None:
        report.update(_trace_extras(tracer, wl, in_path, work))
    print(json.dumps(report))
    return 0


def _peak_resident_kib() -> int:
    """Peak resident memory of this process alone.

    ``ru_maxrss`` of RUSAGE_SELF would do, except that Linux carries it
    across ``exec``, so it could report the launching process's peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _trace_extras(tracer, wl, in_path: str, work: Path) -> dict:
    """Everything the per-layer metrics need from the traced process."""
    import degmult.cli
    import degmult.cm2

    from tracer import uv_cache_info

    verb_spans = len(tracer.start)
    caches = [uv_cache_info()] + list(tracer.worker_cache.values())
    extras = {
        "summary": tracer.summary(0, verb_spans),
        "spans": verb_spans,
        "reports": tracer.reports,
        "kpoly_calls": tracer.kpoly_calls,
        "kpoly_coeffs": tracer.kpoly_coeffs,
        "ipc_bytes": tracer.ipc_bytes,
        "enum_marks": tracer.enum_marks,
        "uv_cache": [sum(c[i] for c in caches) for i in range(3)],
        "missing_hooks": tracer.missing,
    }

    if wl.name == "compute_large":
        # cli.load_s: load and validate the same input file, no compute.
        t0 = time.perf_counter()
        degmult.cli.main(["validate", "--in", in_path, "--format", "json",
                          "--out", str(work / "validate.out")])
        extras["load_s"] = time.perf_counter() - t0

    if wl.name == "sweep_cm2":
        # The cm2 sweep inlines the extension check, so cm2.extend is
        # timed by replaying the appended pairs of every 16th instance.
        first = len(tracer.start)
        enum = tracer.original("sweep", "enumerate_cm2")
        p = wl.params
        extend = degmult.cm2.extend
        for k, A in enumerate(enum(p["t_max"], p["entry_max"])):
            if k % 16:
                continue
            cap = A.b[-1]
            for b in range(1, p["entry_max"] + 1):
                for a in range(1, min(b, cap) + 1):
                    extend(A, a, b)
        extras["replay"] = tracer.summary(first)

    tracer.uninstall()
    spans_path = work / f"{wl.name}.spans"
    tracer.dump(str(spans_path))
    extras["spans_file"] = str(spans_path)
    return extras


if __name__ == "__main__":
    sys.exit(main())
