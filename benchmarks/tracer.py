"""Span tracing of degmult's layers from outside the package.

``Tracer.install`` replaces module attributes of ``degmult`` with thin
wrappers that record one span (name, start, end, parent) per call.
Spans live in flat arrays in memory and are written out by
``Tracer.dump`` at the end.  Nothing inside ``src/degmult`` is edited:
the package looks its collaborators up as module attributes at call
time, so a replaced attribute is seen by every caller.

Pool workers record their own spans; the pool wrapper ships them back
with each task result and grafts them under the span that issued the
task, so a traced run at ``--jobs 2`` still accounts for worker time.
"""
from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.pool
import os
import pickle
import time
import types
from array import array

# Spans whose name is listed here are timed; every other layer entry
# point is reached through them.  The key is the span name, the value
# (module, attribute, kind).  kind "entry" also keeps the counts of the
# report the sweep driver returns, "gen" times each step of a generator,
# "count" records the coefficient count of the returned K-polynomial
# without timing it.
HOOKS = {
    "cli.main": ("cli", "main", "call"),
    "sweep.verify_all": ("sweep", "verify_all", "entry"),
    "sweep.write_sweep_csv": ("sweep", "write_sweep_csv", "entry"),
    "sweep.hunt": ("sweep", "hunt", "entry"),
    "sweep.enumerate_cm2": ("sweep", "enumerate_cm2", "gen"),
    "sweep.enumerate_gor3": ("sweep", "enumerate_gor3", "gen"),
    "serialize.hunt_csv": ("sweep", "hunt_csv", "call"),
    "serialize.csv_cell": ("sweep", "_csv_cell", "call"),
    "serialize.sweep_report": ("sweep.SweepReport", "to_json_dict", "call"),
    "serialize.hunt_report": ("sweep.HuntReport", "to_json_dict", "call"),
    "cm2.multiplicity_uv": ("cm2", "multiplicity_uv", "call"),
    "cm2.hs_identities": ("cm2", "hs_identities", "call"),
    "cm2.betti_table": ("cm2", "betti_table", "call"),
    "cm2.witness_monomial_ideal": ("cm2", "witness_monomial_ideal", "call"),
    "cm2.extend": ("cm2", "extend", "call"),
    "cm2.full_matrix": ("cm2", "full_matrix", "call"),
    "gor3.multiplicity_pfaffian": ("gor3", "multiplicity_pfaffian", "call"),
    "gor3.betti_table": ("gor3", "betti_table", "call"),
    "gor3.linkage_check": ("gor3", "linkage_check", "call"),
    "gor3.linkage_value": ("gor3", "_linkage_value", "call"),
    "gor3.extend": ("gor3", "extend", "call"),
    "betti.multiplicity": ("betti", "multiplicity", "call"),
    "betti.genus_dim2": ("betti", "genus_dim2", "call"),
    "betti.k_polynomial": ("betti", "k_polynomial", "count"),
    "oracle.colength": ("oracle", "colength", "call"),
    "oracle.minimalize": ("oracle", "minimalize", "call"),
    "bounds.hhs_bounds": ("bounds", "hhs_bounds", "call"),
    "bounds.cm2_bounds": ("bounds", "cm2_bounds", "call"),
    "bounds.gor3_bounds": ("bounds", "gor3_bounds", "call"),
    "bounds.prop24_bound": ("bounds", "prop24_bound", "call"),
    "bounds.srinivasan_bounds": ("bounds", "srinivasan_bounds", "call"),
    "bounds.sharpness": ("bounds", "sharpness", "call"),
}

# Spans made by the tracer itself rather than by a hooked function.
EXTRA_SPANS = ("serialize.json_dumps", "sweep.pool_map", "sweep.worker_task")

# The tracer of this process; pool workers started by ``spawn`` or
# ``forkserver`` find none and install their own on the first task.
_active: Tracer | None = None


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names = list(HOOKS) + list(EXTRA_SPANS)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack: list[int] = []
        # Parents whose children ran concurrently in pool workers.
        self.concurrent: set[int] = set()
        self.kpoly_coeffs = 0
        self.kpoly_calls = 0
        self.ipc_bytes = 0
        # (resident bytes, span count) at the first and last step of
        # each instance enumeration.
        self.enum_marks: list[tuple[int, int, int, int]] = []
        self.worker_cache: dict[int, tuple[int, int, int]] = {}
        # (instances, anomalies, hunt candidates) of each sweep report.
        self.reports: list[tuple[int, int, int]] = []
        # Hooks the program no longer has; their metrics read 0.
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap_call(self, name: str, fn):
        nid = self.ids[name]
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = opened(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        return wrapper

    def _wrap_gen(self, name: str, fn):
        nid = self.ids[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            first = (_resident_bytes(), len(tracer.start))

            def steps():
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(idx)
                        tracer.enum_marks.append(
                            first + (_resident_bytes(), len(tracer.start))
                        )
                        return
                    tracer._close(idx)
                    yield item

            return steps()

        return wrapper

    def _wrap_entry(self, name: str, fn):
        timed = self._wrap_call(name, fn)
        reports = self.reports

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rep = timed(*args, **kwargs)
            if hasattr(rep, "instances_checked"):
                reports.append((
                    rep.instances_checked,
                    len(getattr(rep, "anomalies", ())),
                    len(getattr(rep, "candidates", ())),
                ))
            return rep

        return wrapper

    def _wrap_count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            poly = fn(*args, **kwargs)
            tracer.kpoly_calls += 1
            tracer.kpoly_coeffs += len(poly.coeffs)
            return poly

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every hook, the JSON encoder the CLI uses, and the pool."""
        global _active
        import degmult.cli
        import degmult.sweep

        for name, (where, attr, kind) in HOOKS.items():
            owner = _resolve(where)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            if kind == "entry":
                wrapped = self._wrap_entry(name, fn)
            elif kind == "gen":
                wrapped = self._wrap_gen(name, fn)
            elif kind == "count":
                wrapped = self._wrap_count(fn)
            else:
                wrapped = self._wrap_call(name, fn)
            self._patch(owner, attr, wrapped)

        real_json = degmult.cli.json
        proxy = types.ModuleType("json")
        proxy.__dict__.update(real_json.__dict__)
        proxy.dumps = self._wrap_call("serialize.json_dumps", real_json.dumps)
        self._patch(degmult.cli, "json", proxy)

        tracer = self

        def traced_pool(processes=None, *args, **kwargs):
            return _TracedPool(tracer, processes, *args, **kwargs)

        if hasattr(degmult.sweep, "Pool"):
            self._patch(degmult.sweep, "Pool", traced_pool)
        else:
            self.missing.append("sweep.Pool")
        _active = self

    def uninstall(self) -> None:
        global _active
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        _active = None

    def original(self, where: str, attr: str):
        """The unwrapped object behind a patched attribute."""
        owner = _resolve(where)
        for saved_owner, saved_attr, value in self._saved:
            if saved_owner is owner and saved_attr == attr:
                return value
        return getattr(owner, attr)

    # -- pool workers ----------------------------------------------------

    def take_worker_payload(self) -> tuple:
        return (
            self.names,
            self.name.tobytes(),
            self.start.tobytes(),
            self.end.tobytes(),
            self.parent.tobytes(),
            self.kpoly_calls,
            self.kpoly_coeffs,
        )

    def reset(self) -> None:
        for arr in (self.name, self.start, self.end, self.parent):
            del arr[:]
        self.stack.clear()
        self.kpoly_calls = self.kpoly_coeffs = 0

    def merge(self, payload: tuple, parent: int, pid: int, cache: tuple) -> None:
        names, name_b, start_b, end_b, parent_b, kcalls, kcoeffs = payload
        remap = array("H", (self.ids[n] for n in names))
        offset = len(self.start)
        name = array("H")
        name.frombytes(name_b)
        self.name.extend(array("H", (remap[i] for i in name)))
        for arr, raw in ((self.start, start_b), (self.end, end_b)):
            arr.frombytes(raw)
        par = array("q")
        par.frombytes(parent_b)
        self.parent.extend(array("q", (parent if p < 0 else p + offset for p in par)))
        if parent >= 0:
            self.concurrent.add(parent)
        self.kpoly_calls += kcalls
        self.kpoly_coeffs += kcoeffs
        self.worker_cache[pid] = cache

    # -- results ---------------------------------------------------------

    def summary(self, first: int = 0, stop: int | None = None) -> dict[str, list]:
        """Per span name: [calls, self seconds, total seconds] over spans
        ``first..stop``.

        A span's self time is its duration minus the part of it that its
        child spans cover.  Children recorded in one process never
        overlap, so their durations add up; children that ran in
        concurrent pool workers are merged as intervals first.
        """
        stop = len(self.start) if stop is None else stop
        start, end, parent, name = self.start, self.end, self.parent, self.name
        covered = [0.0] * (stop - first)
        intervals: dict[int, list[tuple[float, float]]] = {}
        for i in range(first, stop):
            p = parent[i]
            if p < first:
                continue
            if p in self.concurrent:
                intervals.setdefault(p, []).append((start[i], end[i]))
            else:
                covered[p - first] += end[i] - start[i]
        for p, spans in intervals.items():
            spans.sort()
            total = 0.0
            cur_s, cur_e = spans[0]
            for s, e in spans[1:]:
                if s > cur_e:
                    total += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            total += cur_e - cur_s
            covered[p - first] += total
        out: dict[str, list] = {}
        for i in range(first, stop):
            dur = end[i] - start[i]
            row = out.setdefault(self.names[name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur - covered[i - first]
            row[2] += dur
        return out

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [["name", "H"], ["start", "d"], ["end", "d"], ["parent", "q"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)


def _resolve(where: str):
    module, _, cls = where.partition(".")
    obj = importlib.import_module(f"degmult.{module}")
    return getattr(obj, cls, None) if cls else obj


def _traced_task(func, arg):
    """Run one pool task under a root span and return its spans with it."""
    global _active
    if _active is None:
        _active = Tracer()
        _active.install()
    tracer = _active
    tracer.reset()
    result = tracer._wrap_call("sweep.worker_task", func)(arg)
    return result, tracer.take_worker_payload(), os.getpid(), uv_cache_info()


def uv_cache_info() -> tuple[int, int, int]:
    """(hits, misses, current size) of ``cm2.uv_data``'s cache, or zeros
    if the program has no such cache."""
    import degmult.cm2

    info = getattr(getattr(degmult.cm2, "uv_data", None), "cache_info", None)
    if info is None:
        return 0, 0, 0
    hits, misses, _, currsize = info()
    return hits, misses, currsize


class _TracedPool(multiprocessing.pool.Pool):
    """Pool whose tasks report their spans and whose inputs are sized.

    ``ipc_bytes`` adds up the pickled size of every task argument the
    driver ships to the workers.
    """

    def __init__(self, tracer: Tracer, *args, **kwargs) -> None:
        self._tracer = tracer
        super().__init__(*args, **kwargs)

    def _size(self, items):
        for item in items:
            self._tracer.ipc_bytes += len(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
            yield item

    def _unpack(self, results, parent: int):
        for result, payload, pid, cache in results:
            self._tracer.merge(payload, parent, pid, cache)
            yield result

    def map(self, func, iterable, chunksize=None):
        tracer = self._tracer
        idx = tracer._open(tracer.ids["sweep.pool_map"])
        try:
            raw = super().map(
                functools.partial(_traced_task, func), list(self._size(iterable)), chunksize
            )
            return list(self._unpack(raw, idx))
        finally:
            tracer._close(idx)
