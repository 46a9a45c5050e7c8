"""Exhaustive enumeration of degree matrices with full invariant checking.

Every valid matrix in a bounded range is visited exactly once, in
lexicographic order, and every enabled identity, bound, and recursion
is verified on it.  Violations are collected as data, never raised, so
a report always comes back; a nonempty anomaly list means either an
implementation bug (all the checked identities are theorems) or, for
the hunted open questions, a genuine discovery.  Every verb reads an
instance through one :class:`Evaluation`, which computes each part on
first use, so a verb pays only for what it reads; sweeps and hunts
stream the enumeration through one ordered driver.  A sweep resolves
its enabled check methods once, and each instance hands back its
finished CSV line.  Reports are deterministic: byte-identical across
runs and across worker counts, so wall-clock runtime is kept off them.
"""
from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from functools import partial
from itertools import product
from operator import itemgetter
from types import ModuleType
from typing import Callable, Iterable, Iterator, TextIO

from . import betti, bounds, cm2, gor3, oracle
from .betti import ShiftSummary
from .bounds import BoundVerdict
from .errors import (
    CharacterizationViolated,
    DegmultError,
    DivisibilityError,
    DivisionError,
    InternalMismatch,
    UnknownTarget,
)

HUNT_TARGETS = {
    "srinivasan_upper_gor3": "gor3",
    "prop24_bound": "cm2",
}

SWEEP_CSV_COLUMNS = (
    "family", "t", "a", "b", "d",
    "m1", "m2", "m3", "M1", "M2", "M3", "e",
    "pure", "quasi_pure",
    "hhs_lower_holds", "hhs_lower_sharp", "hhs_upper_holds", "hhs_upper_sharp",
    "cm2_lower_holds", "cm2_lower_sharp", "cm2_upper_holds", "cm2_upper_sharp",
    "gor3_lower_holds", "gor3_lower_sharp", "gor3_upper_holds", "gor3_upper_sharp",
    "prop24_hyp_i", "prop24_hyp_ii", "prop24_holds",
    "srinivasan_lower_holds", "srinivasan_upper_holds",
)

# The sweep CSV columns every family fills, in Evaluation.csv_line's order.
_SHARED_COLUMNS = tuple("family t a b e pure quasi_pure hhs_lower_holds hhs_lower_sharp "
                        "hhs_upper_holds hhs_upper_sharp".split())

HUNT_CSV_COLUMNS = (
    "target", "family", "t", "a", "b", "d",
    "m1", "m2", "m3", "M1", "M2", "M3", "e",
    "lhs", "rhs", "factor", "hyp_i", "hyp_ii",
)


@dataclass(frozen=True)
class SweepConfig:
    """Range, check subset, and parallelism for one sweep or hunt."""

    family: str
    t_max: int
    entry_max: int
    checks: tuple[str, ...] | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.family not in EVALUATIONS:
            raise ValueError(f"family must be cm2 or gor3, got {self.family!r}")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.entry_max < 0:
            raise ValueError("entry_max must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        cls = EVALUATIONS[self.family]
        allowed = cls.CHECKS + cls.FINDINGS
        object.__setattr__(self, "checks", allowed if self.checks is None else tuple(self.checks))
        unknown = set(self.checks) - set(allowed)
        if unknown:
            raise ValueError(f"unknown checks for {self.family}: {sorted(unknown)}")
        if len(set(self.checks)) != len(self.checks):
            raise ValueError(f"checks named more than once: {','.join(self.checks)}")


@dataclass(frozen=True)
class Anomaly:
    """One failed check on one instance, with the two disagreeing sides."""

    instance: dict
    check: str
    lhs: str
    rhs: str


def _without_runtime(report) -> dict:
    # runtime deliberately excluded: serialized reports must be
    # byte-identical across runs and parallelism levels.
    doc = asdict(report)
    del doc["runtime_seconds"]
    return doc


@dataclass(frozen=True)
class SweepReport:
    family: str
    t_max: int
    entry_max: int
    checks: tuple[str, ...]
    instances_checked: int
    anomalies: tuple[Anomaly, ...]
    sharp_cases: tuple[dict, ...]
    prop24_findings: tuple[dict, ...]
    runtime_seconds: float

    @property
    def ok(self) -> bool:
        return not self.anomalies

    def to_json_dict(self) -> dict:
        return _without_runtime(self)

    def summary_text(self) -> str:
        lines = [
            f"sweep {self.family}: t <= {self.t_max}, entries <= {self.entry_max}",
            f"instances checked: {self.instances_checked}",
            f"anomalies: {len(self.anomalies)}",
            f"sharp (pure) cases: {len(self.sharp_cases)}",
        ]
        if self.family == "cm2":
            lines.append(f"prop24 bound failures: {len(self.prop24_findings)}")
        for a in self.anomalies:
            lines.append(f"  ANOMALY {a.check} on {a.instance}: {a.lhs} vs {a.rhs}")
        lines.append(f"runtime: {self.runtime_seconds:.2f}s")
        return "\n".join(lines)


@dataclass(frozen=True)
class HuntReport:
    target: str
    family: str
    t_max: int
    entry_max: int
    require_hypotheses: bool
    instances_checked: int
    candidates: tuple[dict, ...]
    runtime_seconds: float

    @property
    def ok(self) -> bool:
        return not self.candidates

    def to_json_dict(self) -> dict:
        return _without_runtime(self)

    def summary_text(self) -> str:
        lines = [
            f"hunt {self.target}: t <= {self.t_max}, entries <= {self.entry_max}"
            + (" (hypothesis-satisfying instances only)" if self.require_hypotheses else ""),
            f"instances checked: {self.instances_checked}",
            f"candidates: {len(self.candidates)}",
        ]
        for c in self.candidates:
            lines.append(f"  CANDIDATE {c['instance']}: {c['lhs']} vs {c['rhs']}")
        lines.append(f"runtime: {self.runtime_seconds:.2f}s")
        return "\n".join(lines)


def enumerate_cm2(t_max: int, entry_max: int) -> Iterator[cm2.DegreeMatrixCM2]:
    """All valid matrices with t <= t_max, entries <= entry_max, (a, b)-lex order.

    The b-ranges start at max(a_i, a_{i+1}), so only valid matrices are
    ever formed; no generate-and-filter.
    """
    for t in range(1, t_max + 1):
        for a in product(range(1, entry_max + 1), repeat=t):
            lows = [
                max(a[i], a[i + 1]) if i + 1 < t else a[i] for i in range(t)
            ]
            for b in product(*(range(lo, entry_max + 1) for lo in lows)):
                yield cm2.DegreeMatrixCM2(a, b)


def enumerate_gor3(t_max: int, entry_max: int) -> Iterator[gor3.DegreeMatrixGor3]:
    """All valid symmetric matrices, (a, b, d)-lex order, with a_1 <= d <= entry_max."""
    for base in enumerate_cm2(t_max, entry_max):
        for d in range(base.a[0], entry_max + 1):
            yield gor3.DegreeMatrixGor3(base, d)


def _cells(verdicts: tuple[BoundVerdict, BoundVerdict]) -> tuple[bool, ...]:
    """The holds and sharp CSV cells of a lower and an upper verdict."""
    lower, upper = verdicts
    return lower.holds, lower.sharp, upper.holds, upper.sharp


def _csv_layout(names: str) -> Callable[[tuple], tuple]:
    """The function putting a row's cells, one per shared column and then
    one per column in ``names``, in SWEEP_CSV_COLUMNS order; the columns
    neither names are left None, and a row of any other length raises."""
    columns = _SHARED_COLUMNS + tuple(names.split())
    if not set(columns) <= set(SWEEP_CSV_COLUMNS) or len(set(columns)) < len(columns):
        raise ValueError(f"not distinct sweep CSV columns: {columns}")
    n = len(columns)
    pick = itemgetter(*(columns.index(c) if c in columns else n for c in SWEEP_CSV_COLUMNS))

    def layout(cells: tuple) -> tuple:
        if len(cells) != n:
            raise ValueError(f"{len(cells)} cells for {n} CSV columns")
        return pick((*cells, None))

    return layout


def _failed(verdicts: tuple[BoundVerdict, ...]) -> Iterator[tuple]:
    return ((f"{v.name}: {v.lhs}", v.rhs) for v in verdicts if not v.holds)


def _appended(cap: int, entry_max: int) -> Iterator[tuple[int, int]]:
    """The (a, b) pairs the extension check appends to a block ending in b_t = cap."""
    for b in range(1, entry_max + 1):
        for a in range(1, min(b, cap) + 1):
            yield a, b


class lazy:
    """An attribute computed by ``fn`` on first read and then stored on
    the instance, as :class:`functools.cached_property` does, but
    without the lock that one takes on each first read before Python
    3.12.  If ``fn`` raises, nothing is stored and the next read calls
    it again.  Evaluations are never shared between threads.
    """

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Evaluation:
    """Everything a verb may read about one matrix, each part computed on
    first use and then kept.

    ``ROUTES`` maps each multiplicity route to the function computing it,
    the value route first; a route that fails holds its exception in
    place of a value.  ``CHECKS``, the family's one table of anomaly
    checks, is in report order; check ``name`` is the generator method
    ``_name``, yielding the two disagreeing sides of each failure.
    ``FINDINGS`` names the open bounds a sweep reports as findings.
    """

    family: str
    codim: int
    MODULE: ModuleType
    INSTANCE: type
    ROUTES: dict[str, Callable[[Evaluation], int]]
    CHECKS: tuple[str, ...]
    FINDINGS: tuple[str, ...]
    csv_layout: Callable[[tuple], tuple]

    def __init__(self, instance) -> None:
        self.instance = instance
        self._routes: dict[str, int | DegmultError] = {}

    def route(self, name: str) -> int | DegmultError:
        if name not in self._routes:
            try:
                self._routes[name] = self.ROUTES[name](self)
            except (InternalMismatch, DivisionError) as exc:
                self._routes[name] = exc
        return self._routes[name]

    @property
    def routes(self) -> dict[str, int | DegmultError]:
        return {name: self.route(name) for name in self.ROUTES}

    @lazy
    def e(self) -> int:
        """The value route, or should it fail the first other route that succeeds."""
        for name in self.ROUTES:
            value = self.route(name)
            if isinstance(value, int):
                return value
        raise value

    @lazy
    def inst(self) -> dict:
        return self.instance.to_json_dict()

    @lazy
    def shifts(self) -> cm2.ShiftsCM2 | gor3.ShiftsGor3:
        return self.MODULE.shifts(self.instance)

    @lazy
    def degrees(self) -> cm2.DegreeLists:
        """The block's ascending degree lists, shared by the Betti table, the
        extension kernel and, for cm2, the uv route."""
        return cm2.degrees(self.block)

    @lazy
    def table(self) -> betti.BettiTable:
        return self.MODULE.betti_table(self.instance, self.degrees)

    @lazy
    def summary(self) -> ShiftSummary:
        return betti.shift_summary(self.table)

    @lazy
    def purity(self) -> betti.Purity:
        return betti.summary_purity(self.summary)

    @lazy
    def extremes(self) -> ShiftSummary:
        """The shifts computed from the matrix, as a ShiftSummary."""
        return ShiftSummary(m=self.shifts[: self.codim], M=self.shifts[self.codim:])

    @lazy
    def hhs(self) -> tuple[BoundVerdict, BoundVerdict]:
        return bounds.hhs_bounds(self.summary, self.e)

    @lazy
    def sharpness(self) -> bounds.SharpnessVerdict:
        return bounds.sharpness(*self.hhs, self.purity.pure)

    @classmethod
    def check_methods(cls, checks: tuple[str, ...], entry_max: int) -> tuple[tuple, bool]:
        """(name, method) of each enabled anomaly check, in the order
        ``checks`` names them and with what a check reads of the sweep
        bound to it, and whether findings are on; a sweep resolves them once."""
        methods = {name: getattr(cls, f"_{name}") for name in checks if name not in cls.FINDINGS}
        if "extension" in methods:
            methods["extension"] = partial(cls._extension, entry_max=entry_max)
        return tuple(methods.items()), not set(cls.FINDINGS).isdisjoint(checks)

    def anomalies(self, methods: tuple) -> tuple[Anomaly, ...]:
        """Failures of the enabled checks, run by their :meth:`check_methods`;
        disabled ones compute nothing."""
        return tuple(
            Anomaly(self.inst, name, str(lhs), str(rhs))
            for name, method in methods for lhs, rhs in method(self)
        )

    def _multiplicity_agreement(self) -> Iterator[tuple]:
        routes = self.routes
        for name, value in routes.items():
            if not isinstance(value, int):
                yield f"{name} route", value
        (first, value), *others = routes.items()
        if isinstance(value, int):
            for name, other in others:
                if isinstance(other, int) and other != value:
                    yield f"{first}={value}", f"{name}={other}"

    def _shift_agreement(self) -> Iterator[tuple]:
        if self.summary != self.extremes:
            yield self.shifts, self.summary
        if not all(x < y for seq in self.extremes for x, y in zip(seq, seq[1:])):
            yield "strictly increasing shifts", self.shifts

    def _hhs_bounds(self) -> Iterator[tuple]:
        return _failed(self.hhs)

    def _sharpness_purity(self) -> Iterator[tuple]:
        try:
            self.sharpness
        except CharacterizationViolated as exc:
            yield "flags", exc

    def _huneke_miller(self) -> Iterator[tuple]:
        if not self.purity.pure:
            return
        try:
            hm = betti.huneke_miller(self.table, self.summary)
        except DivisibilityError as exc:
            yield "pure-shift formula", exc
            return
        if hm != self.e:
            yield hm, self.e

    def _extension(self, entry_max: int) -> Iterator[tuple]:
        """Every appended pair through the family's extension kernel, bound
        once to the base values; skipped when the value route failed."""
        e = self.route(next(iter(self.ROUTES)))
        if not isinstance(e, int):
            return
        extend = self._extender(e)
        for a, b in _appended(self.block.b[-1], entry_max):
            try:
                extend(a, b)
            except (InternalMismatch, DivisionError) as exc:
                yield f"append (a={a}, b={b})", exc

    def sharp_case(self) -> dict | None:
        return {"instance": self.inst, "e": self.e} if self.purity.pure else None

    def csv_line(self) -> str:
        """The sweep CSV line: the shared cells, then the family's, put in
        SWEEP_CSV_COLUMNS order by the family's :func:`_csv_layout`."""
        block, pur = self.block, self.purity
        return _csv_line(self.csv_layout((
            self.family, block.t, " ".join(map(str, block.a)), " ".join(map(str, block.b)),
            self.e, pur.pure, pur.quasi_pure, *_cells(self.hhs), *self._family_cells(),
        )))

    def _candidate(self, v: BoundVerdict) -> dict:
        return {
            "instance": self.inst,
            **self.shifts._asdict(),
            "e": self.e,
            "lhs": v.lhs,
            "rhs": v.rhs,
            "factor": v.factor,
        }


class CM2Evaluation(Evaluation):
    family = "cm2"
    codim = 2
    MODULE = cm2
    INSTANCE = cm2.DegreeMatrixCM2
    ROUTES = {
        "uv": lambda ev: cm2._multiplicity(*ev.degrees),
        "resolution": lambda ev: betti.multiplicity(ev.table),
        "staircase": lambda ev: oracle.colength(cm2.witness_monomial_ideal(ev.instance)),
    }
    CHECKS = (
        "multiplicity_agreement", "cm2_bounds", "hhs_bounds",
        "sharpness_purity", "huneke_miller", "extension", "shift_agreement",
    )
    FINDINGS = ("prop24",)
    csv_layout = staticmethod(_csv_layout(
        "m1 m2 M1 M2 cm2_lower_holds cm2_lower_sharp cm2_upper_holds cm2_upper_sharp "
        "prop24_hyp_i prop24_hyp_ii prop24_holds"))

    @lazy
    def sharper(self) -> tuple[BoundVerdict, BoundVerdict]:
        return bounds.cm2_bounds(*self.shifts, self.e)

    @lazy
    def prop24(self) -> bounds.Prop24Verdict:
        return bounds.prop24_bound(self.instance, self.e, self.shifts)

    @property
    def prop24_flags(self) -> dict:
        p24 = self.prop24
        return {"hyp_i": p24.hyp_i, "hyp_ii": p24.hyp_ii, "hyp_ii_margin": p24.hyp_ii_margin}

    @property
    def verdicts(self) -> tuple[BoundVerdict, ...]:
        return (*self.hhs, *self.sharper, self.prop24.verdict)

    def _cm2_bounds(self) -> Iterator[tuple]:
        return _failed(self.sharper)

    @property
    def block(self) -> cm2.DegreeMatrixCM2:
        return self.instance

    def _extender(self, e: int) -> Callable[[int, int], tuple]:
        return cm2.extender(self.shifts, e, self.degrees)

    def finding(self) -> dict | None:
        if self.prop24.bound_holds:
            return None
        v = self.prop24.verdict
        return {"instance": self.inst, **self.prop24_flags, "lhs": v.lhs, "rhs": v.rhs}

    def _family_cells(self) -> tuple:
        """The CSV cells of the family's columns, in :attr:`csv_layout` order."""
        p24 = self.prop24
        return (*self.shifts, *_cells(self.sharper), p24.hyp_i, p24.hyp_ii, p24.bound_holds)

    def hunt_candidate(self, require_hypotheses: bool) -> dict | None:
        """A violation of the prop24 bound, optionally only under a hypothesis."""
        p24 = self.prop24
        if p24.bound_holds or (require_hypotheses and not (p24.hyp_i or p24.hyp_ii)):
            return None
        return {**self._candidate(p24.verdict), **self.prop24_flags}


class Gor3Evaluation(Evaluation):
    family = "gor3"
    codim = 3
    MODULE = gor3
    INSTANCE = gor3.DegreeMatrixGor3
    ROUTES = {
        "pfaffian": lambda ev: gor3.multiplicity_pfaffian(ev.instance),
        "resolution": lambda ev: betti.multiplicity(ev.table),
        "linkage": lambda ev: gor3._linkage_value(ev.instance, ev.block_curve),
    }
    CHECKS = (
        "multiplicity_agreement", "self_duality", "gor3_bounds", "hhs_bounds",
        "sharpness_purity", "huneke_miller", "extension", "shift_agreement",
    )
    FINDINGS = ()
    csv_layout = staticmethod(_csv_layout(
        "d m1 m2 m3 M1 M2 M3 gor3_lower_holds gor3_lower_sharp gor3_upper_holds "
        "gor3_upper_sharp srinivasan_lower_holds srinivasan_upper_holds"))

    @lazy
    def block_curve(self) -> tuple[int, int]:
        """(e(R/J), g) of the block curve, shared by the linkage route and
        the extension check."""
        return gor3.block_curve(self.instance)

    @lazy
    def sharper(self) -> tuple[BoundVerdict, BoundVerdict]:
        return bounds.gor3_bounds(*self.shifts[:3], self.e)

    @lazy
    def srinivasan(self) -> tuple[BoundVerdict, BoundVerdict, bool]:
        return bounds.srinivasan_bounds(self.extremes, self.e)

    @property
    def verdicts(self) -> tuple[BoundVerdict, ...]:
        return (*self.hhs, *self.sharper, *self.srinivasan[:2])

    def _self_duality(self) -> Iterator[tuple]:
        """Step-1 shifts inside (0, m3); shift_agreement compares m3 itself."""
        step1, m3 = self.table.steps[0], self.shifts.m3
        if not all(0 < shift < m3 for shift, _ in step1):
            yield "step-1 shifts inside (0, m3)", step1

    def _gor3_bounds(self) -> Iterator[tuple]:
        return _failed(self.sharper)

    @property
    def block(self) -> cm2.DegreeMatrixCM2:
        return self.instance.base

    def _extender(self, e: int) -> Callable[[int, int], tuple]:
        return gor3.extender(self.instance, self.shifts, e, self.block_curve, self.degrees)

    def _family_cells(self) -> tuple:
        """The CSV cells of the family's columns, in :attr:`csv_layout` order."""
        lower, upper, _ = self.srinivasan
        return (self.instance.d, *self.shifts, *_cells(self.sharper), lower.holds, upper.holds)

    def hunt_candidate(self, require_hypotheses: bool) -> dict | None:
        """A violation of Srinivasan's upper bound, which has no hypothesis to require."""
        upper = self.srinivasan[1]
        return None if upper.holds else self._candidate(upper)


# The evaluation class of each family.
EVALUATIONS: dict[str, type[Evaluation]] = {"cm2": CM2Evaluation, "gor3": Gor3Evaluation}


def evaluate(instance: cm2.DegreeMatrixCM2 | gor3.DegreeMatrixGor3) -> Evaluation:
    """The lazy evaluation of one cm2 or gor3 matrix."""
    for cls in EVALUATIONS.values():
        if isinstance(instance, cls.INSTANCE):
            return cls(instance)
    raise TypeError(f"cannot evaluate {type(instance).__name__}")


def Pool(processes: int):
    """A ``multiprocessing.Pool`` of ``processes`` workers.  The module is
    imported on the first parallel run, so a run at one job never loads
    it."""
    import multiprocessing

    return multiprocessing.Pool(processes)


# Instances per task handed to a worker process: enough to amortize the
# pickling round trip, few enough that workers share the tail evenly.
BATCH = 256


def _ordered(fn: Callable, config: SweepConfig) -> Iterator:
    """``fn`` over every instance in range, lazily and in enumeration order.

    With jobs > 1, capped at the number of cores, batches of BATCH
    instances go to worker processes and come back in order, so the
    stream is identical at every parallelism level.
    """
    enum = enumerate_cm2 if config.family == "cm2" else enumerate_gor3
    items = enum(config.t_max, config.entry_max)
    jobs = min(config.jobs, os.cpu_count() or 1)
    if jobs == 1:
        yield from map(fn, items)
        return
    with Pool(jobs) as pool:
        yield from pool.imap(fn, items, BATCH)


def _sweep_instance(item, cls: type, methods: tuple, findings: bool, csv: bool) -> tuple:
    """(CSV line or None, anomalies, sharp case, finding or None) of one instance."""
    ev = cls(item)
    return (
        ev.csv_line() if csv else None,
        ev.anomalies(methods),
        ev.sharp_case(),
        ev.finding() if findings else None,
    )


def _sweep(config: SweepConfig, stream: TextIO | None) -> SweepReport:
    start = time.perf_counter()
    n = 0
    anomalies: list[Anomaly] = []
    sharps: list[dict] = []
    findings: list[dict] = []
    cls = EVALUATIONS[config.family]
    methods, findings_on = cls.check_methods(config.checks, config.entry_max)
    fn = partial(
        _sweep_instance, cls=cls, methods=methods, findings=findings_on, csv=stream is not None
    )
    for line, found, sharp, finding in _ordered(fn, config):
        n += 1
        anomalies.extend(found)
        if sharp is not None:
            sharps.append(sharp)
        if finding is not None:
            findings.append(finding)
        if line is not None:
            stream.write(line)
    return SweepReport(
        family=config.family,
        t_max=config.t_max,
        entry_max=config.entry_max,
        checks=config.checks,
        instances_checked=n,
        anomalies=tuple(anomalies),
        sharp_cases=tuple(sharps),
        prop24_findings=tuple(findings),
        runtime_seconds=time.perf_counter() - start,
    )


def verify_all(config: SweepConfig) -> SweepReport:
    """Run every enabled check on every instance in range."""
    return _sweep(config, None)


def write_sweep_csv(config: SweepConfig, stream: TextIO) -> SweepReport:
    """Stream one CSV row per instance; the aggregate report comes back
    from the same pass so callers can derive an exit status."""
    stream.write(",".join(SWEEP_CSV_COLUMNS) + "\n")
    return _sweep(config, stream)


def _csv_line(cells: Iterable) -> str:
    """The CSV line of some cells: None is empty, a boolean is true or
    false, anything else its str."""
    return ",".join([
        "" if x is None else "true" if x is True else "false" if x is False else str(x)
        for x in cells
    ]) + "\n"


def target_family(target: str) -> str:
    """The family a hunt target searches; UnknownTarget for any other name."""
    if target not in HUNT_TARGETS:
        raise UnknownTarget(
            f"unknown target {target!r}; known: {sorted(HUNT_TARGETS)}"
        )
    return HUNT_TARGETS[target]


def _hunt_instance(item, cls: type, require_hypotheses: bool) -> dict | None:
    return cls(item).hunt_candidate(require_hypotheses)


def hunt(target: str, config: SweepConfig, require_hypotheses: bool = False) -> HuntReport:
    """Search the range for violations of one named open question.

    An empty candidate list means no counterexample in range; a
    nonempty one is a discovery to be recorded, not an error of the
    tool.
    """
    family = target_family(target)
    if config.family != family:
        raise ValueError(f"target {target} needs family {family}, got {config.family}")
    start = time.perf_counter()
    n = 0
    candidates: list[dict] = []
    fn = partial(_hunt_instance, cls=EVALUATIONS[family], require_hypotheses=require_hypotheses)
    for cand in _ordered(fn, config):
        n += 1
        if cand is not None:
            candidates.append(cand)
    return HuntReport(
        target=target,
        family=family,
        t_max=config.t_max,
        entry_max=config.entry_max,
        require_hypotheses=require_hypotheses,
        instances_checked=n,
        candidates=tuple(candidates),
        runtime_seconds=time.perf_counter() - start,
    )


def hunt_csv(report: HuntReport) -> str:
    """Candidate list as CSV, one row per candidate, header always present."""
    lines = [",".join(HUNT_CSV_COLUMNS) + "\n"]
    for c in report.candidates:
        a, b = c["instance"]["a"], c["instance"]["b"]
        row = {**c, "target": report.target, "family": report.family, "t": len(a),
               "a": " ".join(map(str, a)), "b": " ".join(map(str, b)), "d": c["instance"].get("d")}
        lines.append(_csv_line(map(row.get, HUNT_CSV_COLUMNS)))
    return "".join(lines)
