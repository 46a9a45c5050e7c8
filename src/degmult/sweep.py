"""Exhaustive enumeration of degree matrices with full invariant checking.

Every valid matrix in a bounded range is visited exactly once, in
lexicographic order, and every enabled identity, bound, and recursion
is verified on it.  Violations are collected as data, never raised, so
a report always comes back; a nonempty anomaly list means either an
implementation bug (all the checked identities are theorems) or, for
the hunted open questions, a genuine discovery.  Every verb reads an
instance through one :class:`Evaluation`, whose facts come in two
tiers, each computed once in dependency order: the value tier (shifts,
degree lists, routes, e), all a hunt reads, and the table tier (shift
summary, purity, bound verdicts) of the resolution's step lists.  ``e``
is the value route's value or nothing, never another route's; a route
that fails on a valid matrix is an anomaly in every verb, filed by a
sweep under multiplicity_agreement and raised by a hunt.
Sweeps and hunts stream the enumeration through one ordered driver; a
sweep makes one pass per instance, running the enabled checks as plain
code and rendering the family's CSV line with one f-string, which is
what a worker sends back through the pipe.  Every instance builds its
degree lists once, none is sorted or searched, and nothing is cached
across instances.  Reports are deterministic: byte-identical across
runs and across worker counts, so wall-clock runtime is kept off them.
"""
from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from functools import partial
from itertools import accumulate, product
from operator import lt, mul
from types import ModuleType
from typing import Callable, Iterable, Iterator, TextIO

from . import betti, bounds, cm2, gor3, oracle
from .betti import ShiftSummary
from .bounds import BoundVerdict
from .errors import (
    CharacterizationViolated,
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

HUNT_CSV_COLUMNS = (
    "target", "family", "t", "a", "b", "d",
    "m1", "m2", "m3", "M1", "M2", "M3", "e",
    "lhs", "rhs", "factor", "hyp_i", "hyp_ii",
)


@dataclass(frozen=True)
class SweepConfig:
    """Range, check subset, and parallelism for one sweep or hunt; the
    checks default to the family's CHECKS and FINDINGS, in that order."""

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
        if count_instances(self.family, self.t_max, self.entry_max) > INSTANCE_LIMIT:
            raise ValueError(
                f"{self.family} range t <= {self.t_max}, entries <= {self.entry_max} "
                f"holds more than {INSTANCE_LIMIT} instances"
            )
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
    ever formed, with no generate-and-filter and no re-check.
    """
    for t in range(1, t_max + 1):
        for a in product(range(1, entry_max + 1), repeat=t):
            lows = [
                max(a[i], a[i + 1]) if i + 1 < t else a[i] for i in range(t)
            ]
            for b in product(*(range(lo, entry_max + 1) for lo in lows)):
                yield cm2.DegreeMatrixCM2.unchecked(a, b)


def enumerate_gor3(t_max: int, entry_max: int) -> Iterator[gor3.DegreeMatrixGor3]:
    """All valid symmetric matrices, (a, b, d)-lex order, with a_1 <= d <= entry_max."""
    for base in enumerate_cm2(t_max, entry_max):
        for d in range(base.a[0], entry_max + 1):
            yield gor3.DegreeMatrixGor3(base, d)


# The most instances a sweep or hunt may range over: a larger range is
# refused before any work starts.
INSTANCE_LIMIT = 10**7


def count_instances(family: str, t_max: int, entry_max: int) -> int:
    """The number of instances the family's enumerator yields, or
    INSTANCE_LIMIT + 1 for any range holding more.

    A cm2 instance is a chain a_1..a_t in [1, E] whose b_i range over
    [max(a_i, a_(i+1)), E] and b_t over [a_t, E]; a gor3 instance adds d
    in [a_1, E].  So with ways[n] the chains a_1..a_i ending in n, each
    weighted by its choices of b_1..b_(i-1) (and d), the t = i instances
    number sum_n ways[n] (E - n + 1), and the next ways[n] is
    sum_a ways[a] (E - max(a, n) + 1): one prefix-sum pass per t.  The
    count stops once past the limit.  E = 1 holds one instance per t.
    For E >= 2 each t holds at least 2^t instances, so the count passes
    the limit within 24 passes, and t = 1 alone holds at least
    E(E + 1)/2, so a huge E is refused before any pass.
    """
    E, over = entry_max, INSTANCE_LIMIT + 1
    if E <= 1:
        return min(t_max * E, over)
    if E * (E + 1) // 2 > INSTANCE_LIMIT:
        return over
    rest = range(E, 0, -1)  # E - n + 1 for n = 1..E
    ways = [1] * E if family == "cm2" else list(rest)
    count = 0
    for _ in range(t_max):
        ends = list(map(mul, ways, rest))
        total = sum(ends)
        count += total
        if count > INSTANCE_LIMIT:
            return over
        # (E - n + 1) sum_(a <= n) ways[a] + sum_(a > n) ways[a] (E - a + 1)
        ways = [r * low + total - tail
                for r, low, tail in zip(rest, accumulate(ways), accumulate(ends))]
    return count


# A CSV cell's text for each flag, and blank where no value was bounded.
_FLAG = {True: "true", False: "false", None: ""}


def _verdict_cells(pair: tuple[BoundVerdict, BoundVerdict] | None) -> str:
    """The holds and sharp CSV cells of a lower and an upper verdict,
    or four blank cells when there is no value to bound."""
    if pair is None:
        return ",,,"
    lower, upper = pair
    return f"{_FLAG[lower.holds]},{_FLAG[lower.sharp]},{_FLAG[upper.holds]},{_FLAG[upper.sharp]}"


# The purity of an instance whose step lists could not be formed.
_UNKNOWN_PURITY = betti.Purity(None, None)


def _failed(check: str, verdicts: tuple[BoundVerdict, ...]) -> list[tuple]:
    return [(check, f"{v.name}: {v.lhs}", v.rhs) for v in verdicts if not v.holds]


class Evaluation:
    """Everything a verb reads about one matrix, as plain attributes in
    two tiers, each filled once in dependency order.

    The value tier, filled by the constructor, holds ``shifts``, the
    block's ascending ``degrees``, ``routes`` and ``e``.  ``ROUTES`` maps
    each multiplicity route to the function computing it, the value
    route first; a route that fails holds its exception in place of a
    value.  The value route always runs, the others only for
    ``every_route``, and ``e`` is the value route's value, or None when
    it failed: no other route stands in for it.  A route that fails is
    an anomaly in every verb: a sweep files it, and the verbs that file
    none raise it through :meth:`agree`.  A route reads what it needs
    inside its own failure handling: the resolution's ascending step
    lists, one per homological step, through :meth:`resolution`.  The
    table tier, :meth:`tables`, holds the ``summary`` read off the ends
    of those lists, its ``purity`` and the bound verdicts, None without
    a value.  Step lists that cannot be formed are the resolution
    route's failure, filed or raised like any other, and leave no
    summary.  A hunt reads the value tier alone, so it builds no
    resolution.

    ``CHECKS``, the family's one table of anomaly checks, is in report
    order, and ``FINDINGS`` names the open bounds a sweep reports as
    findings; :meth:`sweep_row` runs the enabled ones as plain code.
    """

    family: str
    codim: int
    MODULE: ModuleType
    INSTANCE: type
    ROUTES: dict[str, Callable[[Evaluation], int]]
    CHECKS: tuple[str, ...]
    FINDINGS: tuple[str, ...]
    DEGREE: int

    def __init__(self, instance, every_route: bool) -> None:
        """The value tier; the routes after the value route run only if ``every_route``."""
        self.instance = instance
        self.shifts = self.MODULE.shifts(instance)
        self.degrees = cm2.degrees(self.block)
        routes = self.routes = {}
        for name, route in self.ROUTES.items():
            try:
                routes[name] = route(self)
            except (InternalMismatch, DivisionError) as exc:
                routes[name] = exc
            if not every_route:
                break
        value = next(iter(routes.values()))
        self.e = value if isinstance(value, int) else None

    def route_anomalies(self) -> list[tuple]:
        """(lhs, rhs) of each route that ran and failed, then of each
        route whose value differs from e: empty when the routes agree."""
        e, routes = self.e, self.routes
        # One distinct value among the routes means they all agree.
        if e is not None and len(set(routes.values())) == 1:
            return []
        found = [(f"{name} route", value) for name, value in routes.items()
                 if not isinstance(value, int)]
        if e is not None:
            first = next(iter(routes))
            found += [(f"{first}={e}", f"{name}={value}") for name, value in routes.items()
                      if isinstance(value, int) and value != e]
        return found

    def agree(self) -> bool:
        """Whether the routes agree, for a verb that files no anomalies:
        the first route that failed is raised as an anomaly naming it."""
        found = self.route_anomalies()
        for lhs, rhs in found:
            if isinstance(rhs, Exception):
                raise InternalMismatch(f"{lhs}: {rhs}")
        return not found

    def extremes(self) -> ShiftSummary:
        """The shifts computed from the matrix, as a ShiftSummary."""
        return ShiftSummary(self.shifts[: self.codim], self.shifts[self.codim:])

    def tables(self) -> None:
        """The table tier, read after the value tier.  Step lists that
        cannot be formed fail the resolution route, whether or not it
        ran, and leave no summary: purity and the HHS verdicts are then
        unknown, and the checks that read them skip the instance."""
        try:
            self.summary = betti.shift_summary(self.resolution())
        except (InternalMismatch, DivisionError) as exc:
            self.routes["resolution"] = exc
            self.summary, self.purity, self.hhs = None, _UNKNOWN_PURITY, None
        else:
            self.purity = betti.summary_purity(self.summary)
            self.hhs = None if self.e is None else bounds.hhs_bounds(self.summary, self.e)
        self._verdicts()

    def sweep_row(self, order: dict[str, int], entry_max: int, csv: bool) -> tuple:
        """(CSV line or None, anomalies, sharp case, finding or None): one
        pass over the instance for a sweep whose checks are the keys of
        ``order``, each mapped to its place in the report."""
        self.tables()
        found = self._anomalies(order, entry_max)
        anomalies = ()
        if found:
            inst = self.instance.to_json_dict()
            found.sort(key=lambda x: order.get(x[0], -1))
            anomalies = tuple(Anomaly(inst, check, str(lhs), str(rhs)) for check, lhs, rhs in found)
        pure = self.e is not None and self.purity.pure
        return (
            self.csv_line() if csv else None,
            anomalies,
            {"instance": self.instance.to_json_dict(), "e": self.e} if pure else None,
            self._finding(order),
        )

    def _anomalies(self, on: dict[str, int], entry_max: int) -> list[tuple]:
        """(check, lhs, rhs) of each failure of the checks in ``on``.
        Every route that ran and failed is filed under
        multiplicity_agreement, enabled or not; an instance with no value
        has nothing else filed by any check that reads e, and one with no
        summary nothing by any check that reads the summary."""
        e = self.e
        found = [("multiplicity_agreement", lhs, rhs) for lhs, rhs in self.route_anomalies()]
        if "shift_agreement" in on:
            m, M = extremes = self.extremes()
            if self.summary is not None and self.summary != extremes:
                found.append(("shift_agreement", self.shifts, self.summary))
            if not (all(map(lt, m, m[1:])) and all(map(lt, M, M[1:]))):
                found.append(("shift_agreement", "strictly increasing shifts", self.shifts))
        if self.hhs is not None:  # a value and a summary
            if "hhs_bounds" in on:
                found += _failed("hhs_bounds", self.hhs)
            if "sharpness_purity" in on:
                try:
                    bounds.sharpness(*self.hhs, self.purity.pure)
                except CharacterizationViolated as exc:
                    found.append(("sharpness_purity", "flags", exc))
            if "huneke_miller" in on and self.purity.pure:
                try:
                    hm = betti.pure_multiplicity(self.summary)
                except DivisibilityError as exc:
                    found.append(("huneke_miller", "pure-shift formula", exc))
                else:
                    if hm != e:
                        found.append(("huneke_miller", hm, e))
        if e is not None:
            if f"{self.family}_bounds" in on:
                found += _failed(f"{self.family}_bounds", self.sharper)
            if "extension" in on:
                self._extension(entry_max, found)
        return found

    def _extension(self, entry_max: int, found: list) -> None:
        """The basic-double-link recursion of every appended pair (a, b),
        checked on the pairs with b <= min(entry_max, DEGREE + 1), b-major,
        through the family's extension kernel, called once on the base
        values with a <= the instance's own b_t; kernel inputs that
        cannot be formed (a gor3 block curve that raises) are filed once,
        as ``kernel inputs``.

        Those pairs fix every child, of any size.  For a fixed base both
        sides of each recursion are polynomials of total degree at most
        k = DEGREE in (a, b), so their difference p is one too.  In
        x = a - 1, y = b - a the children form the region
        {x >= 0, y >= 0, x <= b_t - 1}.  When entry_max <= k every child
        is checked; otherwise the checked pairs are the region's points
        with x + y <= k.  Write p in the Newton basis,
        p = sum c_ij C(x, i) C(y, j) over i + j <= k.  At the point (x, y)
        the term (i, j) vanishes unless i <= x and j <= y, so p = 0 at the
        checked points gives, point by point in order of x + y, c_ij = 0
        for every i <= b_t - 1.  When b_t <= k the terms with i >= b_t
        are left, and C(x, i) vanishes at every x <= b_t - 1 < i, so on
        the whole region.  Either way p vanishes on every child, b >
        entry_max included (Chung and Yao, SIAM J. Numer. Anal. 1977).
        A fault of degree above k can vanish on the checked pairs alone.
        """
        bound = min(entry_max, self.DEGREE + 1)
        try:
            failures = self._extension_failures(self.e, self.block.b[-1], bound)
        except (InternalMismatch, DivisionError) as exc:
            found.append(("extension", "kernel inputs", exc))
            return
        found += [("extension", f"append (a={a}, b={b})", exc) for a, b, exc in failures]

    def _finding(self, on: dict[str, int]) -> dict | None:
        return None

    def _candidate(self, v: BoundVerdict) -> dict:
        return {
            "instance": self.instance.to_json_dict(),
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
        "resolution": lambda ev: betti.resolution_multiplicity(2, ev.degrees),
        "staircase": lambda ev: oracle.colength(cm2.witness_monomial_ideal(ev.instance)),
    }
    CHECKS = (
        "multiplicity_agreement", "cm2_bounds", "hhs_bounds",
        "sharpness_purity", "huneke_miller", "extension", "shift_agreement",
    )
    FINDINGS = ("prop24",)
    # The total degree of both sides of the extension recursion in (a, b).
    DEGREE = 2

    @property
    def block(self) -> cm2.DegreeMatrixCM2:
        return self.instance

    def resolution(self) -> cm2.DegreeLists:
        """The resolution's step lists: the degree lists themselves."""
        return self.degrees

    def _verdicts(self) -> None:
        e = self.e
        self.sharper = None if e is None else bounds.cm2_bounds(*self.shifts, e)
        self.prop24 = None if e is None else bounds.prop24_bound(self.instance, e, self.shifts)

    @property
    def prop24_flags(self) -> dict:
        p24 = self.prop24
        return {"hyp_i": p24.hyp_i, "hyp_ii": p24.hyp_ii, "hyp_ii_margin": p24.hyp_ii_margin}

    @property
    def verdicts(self) -> tuple[BoundVerdict, ...]:
        return (*self.hhs, *self.sharper, self.prop24.verdict)

    def _extension_failures(self, e: int, cap: int, entry_max: int) -> list[tuple]:
        return cm2.extension_failures(e, self.degrees, cap, entry_max)

    def _finding(self, on: dict[str, int]) -> dict | None:
        if "prop24" not in on or self.prop24 is None or self.prop24.verdict.holds:
            return None
        v = self.prop24.verdict
        inst = self.instance.to_json_dict()
        return {"instance": inst, **self.prop24_flags, "lhs": v.lhs, "rhs": v.rhs}

    def csv_line(self) -> str:
        A, (m1, m2, M1, M2), pur, e = self.instance, self.shifts, self.purity, self.e
        p24 = self.prop24
        hyp_i, hyp_ii, _ = bounds.prop24_hypotheses(A, self.shifts) if p24 is None else p24[:3]
        holds = None if p24 is None else p24.verdict.holds
        return (
            f"cm2,{len(A.a)},{' '.join(map(str, A.a))},{' '.join(map(str, A.b))},,"
            f"{m1},{m2},,{M1},{M2},,{'' if e is None else e},"
            f"{_FLAG[pur.pure]},{_FLAG[pur.quasi_pure]},{_verdict_cells(self.hhs)},"
            f"{_verdict_cells(self.sharper)},,,,,{_FLAG[hyp_i]},{_FLAG[hyp_ii]},{_FLAG[holds]},,\n"
        )

    def hunt_candidate(self, require_hypotheses: bool) -> dict | None:
        """A violation of the prop24 bound, optionally only under a hypothesis."""
        p24 = self.prop24 = bounds.prop24_bound(self.instance, self.e, self.shifts)
        if p24.verdict.holds or (require_hypotheses and not (p24.hyp_i or p24.hyp_ii)):
            return None
        return {**self._candidate(p24.verdict), **self.prop24_flags}


class Gor3Evaluation(Evaluation):
    family = "gor3"
    codim = 3
    MODULE = gor3
    INSTANCE = gor3.DegreeMatrixGor3
    ROUTES = {
        "pfaffian": lambda ev: gor3.multiplicity_pfaffian(ev.instance),
        "resolution": lambda ev: betti.resolution_multiplicity(3, ev.resolution()),
        "linkage": lambda ev: gor3._linkage_value(ev.shifts, ev.curve()),
    }
    CHECKS = (
        "multiplicity_agreement", "self_duality", "gor3_bounds", "hhs_bounds",
        "sharpness_purity", "huneke_miller", "extension", "shift_agreement",
    )
    FINDINGS = ()
    # The total degree of both sides of each extension recursion in (a, b).
    DEGREE = 3
    # Built on first read: the step lists, for the resolution route and the table
    # tier, and the block curve (e(R/J), g), for the linkage route and the extension.
    steps: tuple | None = None
    block_curve: tuple[int, int] | None = None

    @property
    def block(self) -> cm2.DegreeMatrixCM2:
        return self.instance.base

    def resolution(self) -> tuple:
        """The self-dual resolution's step lists, built on first read."""
        if self.steps is None:
            self.steps = gor3.step_lists(self.instance, self.degrees)
        return self.steps

    def curve(self) -> tuple[int, int]:
        """The block curve's (e(R/J), g), built on first read."""
        if self.block_curve is None:
            self.block_curve = gor3.block_curve(self.degrees)
        return self.block_curve

    def _verdicts(self) -> None:
        e = self.e
        self.sharper = None if e is None else bounds.gor3_bounds(*self.shifts[:3], e)
        self.srinivasan = None if e is None else bounds.srinivasan_bounds(self.extremes(), e)

    @property
    def verdicts(self) -> tuple[BoundVerdict, ...]:
        return (*self.hhs, *self.sharper, *self.srinivasan[:2])

    def _anomalies(self, on: dict[str, int], entry_max: int) -> list[tuple]:
        """The shared checks, and self_duality: step-1 shifts inside
        (0, m3); shift_agreement compares m3 itself."""
        found = super()._anomalies(on, entry_max)
        if "self_duality" in on and self.summary is not None:
            step1, m3 = self.resolution()[0], self.shifts.m3
            if not all(0 < shift < m3 for shift in step1):
                found.append(("self_duality", "step-1 shifts inside (0, m3)", step1))
        return found

    def _extension_failures(self, e: int, cap: int, entry_max: int) -> list[tuple]:
        return gor3.extension_failures(self.instance, e, self.curve(), self.degrees, cap, entry_max)

    def csv_line(self) -> str:
        G, s, pur, e, sri = self.instance, self.shifts, self.purity, self.e, self.srinivasan
        A = G.base
        lower, upper = (None, None) if sri is None else (sri[0].holds, sri[1].holds)
        return (
            f"gor3,{len(A.a)},{' '.join(map(str, A.a))},{' '.join(map(str, A.b))},{G.d},"
            f"{s.m1},{s.m2},{s.m3},{s.M1},{s.M2},{s.M3},{'' if e is None else e},"
            f"{_FLAG[pur.pure]},{_FLAG[pur.quasi_pure]},{_verdict_cells(self.hhs)},,,,,"
            f"{_verdict_cells(self.sharper)},,,,{_FLAG[lower]},{_FLAG[upper]}\n"
        )

    def hunt_candidate(self, require_hypotheses: bool) -> dict | None:
        """A violation of Srinivasan's upper bound, optionally only under
        quasi-purity, the hypothesis under which the bound is claimed."""
        _, upper, quasi_pure = bounds.srinivasan_bounds(self.extremes(), self.e)
        if upper.holds or (require_hypotheses and not quasi_pure):
            return None
        return self._candidate(upper)


# The evaluation class of each family.
EVALUATIONS: dict[str, type[Evaluation]] = {"cm2": CM2Evaluation, "gor3": Gor3Evaluation}


def evaluate(instance: cm2.DegreeMatrixCM2 | gor3.DegreeMatrixGor3) -> Evaluation:
    """Both tiers of one cm2 or gor3 matrix, with every route."""
    for cls in EVALUATIONS.values():
        if isinstance(instance, cls.INSTANCE):
            ev = cls(instance, True)
            ev.tables()
            return ev
    raise TypeError(f"cannot evaluate {type(instance).__name__}")


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
    import multiprocessing  # only here, so a run at one job never loads it

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(fn, items, BATCH)


def _sweep_instance(item, cls: type, order: dict[str, int], entry_max: int, csv: bool) -> tuple:
    """(CSV line or None, anomalies, sharp case, finding or None) of one instance."""
    return cls(item, "multiplicity_agreement" in order).sweep_row(order, entry_max, csv)


def _sweep(config: SweepConfig, stream: TextIO | None) -> SweepReport:
    start = time.perf_counter()
    n = 0
    anomalies: list[Anomaly] = []
    sharps: list[dict] = []
    findings: list[dict] = []
    fn = partial(
        _sweep_instance,
        cls=EVALUATIONS[config.family],
        order={name: i for i, name in enumerate(config.checks)},
        entry_max=config.entry_max,
        csv=stream is not None,
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
    """The candidate of one instance; a hunt raises a failed value route."""
    ev = cls(item, False)
    ev.agree()
    return ev.hunt_candidate(require_hypotheses)


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
