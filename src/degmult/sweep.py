"""Exhaustive enumeration of degree matrices with full invariant checking.

Every valid matrix in a bounded range is visited exactly once, in
lexicographic order, and every enabled identity, bound, and recursion
is verified on it.  Violations are collected as data, never raised, so
a report always comes back; a nonempty anomaly list means either an
implementation bug (all the checked identities are theorems) or, for
the hunted open questions, a genuine discovery.  An anomaly is a plain
JSON object: the ``check`` that failed, the ``kind`` of failure, the
``instance``, then the kind's fields: ints, bools and lists of ints read
off the integers the check decided on, names (a route, a bound and its
relation) as strings, and an exception only as its ``error`` message.
The kinds and their fields are tabled in the README.  Every verb reads an instance through one :class:`Evaluation`,
whose facts come in two tiers, each computed once in dependency order:
the value tier (shifts, degree lists, routes, e), all a hunt reads, and
the table tier, plain integers read off the ends of the resolution's
step lists: purity, and each bound's cleared sides and flags from the
side functions of :mod:`bounds`.  ``e`` is the value route's value or
nothing, never another route's; a route that fails on a valid matrix is
an anomaly in every verb, filed by a sweep under multiplicity_agreement
and raised by a hunt.  Sweeps and hunts share one loop over one ordered
driver of the family's enumeration, a hunt's candidate in a sweep's
finding slot; a sweep makes one pass per instance, deciding the enabled
checks on those integers as plain code and rendering the family's CSV
line with one f-string, which is what a worker sends back through the
pipe.  A bound's JSON object (:func:`bounds.shown`) is made only where a
report shows one: a ``bound_fails`` anomaly, a prop24 finding and a
hunt's candidate.  Every instance builds its degree lists once, none is
sorted or searched, and nothing is cached across instances.  Reports are
deterministic: byte-identical across runs and across worker counts, so
wall-clock runtime is kept off them.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, product
from operator import mul
from types import ModuleType
from typing import Callable, Iterable, Iterator, TextIO

from . import betti, bounds, cm2, gor3, oracle
from .errors import (
    DivisibilityError,
    DivisionError,
    InternalMismatch,
    UnknownTarget,
)

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
            raise ValueError(f"family must be {' or '.join(EVALUATIONS)}, got {self.family!r}")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.entry_max < 0:
            raise ValueError("entry_max must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        size = (f"{self.family} range t <= {self.t_max}, entries <= {self.entry_max} "
                "holds more than")
        if count_instances(self.family, self.t_max, self.entry_max) > INSTANCE_LIMIT:
            raise ValueError(f"{size} {INSTANCE_LIMIT} instances")
        if count_entries(self.family, self.t_max, self.entry_max) > ENTRY_LIMIT:
            raise ValueError(f"{size} {ENTRY_LIMIT} diagonal entries")
        cls = EVALUATIONS[self.family]
        allowed = cls.CHECKS + cls.FINDINGS
        object.__setattr__(self, "checks", allowed if self.checks is None else tuple(self.checks))
        unknown = set(self.checks) - set(allowed)
        if unknown:
            raise ValueError(f"unknown checks for {self.family}: {sorted(unknown)}")
        if len(set(self.checks)) != len(self.checks):
            raise ValueError(f"checks named more than once: {','.join(self.checks)}")


class _Report:
    def to_json_dict(self) -> dict:
        """Every field but the runtime, as it is: its anomalies, sharp
        cases, findings and candidates are JSON values already.  The
        runtime is kept off so that serialized reports are byte-identical
        across runs and parallelism levels."""
        return {k: v for k, v in vars(self).items() if k != "runtime_seconds"}


@dataclass(frozen=True)
class SweepReport(_Report):
    family: str
    t_max: int
    entry_max: int
    checks: tuple[str, ...]
    instances_checked: int
    anomalies: tuple[dict, ...]
    sharp_cases: tuple[dict, ...]
    prop24_findings: tuple[dict, ...]
    runtime_seconds: float

    @property
    def ok(self) -> bool:
        return not self.anomalies


@dataclass(frozen=True)
class HuntReport(_Report):
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


def enumerate_cm2(t_max: int, entry_max: int) -> Iterator[cm2.DegreeMatrixCM2]:
    """All valid matrices with t <= t_max, entries <= entry_max, (a, b)-lex order.

    The b-ranges start at max(a_i, a_{i+1}), so only valid matrices are
    ever formed, with no generate-and-filter and no re-check.  With
    entry_max < 1 there are none, and no t is visited.
    """
    if entry_max < 1:
        return
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


# The most instances a sweep or hunt may range over, and the most
# diagonal entries (the sum of t over those instances, which the work
# grows with) their matrices may hold: a larger range is refused before
# any work starts.
INSTANCE_LIMIT = 10**7
ENTRY_LIMIT = 10**8


def _counts_by_t(family: str, E: int) -> Iterator[int]:
    """The number of instances of each t = 1, 2, .. with entries <= E >= 2.

    A cm2 instance is a chain a_1..a_t in [1, E] whose b_i range over
    [max(a_i, a_(i+1)), E] and b_t over [a_t, E]; a gor3 instance adds d
    in [a_1, E].  So with ways[n] the chains a_1..a_i ending in n, each
    weighted by its choices of b_1..b_(i-1) (and d), the t = i instances
    number sum_n ways[n] (E - n + 1), and the next ways[n] is
    sum_a ways[a] (E - max(a, n) + 1): one prefix-sum pass per t.  Each t
    holds at least 2^t instances.
    """
    rest = range(E, 0, -1)  # E - n + 1 for n = 1..E
    ways = list(rest) if EVALUATIONS[family].CENTER else [1] * E
    while True:
        ends = list(map(mul, ways, rest))
        total = sum(ends)
        yield total
        # (E - n + 1) sum_(a <= n) ways[a] + sum_(a > n) ways[a] (E - a + 1)
        ways = [r * low + total - tail
                for r, low, tail in zip(rest, accumulate(ways), accumulate(ends))]


def count_instances(family: str, t_max: int, entry_max: int) -> int:
    """The number of instances the family's enumerator yields, or
    INSTANCE_LIMIT + 1 for any range holding more.

    E = entry_max <= 1 holds E instances per t.  For E >= 2 the count
    stops once past the limit, within 24 passes of :func:`_counts_by_t`,
    and t = 1 alone holds at least E(E + 1)/2, so a huge E is refused
    before any pass.
    """
    E, over = entry_max, INSTANCE_LIMIT + 1
    if E <= 1:
        return min(t_max * E, over)
    if E * (E + 1) // 2 > INSTANCE_LIMIT:
        return over
    count = 0
    for _, n in zip(range(t_max), _counts_by_t(family, E)):
        count += n
        if count > INSTANCE_LIMIT:
            return over
    return count


def count_entries(family: str, t_max: int, entry_max: int) -> int:
    """The diagonal entries of the range's instances, sum_t t n_t, or
    ENTRY_LIMIT + 1 for any range holding more: a closed form for
    E = entry_max <= 1, and for E >= 2 a stop within 22 passes, as
    sum_(t <= 22) t 2^t passes the limit."""
    E, over = entry_max, ENTRY_LIMIT + 1
    if E <= 1:
        return min(E * t_max * (t_max + 1) // 2, over)
    if E * (E + 1) // 2 > ENTRY_LIMIT:
        return over
    count = 0
    for t, n in zip(range(1, t_max + 1), _counts_by_t(family, E)):
        count += t * n
        if count > ENTRY_LIMIT:
            return over
    return count


# A CSV cell's text for each flag, and blank where no value was bounded.
_FLAG = {True: "true", False: "false", None: ""}

# The flags of a pair of bounds with no value to bound.
_NO_FLAGS = (None, None, None, None)

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
    lists, one per homological step, through :meth:`resolution`.  A hunt
    reads the value tier alone, so it builds no resolution.

    The table tier is plain integers.  :meth:`tables` reads the ``ends``
    of the step lists (:func:`betti.step_ends`, in the layout of
    ``shifts``), or None when the lists cannot be formed, which is the
    resolution route's failure, filed or raised like any other.  The
    family's ``sweep_row`` then makes one pass over the instance: from
    the ends, the shifts and e it computes purity and quasi-purity, each
    bound's cleared sides (the side functions of :mod:`bounds`, the one
    owner of each formula) and their holds and sharp flags, once each,
    as ints and bools, and from those it runs the enabled checks, renders
    the CSV line and picks the sharp case and the finding.  A failing
    check is decided on those ints alone, and files them as its
    anomaly's fields: ``(check, kind, fields)``, given the instance by
    :meth:`_row`.  compute reads the same tiers (``cli._compute_matrix``).

    ``CHECKS``, the family's one table of anomaly checks, is in report
    order, and ``FINDINGS`` names the open bounds a sweep reports as
    findings; ``sweep_row`` runs the enabled ones as plain code.  Each
    family declares once its enumerator ``ENUMERATE``, whether it adds a
    center d in [a_1, entry_max] to the block (``CENTER``, which
    :func:`count_instances` reads) and its hunt: the ``TARGET`` and the
    open upper bound searched, ``OPEN`` in :data:`bounds.FACTORS`, its
    cleared sides ``open_sides(shifts, e)`` and :meth:`hypotheses`
    (whether they hold, and the fields a candidate shows).
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

    def route_anomalies(self) -> list[tuple[str, dict]]:
        """(kind, fields) of each route that ran and failed, then of each
        route whose value differs from e: empty when the routes agree."""
        e, routes = self.e, self.routes
        # One distinct value among the routes means they all agree.
        if e is not None and len(set(routes.values())) == 1:
            return []
        found = [("route_failed", {"route": name, "error": str(value)})
                 for name, value in routes.items() if not isinstance(value, int)]
        if e is not None:
            found += [("routes_disagree", {"route": name, "value": value, "e": e})
                      for name, value in routes.items() if isinstance(value, int) and value != e]
        return found

    def agree(self) -> bool:
        """Whether the routes agree, for a verb that files no anomalies:
        the first route that failed is raised as an anomaly naming it."""
        found = self.route_anomalies()
        for kind, fields in found:
            if kind == "route_failed":
                raise InternalMismatch(f"{fields['route']} route: {fields['error']}")
        return not found

    def tables(self) -> None:
        """The table tier, read after the value tier: the ends of the step
        lists.  Step lists that cannot be formed fail the resolution
        route, whether or not it ran, and leave no ends: purity and the
        HHS bounds are then unknown, and the checks that read them skip
        the instance."""
        try:
            self.ends = betti.step_ends(self.resolution())
        except (InternalMismatch, DivisionError) as exc:
            self.routes["resolution"] = exc
            self.ends = None

    def _agreement(self, on: dict[str, int], increasing: bool) -> list[tuple]:
        """The anomalies of multiplicity_agreement, filed whether enabled
        or not, and of shift_agreement: the ends against the shifts, and
        the shifts' strict increase, which the caller tests."""
        found = self.route_anomalies()
        if found:
            found = [("multiplicity_agreement", kind, fields) for kind, fields in found]
        if "shift_agreement" in on:
            if self.ends is not None and self.ends != self.shifts:
                found.append(("shift_agreement", "shift_mismatch",
                              {"shifts": list(self.shifts), "ends": list(self.ends)}))
            if not increasing:
                found.append(("shift_agreement", "shifts_not_increasing",
                              {"shifts": list(self.shifts)}))
        return found

    def _hhs(self, on: dict[str, int], found: list, pure: bool) -> tuple[bool, ...]:
        """(lower holds, lower sharp, upper holds, upper sharp) of the HHS
        bounds of an instance with a value and ends, with the failures of
        hhs_bounds, sharpness_purity and huneke_miller filed into ``found``."""
        e, ends, p = self.e, self.ends, self.codim
        sides = bounds.hhs_sides(p, ends, e)
        flags = lower_holds, lower_sharp, upper_holds, upper_sharp = bounds.flags(*sides)
        if "hhs_bounds" in on and not (lower_holds and upper_holds):
            shown = bounds.shown("hhs", sides, (math.factorial(p),) * 2)
            found += [("hhs_bounds", "bound_fails", v) for v in shown if not v["holds"]]
        if "sharpness_purity" in on and not lower_sharp == upper_sharp == pure:
            found.append(("sharpness_purity", "sharpness_mismatch",
                          {"lower_sharp": lower_sharp, "upper_sharp": upper_sharp, "pure": pure}))
        if "huneke_miller" in on and pure:
            try:
                hm = betti.pure_shifts_multiplicity(ends[:p])
            except DivisibilityError as exc:
                found.append(("huneke_miller", "pure_formula_failed",
                              {"shifts": list(ends[:p]), "error": str(exc)}))
            else:
                if hm != e:
                    found.append(("huneke_miller", "huneke_miller_mismatch",
                                  {"huneke_miller": hm, "e": e}))
        return flags

    def _extension(self, entry_max: int, found: list) -> None:
        """The basic-double-link recursion of every appended pair (a, b),
        checked on the pairs with b <= min(entry_max, DEGREE + 1), b-major,
        through the family's extension kernel, called once on the base
        values with a <= the instance's own b_t; kernel inputs that
        cannot be formed (a gor3 block curve that raises) are filed once,
        as ``kernel_inputs``.

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
            found.append(("extension", "kernel_inputs", {"error": str(exc)}))
            return
        found += [("extension", "append_failed", {"a": a, "b": b, "error": str(exc)})
                  for a, b, exc in failures]

    def hunt_candidate(self, require_hypotheses: bool) -> dict | None:
        """A violation of the family's open upper bound, optionally only
        under its hypotheses, which are read only on a violation; only a
        violation is shown (:func:`bounds.shown`)."""
        sides = self.open_sides(self.shifts, self.e)
        if sides[-2] <= sides[-1]:
            return None
        holds, hyp = self.hypotheses()
        if require_hypotheses and not holds:
            return None
        v = bounds.shown(self.OPEN, sides, bounds.FACTORS[self.OPEN])[-1]
        return {"instance": self.instance.to_json_dict(), **self.shifts._asdict(), "e": self.e,
                "lhs": v["lhs"], "rhs": v["rhs"], "factor": v["factor"], **hyp}

    def _row(self, line: str | None, found: list, on: dict[str, int], pure: bool | None,
             finding: dict | None) -> tuple:
        """The row's (CSV line or None, anomalies, sharp case, finding or
        None), the anomalies in the order of ``on``."""
        anomalies = ()
        if found:
            inst = self.instance.to_json_dict()
            found.sort(key=lambda x: on.get(x[0], -1))
            anomalies = tuple({"check": check, "kind": kind, "instance": inst, **fields}
                              for check, kind, fields in found)
        sharp = None
        if pure and self.e is not None:
            sharp = {"instance": self.instance.to_json_dict(), "e": self.e}
        return line, anomalies, sharp, finding


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
    ENUMERATE = staticmethod(enumerate_cm2)
    CENTER = False
    TARGET, OPEN = "prop24_bound", "prop24"
    open_sides = staticmethod(bounds.prop24_sides)

    @property
    def block(self) -> cm2.DegreeMatrixCM2:
        return self.instance

    def resolution(self) -> cm2.DegreeLists:
        """The resolution's step lists: the degree lists themselves."""
        return self.degrees

    def _extension_failures(self, e: int, cap: int, entry_max: int) -> list[tuple]:
        return cm2.extension_failures(e, self.degrees, cap, entry_max)

    @staticmethod
    def _cm2_bounds_failed(sides: tuple[int, ...], cases: tuple[bool, bool], found: list) -> None:
        """The anomalies of a failed cm2_bounds check, which asks that both
        sharper bounds hold, each sharp exactly in its equality case
        (:func:`bounds.cm2_equality_cases`): a bound that fails is filed
        as that, not as a mismatch too."""
        for v, equal in zip(bounds.shown("cm2", sides, bounds.FACTORS["cm2"]), cases):
            if not v["holds"]:
                found.append(("cm2_bounds", "bound_fails", v))
            elif v["sharp"] != equal:
                found.append(("cm2_bounds", "equality_case_mismatch",
                              {"name": v["name"], "sharp": v["sharp"], "entries_equal": equal}))

    def sweep_row(self, on: dict[str, int], entry_max: int, csv: bool) -> tuple:
        """(CSV line or None, anomalies, sharp case, finding or None): one
        pass over the instance for a sweep whose checks are the keys of
        ``on``, each mapped to its place in the report."""
        self.tables()
        A, s, e, ends = self.instance, self.shifts, self.e, self.ends
        m1, m2, M1, M2 = s
        found = self._agreement(on, m1 < m2 and M1 < M2)
        pure = quasi_pure = holds = finding = None
        hhs = sharper = _NO_FLAGS
        if ends is not None:  # (m1, m2, M1, M2) of the step lists
            pure = ends[0] == ends[2] and ends[1] == ends[3]
            quasi_pure = ends[1] >= ends[2]
        if e is not None:
            if ends is not None:
                hhs = self._hhs(on, found, pure)
            sides = bounds.cm2_sides(m1, m2, M1, M2, e)
            sharper = bounds.flags(*sides)
            if "cm2_bounds" in on:
                cases = bounds.cm2_equality_cases(A.a, A.b)
                if not (sharper[0] and sharper[2] and cases == (sharper[1], sharper[3])):
                    self._cm2_bounds_failed(sides, cases, found)
            if "extension" in on:
                self._extension(entry_max, found)
            if csv or "prop24" in on:
                p24 = bounds.prop24_sides(s, e)
                holds = p24[0] <= p24[1]
                if not holds and "prop24" in on:
                    (v,) = bounds.shown("prop24", p24, bounds.FACTORS["prop24"])
                    finding = {"instance": A.to_json_dict(), **bounds.prop24_hypotheses(A, s),
                               "lhs": v["lhs"], "rhs": v["rhs"]}
        line = None
        if csv:
            hyp = bounds.prop24_hypotheses(A, s)
            line = (
                f"cm2,{len(A.a)},{' '.join(map(str, A.a))},{' '.join(map(str, A.b))},,"
                f"{m1},{m2},,{M1},{M2},,{'' if e is None else e},"
                f"{_FLAG[pure]},{_FLAG[quasi_pure]},"
                f"{_FLAG[hhs[0]]},{_FLAG[hhs[1]]},{_FLAG[hhs[2]]},{_FLAG[hhs[3]]},"
                f"{_FLAG[sharper[0]]},{_FLAG[sharper[1]]},{_FLAG[sharper[2]]},{_FLAG[sharper[3]]},"
                f",,,,{_FLAG[hyp['hyp_i']]},{_FLAG[hyp['hyp_ii']]},{_FLAG[holds]},,\n"
            )
        return self._row(line, found, on, pure, finding)

    def hypotheses(self) -> tuple[bool, dict]:
        hyp = bounds.prop24_hypotheses(self.instance, self.shifts)
        return hyp["hyp_i"] or hyp["hyp_ii"], hyp


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
    ENUMERATE = staticmethod(enumerate_gor3)
    CENTER = True
    TARGET, OPEN = "srinivasan_upper_gor3", "srinivasan"
    open_sides = staticmethod(bounds.srinivasan_sides)
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

    def _extension_failures(self, e: int, cap: int, entry_max: int) -> list[tuple]:
        return gor3.extension_failures(self.instance, e, self.curve(), self.degrees, cap, entry_max)

    def sweep_row(self, on: dict[str, int], entry_max: int, csv: bool) -> tuple:
        """(CSV line or None, anomalies, sharp case, finding or None): one
        pass over the instance for a sweep whose checks are the keys of
        ``on``, each mapped to its place in the report.  self_duality
        tests the step-1 shifts inside (0, m3); shift_agreement compares
        m3 itself."""
        self.tables()
        G, s, e, ends = self.instance, self.shifts, self.e, self.ends
        m1, m2, m3, M1, M2, M3 = s
        found = self._agreement(on, m1 < m2 < m3 and M1 < M2 < M3)
        pure = quasi_pure = None
        hhs = sharper = sri = _NO_FLAGS
        if ends is not None:  # (m1, m2, m3, M1, M2, M3) of the step lists
            pure = ends[0] == ends[3] and ends[1] == ends[4] and ends[2] == ends[5]
            quasi_pure = ends[1] >= ends[3] and ends[2] >= ends[4]
            if "self_duality" in on:
                step1 = self.resolution()[0]
                if not all(0 < shift < m3 for shift in step1):
                    found.append(("self_duality", "self_duality", {"step1": list(step1), "m3": m3}))
        if e is not None:
            if ends is not None:
                hhs = self._hhs(on, found, pure)
            sides = bounds.gor3_sides(m1, m2, m3, e)
            sharper = lower_holds, _, upper_holds, _ = bounds.flags(*sides)
            if "gor3_bounds" in on and not (lower_holds and upper_holds):
                found += [("gor3_bounds", "bound_fails", v)
                          for v in bounds.shown("gor3", sides, bounds.FACTORS["gor3"])
                          if not v["holds"]]
            if "extension" in on:
                self._extension(entry_max, found)
            if csv:
                sri = bounds.flags(*bounds.srinivasan_sides(s, e))
        line = None
        if csv:
            A = G.base
            line = (
                f"gor3,{len(A.a)},{' '.join(map(str, A.a))},{' '.join(map(str, A.b))},{G.d},"
                f"{m1},{m2},{m3},{M1},{M2},{M3},{'' if e is None else e},"
                f"{_FLAG[pure]},{_FLAG[quasi_pure]},"
                f"{_FLAG[hhs[0]]},{_FLAG[hhs[1]]},{_FLAG[hhs[2]]},{_FLAG[hhs[3]]},,,,,"
                f"{_FLAG[sharper[0]]},{_FLAG[sharper[1]]},{_FLAG[sharper[2]]},{_FLAG[sharper[3]]},"
                f",,,{_FLAG[sri[0]]},{_FLAG[sri[2]]}\n"
            )
        return self._row(line, found, on, pure, None)

    def hypotheses(self) -> tuple[bool, dict]:
        return betti.purity(self.shifts)[1], {}  # quasi-purity, shown by no field


# The evaluation class of each family, and the family each hunt target searches.
EVALUATIONS: dict[str, type[Evaluation]] = {"cm2": CM2Evaluation, "gor3": Gor3Evaluation}
HUNT_TARGETS = {cls.TARGET: family for family, cls in EVALUATIONS.items()}


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
    items = EVALUATIONS[config.family].ENUMERATE(config.t_max, config.entry_max)
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


def _drive(fn: Callable, config: SweepConfig, stream: TextIO | None) -> tuple:
    """The one loop of sweeps and hunts: (instances, anomalies, sharp cases,
    findings, seconds) of ``fn``'s rows in range, each CSV line written to ``stream``."""
    start = time.perf_counter()
    n = 0
    anomalies: list[dict] = []
    sharps: list[dict] = []
    findings: list[dict] = []
    for line, found, sharp, finding in _ordered(fn, config):
        n += 1
        anomalies.extend(found)
        if sharp is not None:
            sharps.append(sharp)
        if finding is not None:
            findings.append(finding)
        if line is not None:
            stream.write(line)
    return n, tuple(anomalies), tuple(sharps), tuple(findings), time.perf_counter() - start


def _sweep(config: SweepConfig, stream: TextIO | None) -> SweepReport:
    fn = partial(_sweep_instance, cls=EVALUATIONS[config.family],
                 order={name: i for i, name in enumerate(config.checks)},
                 entry_max=config.entry_max, csv=stream is not None)
    n, anomalies, sharps, findings, runtime = _drive(fn, config, stream)
    return SweepReport(
        family=config.family,
        t_max=config.t_max,
        entry_max=config.entry_max,
        checks=config.checks,
        instances_checked=n,
        anomalies=anomalies,
        sharp_cases=sharps,
        prop24_findings=findings,
        runtime_seconds=runtime,
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


def _hunt_instance(item, cls: type, require_hypotheses: bool) -> tuple:
    """One instance's row, its candidate in the finding slot; a failed value route raises."""
    ev = cls(item, False)
    ev.agree()
    return None, (), None, ev.hunt_candidate(require_hypotheses)


def hunt(target: str, config: SweepConfig, require_hypotheses: bool = False) -> HuntReport:
    """Search the range for violations of one named open question.

    An empty candidate list means no counterexample in range; a
    nonempty one is a discovery to be recorded, not an error of the
    tool.
    """
    family = target_family(target)
    if config.family != family:
        raise ValueError(f"target {target} needs family {family}, got {config.family}")
    fn = partial(_hunt_instance, cls=EVALUATIONS[family], require_hypotheses=require_hypotheses)
    n, _, _, candidates, runtime = _drive(fn, config, None)
    return HuntReport(
        target=target,
        family=family,
        t_max=config.t_max,
        entry_max=config.entry_max,
        require_hypotheses=require_hypotheses,
        instances_checked=n,
        candidates=candidates,
        runtime_seconds=runtime,
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
