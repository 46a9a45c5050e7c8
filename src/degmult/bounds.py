"""Multiplicity bounds as denominator-cleared integer comparisons.

Every bound compares a factorial multiple of the multiplicity against
an integer polynomial in the extreme shifts, so verdicts are exact; the
cleared denominator (2, 6, or 12) is recorded on the verdict.  Covered
are the Herzog-Huneke-Srinivasan conjecture bounds prod(m_i)/p! <= e
<= prod(M_i)/p!, the sharper codimension-2 and Gorenstein
codimension-3 bounds that refine them, a conditional entrywise upper
bound for codimension 2, and Srinivasan's quasi-pure Gorenstein bounds.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from . import cm2 as cm2mod
from .betti import ShiftSummary, summary_purity
from .errors import CharacterizationViolated


class BoundVerdict(namedtuple("_BoundVerdict", "name lhs relation rhs factor")):
    """One cleared inequality: ``lhs relation rhs`` with both sides integer.

    ``lhs`` is the cleared multiple of the multiplicity, ``rhs`` the
    bound expression, ``relation`` ">=" or "<=", and ``factor`` the
    denominator that was cleared.  A plain named tuple, cheap to build,
    as a sweep builds five per instance; only the bound functions below
    build verdicts, each with a constant relation.
    """

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs if self.relation == ">=" else self.lhs <= self.rhs

    @property
    def sharp(self) -> bool:
        return self.lhs == self.rhs

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "relation": self.relation,
            "rhs": self.rhs,
            "factor": self.factor,
            "holds": self.holds,
            "sharp": self.sharp,
        }


class SharpnessVerdict(NamedTuple):
    lower_sharp: bool
    upper_sharp: bool
    pure: bool


class Prop24Verdict(NamedTuple):
    """Hypothesis flags, the subdiagonal margin a_1 - 2d + 1, and the bound."""

    hyp_i: bool
    hyp_ii: bool
    hyp_ii_margin: int | None
    verdict: BoundVerdict


def hhs_bounds(shifts: ShiftSummary, e: int) -> tuple[BoundVerdict, BoundVerdict]:
    """Conjectured bounds prod(m_i) <= p! e <= prod(M_i), cleared by p!,
    with p the number of steps of the shifts."""
    fact = math.factorial(len(shifts.m))
    lower = BoundVerdict("hhs_lower", fact * e, ">=", math.prod(shifts.m), fact)
    upper = BoundVerdict("hhs_upper", fact * e, "<=", math.prod(shifts.M), fact)
    return lower, upper


def cm2_bounds(m1: int, m2: int, M1: int, M2: int, e: int) -> tuple[BoundVerdict, BoundVerdict]:
    """Sharper codimension-2 bounds, cleared by 2.

    2e >= m1 m2 + (M2 - M1)(M2 - m2 + M1 - m1) and
    2e <= M1 M2 - (m2 - m1)(M2 - m2 + M1 - m1).
    """
    spread = (M2 - m2) + (M1 - m1)
    lower = BoundVerdict("cm2_lower", 2 * e, ">=", m1 * m2 + (M2 - M1) * spread, 2)
    upper = BoundVerdict("cm2_upper", 2 * e, "<=", M1 * M2 - (m2 - m1) * spread, 2)
    return lower, upper


def gor3_bounds(m1: int, m2: int, m3: int, e: int) -> tuple[BoundVerdict, BoundVerdict]:
    """Sharper Gorenstein codimension-3 bounds, cleared by 6 and 12.

    6e >= m1 m2 m3 + (M3 - M2)^2 (M2 - m2 + M1 - m1) and
    12e <= 2 M1 M2 M3 - M3 (M2 - m2 + M1 - m1), with the maxima of the
    self-dual resolution, M1 = m3 - m2, M2 = m3 - m1 and M3 = m3.
    """
    M1, M2, M3 = m3 - m2, m3 - m1, m3
    spread = (M2 - m2) + (M1 - m1)
    lower_rhs = m1 * m2 * m3 + (M3 - M2) ** 2 * spread
    upper_rhs = 2 * M1 * M2 * M3 - M3 * spread
    lower = BoundVerdict("gor3_lower", 6 * e, ">=", lower_rhs, 6)
    upper = BoundVerdict("gor3_upper", 12 * e, "<=", upper_rhs, 12)
    return lower, upper


def prop24_hypotheses(
    A: cm2mod.DegreeMatrixCM2, s: cm2mod.ShiftsCM2
) -> tuple[bool, bool, int | None]:
    """The hypothesis flags and margin of :func:`prop24_bound`, which read
    no e: (hyp_i, hyp_ii, a_1 - 2 b_1 + 1 or None when t = 1).  The margin
    is never positive (see :func:`prop24_bound`), so hyp_ii is margin = 0."""
    margin = A.a[0] - 2 * A.b[0] + 1 if len(A.a) >= 2 else None
    return s.m2 - s.M1 >= 2, margin == 0, margin


def prop24_bound(A: cm2mod.DegreeMatrixCM2, e: int, s: cm2mod.ShiftsCM2) -> Prop24Verdict:
    """Conditional entrywise upper bound 2e <= M1 M2 - 2(M1-m1) - 2(M2-m2).

    Sufficient hypotheses tracked alongside the verdict: (i) every
    degree-matrix entry is >= 2, or (ii) t >= 2 and the margin
    a_1 - 2 d + 1 is nonnegative, where d is the (1,2) entry of the
    full matrix (the entry b_1).  Reading d as the subdiagonal (2,1)
    entry instead is refuted by the matrices with a = b = (k, 1),
    k >= 2, whose multiplicity k^2 + k + 1 exceeds the bound while
    that margin stays nonnegative.  The bound is reported, never
    asserted: a violation under a satisfied hypothesis is a
    first-class finding.

    Both hypotheses are read in O(t) without building the grid.  Entry
    (i, j) is the i-th syzygy degree minus the j-th generator degree, so
    along a row it steps by b_j - a_j >= 0 from column j to j+1, and
    down a column by a_{i+1} - b_i <= 0 from row i to i+1: rows
    increase and columns decrease.  The smallest entry is therefore the
    bottom-left one, sum(a) - sum(b[:-1]) = m2 - M1, and the (1,2)
    entry is b_1.

    Hypothesis (ii) has a closed form: it holds iff t >= 2 and
    a_1 = b_1 = 1.  Since b_1 >= a_1 >= 1, the margin is
    a_1 - 2 b_1 + 1 <= 1 - a_1 <= 0, with equality throughout iff
    b_1 = a_1 = 1; so it is nonnegative iff it is 0, iff a_1 = b_1 = 1.

    Under hypothesis (i) the bound is a theorem: it follows from the
    sharper upper bound of :func:`cm2_bounds`,
    2e <= M1 M2 - (m2 - m1)(M2 - m2 + M1 - m1).  The two right sides
    differ by
    [M1 M2 - 2(M1 - m1) - 2(M2 - m2)] - [M1 M2 - (m2 - m1)(M2 - m2 + M1 - m1)]
    = (m2 - m1 - 2)(M2 - m2 + M1 - m1).
    The second factor is >= 0, as M_i >= m_i.  The first is b_t - 2,
    since m2 = m1 + b_t (:func:`cm2.shifts`), and b_t is an entry of the
    matrix, so (i) makes it >= 0.  So every matrix with b_t >= 2, and
    every one satisfying (i), meets the bound; only b_t = 1 can fail it.
    ``s`` is the shifts of A (:func:`cm2.shifts`).
    """
    hyp_i, hyp_ii, margin = prop24_hypotheses(A, s)
    rhs = s.M1 * s.M2 - 2 * (s.M1 - s.m1) - 2 * (s.M2 - s.m2)
    verdict = BoundVerdict("prop24_upper", 2 * e, "<=", rhs, 2)
    return Prop24Verdict(hyp_i=hyp_i, hyp_ii=hyp_ii, hyp_ii_margin=margin, verdict=verdict)


def srinivasan_bounds(
    shifts: ShiftSummary, e: int
) -> tuple[BoundVerdict, BoundVerdict, bool]:
    """Srinivasan's Gorenstein bounds m1 M2 M3 <= 6e <= M1 m2 m3.

    Both are only claimed under quasi-purity (:func:`betti.summary_purity`),
    which is flagged on the result and which the hunt requires under
    --require-hypotheses; the lower bound fails already for the complete
    intersection of type (2, 2, 5), and whether the upper bound holds
    for every Gorenstein codimension-3 ideal is the open question the
    hunt searches.
    """
    if len(shifts.m) != 3:
        raise ValueError("these bounds apply to codimension-3 shift data")
    m, M = shifts.m, shifts.M
    lower = BoundVerdict("srinivasan_lower", 6 * e, ">=", m[0] * M[1] * M[2], 6)
    upper = BoundVerdict("srinivasan_upper", 6 * e, "<=", M[0] * m[1] * m[2], 6)
    return lower, upper, summary_purity(shifts).quasi_pure


def sharpness(lower: BoundVerdict, upper: BoundVerdict, pure: bool) -> SharpnessVerdict:
    """Sharpness flags of the :func:`hhs_bounds` verdicts, checked against purity.

    Either bound is attained exactly when the resolution is pure, and
    then both are; three disagreeing flags raise
    CharacterizationViolated, which no Cohen-Macaulay codimension-2 or
    Gorenstein codimension-3 quotient can trigger.
    """
    lower_sharp, upper_sharp = lower.sharp, upper.sharp
    if not (lower_sharp == upper_sharp == pure):
        raise CharacterizationViolated(
            f"sharpness/purity flags disagree: lower={lower_sharp}, "
            f"upper={upper_sharp}, pure={pure} for {lower} and {upper}"
        )
    return SharpnessVerdict(lower_sharp, upper_sharp, pure)
