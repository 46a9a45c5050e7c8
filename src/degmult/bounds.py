"""Multiplicity bounds as denominator-cleared integer comparisons.

Every bound compares a factorial multiple of the multiplicity against
an integer polynomial in the extreme shifts, so verdicts are exact; the
cleared denominator (2, 6, or 12) is recorded on the verdict.  Covered
are the Herzog-Huneke-Srinivasan conjecture bounds prod(m_i)/p! <= e
<= prod(M_i)/p!, the sharper codimension-2 and Gorenstein
codimension-3 bounds that refine them, a conditional entrywise upper
bound for codimension 2, and Srinivasan's quasi-pure Gorenstein bounds.

Each formula is written once, in a side function that returns the
bound's cleared sides as plain integers: a pair of bounds gives
(lower lhs, lower rhs, upper lhs, upper rhs), and the lower bound holds
iff lower lhs >= lower rhs, the upper iff upper lhs <= upper rhs; a
bound is sharp iff its two sides are equal (:func:`flags`).  A sweep
reads these sides and flags alone.  The verdict functions keep their names and build their
:class:`BoundVerdict` from the same sides, for the reports that show
one: compute's bounds list, the text of a failing check, and a hunt
candidate.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Sequence

from . import cm2 as cm2mod
from .betti import ShiftSummary, summary_purity
from .errors import CharacterizationViolated


class BoundVerdict(namedtuple("_BoundVerdict", "name lhs relation rhs factor")):
    """One cleared inequality: ``lhs relation rhs`` with both sides integer.

    ``lhs`` is the cleared multiple of the multiplicity, ``rhs`` the
    bound expression, ``relation`` ">=" or "<=", and ``factor`` the
    denominator that was cleared.  Only the verdict functions below
    build verdicts, each from its side function and with a constant
    relation; a sweep builds one only to word a failing check.
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


def flags(lower_lhs: int, lower_rhs: int, upper_lhs: int, upper_rhs: int) -> tuple[bool, ...]:
    """(lower holds, lower sharp, upper holds, upper sharp) of a pair's
    cleared sides, as its verdicts read them."""
    return (lower_lhs >= lower_rhs, lower_lhs == lower_rhs,
            upper_lhs <= upper_rhs, upper_lhs == upper_rhs)


def _pair(
    family: str, sides: tuple[int, int, int, int], lower_factor: int, upper_factor: int
) -> tuple[BoundVerdict, BoundVerdict]:
    """The lower and upper verdicts of a pair's cleared sides."""
    lower_lhs, lower_rhs, upper_lhs, upper_rhs = sides
    return (
        BoundVerdict(f"{family}_lower", lower_lhs, ">=", lower_rhs, lower_factor),
        BoundVerdict(f"{family}_upper", upper_lhs, "<=", upper_rhs, upper_factor),
    )


def hhs_sides(p: int, ends: Sequence[int], e: int) -> tuple[int, int, int, int]:
    """Sides of the conjectured bounds prod(m_i) <= p! e <= prod(M_i),
    cleared by p!, from the ends (m_1..m_p, M_1..M_p) of p steps."""
    lhs = math.factorial(p) * e
    return lhs, math.prod(ends[:p]), lhs, math.prod(ends[p:])


def hhs_bounds(shifts: ShiftSummary, e: int) -> tuple[BoundVerdict, BoundVerdict]:
    """Verdicts of :func:`hhs_sides`, p the number of steps of the shifts."""
    p = len(shifts.m)
    fact = math.factorial(p)
    return _pair("hhs", hhs_sides(p, (*shifts.m, *shifts.M), e), fact, fact)


def cm2_sides(m1: int, m2: int, M1: int, M2: int, e: int) -> tuple[int, int, int, int]:
    """Sides of the sharper codimension-2 bounds, cleared by 2.

    2e >= m1 m2 + (M2 - M1)(M2 - m2 + M1 - m1) and
    2e <= M1 M2 - (m2 - m1)(M2 - m2 + M1 - m1).

    Both gaps have closed forms in the u/v data of the ascending degree
    lists (:func:`cm2.multiplicity_from_degrees`): u_i = f_i - e_i and
    v_i = f_i - e_(i+1), i = 1..t, which are b_(t+1-i) and a_(t+1-i).
    With U = sum(u) and V = sum(v), m1 = V, M1 = U, m2 = V + u_1,
    M2 = U + v_t and e = sum_k v_k (u_1 + .. + u_k), and

        2e - m1 m2 - (M2 - M1)(M2 - m2 + M1 - m1)
          = sum_(i=1..t-1) [(v_i + .. + v_(t-1))(u_i - v_i)
                            + (v_(i+1) + .. + v_(t-1))(u_(i+1) - v_i)],
        M1 M2 - (m2 - m1)(M2 - m2 + M1 - m1) - 2e
          = sum_(j=2..t) [(u_2 + .. + u_j)(u_j - v_j)
                          + (u_2 + .. + u_(j-1))(u_j - v_(j-1))].

    Proof, by induction on t, of both as identities of polynomials in
    the 2t variables.  At t = 1, e = u_1 v_1 and both bounds read
    2 u_1 v_1, so every side is 0.  Prepending (u_0, v_0) = (b, a) to the
    lists appends the row (a, b) to the matrix, the basic double link:
    m1 grows by a, m2 by a + b - u_1, M1 and M2 by b, and e by (V + a) b.
    The lower gap then grows by (a + S)(b - a) + S (u_1 - a),
    S = V - v_t, which is its sum's one new term.  Appending
    (u_(t+1), v_(t+1)) = (x, y) prepends a row instead: m1 and m2 grow by
    y, M1 by x, M2 by x + y - v_t, and e by y (U + x); the upper gap
    grows by (P + x)(x - y) + P (x - v_t), P = U - u_1, its sum's one new
    term.

    On a valid matrix u_i >= v_i >= 1 and u_(i+1) >= v_i, so every
    factor is >= 0 and each nonempty sum of u's or v's is >= 1: both
    bounds hold, and a gap is 0 iff each of its difference factors next
    to a nonempty sum is.  So the lower bound is attained iff
    u_1 = v_1 = u_2 = .. = u_(t-1) = v_(t-1), that is
    a_2 = .. = a_t = b_2 = .. = b_t, and the upper bound iff
    u_2 = v_2 = .. = u_t = v_t, that is a_1 = .. = a_(t-1) = b_1 = .. =
    b_(t-1); at t = 1 both are.  ``tests/test_certificate.py`` pins both
    identities and both conditions.
    """
    spread = (M2 - m2) + (M1 - m1)
    lhs = 2 * e
    return lhs, m1 * m2 + (M2 - M1) * spread, lhs, M1 * M2 - (m2 - m1) * spread


def cm2_bounds(m1: int, m2: int, M1: int, M2: int, e: int) -> tuple[BoundVerdict, BoundVerdict]:
    """Verdicts of :func:`cm2_sides`."""
    return _pair("cm2", cm2_sides(m1, m2, M1, M2, e), 2, 2)


def gor3_sides(m1: int, m2: int, m3: int, e: int) -> tuple[int, int, int, int]:
    """Sides of the sharper Gorenstein codimension-3 bounds, cleared by 6 and 12.

    6e >= m1 m2 m3 + (M3 - M2)^2 (M2 - m2 + M1 - m1) and
    12e <= 2 M1 M2 M3 - M3 (M2 - m2 + M1 - m1), with the maxima of the
    self-dual resolution, M1 = m3 - m2, M2 = m3 - m1 and M3 = m3.
    """
    M1, M2, M3 = m3 - m2, m3 - m1, m3
    spread = (M2 - m2) + (M1 - m1)
    lower_rhs = m1 * m2 * m3 + (M3 - M2) ** 2 * spread
    upper_rhs = 2 * M1 * M2 * M3 - M3 * spread
    return 6 * e, lower_rhs, 12 * e, upper_rhs


def gor3_bounds(m1: int, m2: int, m3: int, e: int) -> tuple[BoundVerdict, BoundVerdict]:
    """Verdicts of :func:`gor3_sides`."""
    return _pair("gor3", gor3_sides(m1, m2, m3, e), 6, 12)


def prop24_hypotheses(
    A: cm2mod.DegreeMatrixCM2, s: cm2mod.ShiftsCM2
) -> tuple[bool, bool, int | None]:
    """The hypothesis flags and margin of :func:`prop24_bound`, which read
    no e: (hyp_i, hyp_ii, a_1 - 2 b_1 + 1 or None when t = 1).  The margin
    is never positive (see :func:`prop24_bound`), so hyp_ii is margin = 0."""
    margin = A.a[0] - 2 * A.b[0] + 1 if len(A.a) >= 2 else None
    return s.m2 - s.M1 >= 2, margin == 0, margin


def prop24_sides(s: cm2mod.ShiftsCM2, e: int) -> tuple[int, int]:
    """Sides (2e, rhs) of the upper bound of :func:`prop24_bound`, read
    off the shifts s."""
    return 2 * e, s.M1 * s.M2 - 2 * (s.M1 - s.m1) - 2 * (s.M2 - s.m2)


def prop24_bound(A: cm2mod.DegreeMatrixCM2, e: int, s: cm2mod.ShiftsCM2) -> Prop24Verdict:
    """Conditional entrywise upper bound 2e <= M1 M2 - 2(M1-m1) - 2(M2-m2),
    with the sides of :func:`prop24_sides`.

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
    lhs, rhs = prop24_sides(s, e)
    verdict = BoundVerdict("prop24_upper", lhs, "<=", rhs, 2)
    return Prop24Verdict(hyp_i=hyp_i, hyp_ii=hyp_ii, hyp_ii_margin=margin, verdict=verdict)


def srinivasan_sides(ends: Sequence[int], e: int) -> tuple[int, int, int, int]:
    """Sides of Srinivasan's Gorenstein bounds m1 M2 M3 <= 6e <= M1 m2 m3,
    cleared by 6, from the ends (m1, m2, m3, M1, M2, M3)."""
    m1, m2, m3, M1, M2, M3 = ends
    lhs = 6 * e
    return lhs, m1 * M2 * M3, lhs, M1 * m2 * m3


def srinivasan_bounds(
    shifts: ShiftSummary, e: int
) -> tuple[BoundVerdict, BoundVerdict, bool]:
    """Verdicts of :func:`srinivasan_sides` on codimension-3 shift data,
    and its quasi-purity.

    Both bounds are only claimed under quasi-purity (:func:`betti.summary_purity`),
    which is flagged on the result and which the hunt requires under
    --require-hypotheses; the lower bound fails already for the complete
    intersection of type (2, 2, 5), and whether the upper bound holds
    for every Gorenstein codimension-3 ideal is the open question the
    hunt searches.
    """
    if len(shifts.m) != 3:
        raise ValueError("these bounds apply to codimension-3 shift data")
    lower, upper = _pair("srinivasan", srinivasan_sides((*shifts.m, *shifts.M), e), 6, 6)
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
        raise sharpness_violation(lower, upper, pure)
    return SharpnessVerdict(lower_sharp, upper_sharp, pure)


def sharpness_violation(
    lower: BoundVerdict, upper: BoundVerdict, pure: bool
) -> CharacterizationViolated:
    """The failure :func:`sharpness` raises on these verdicts, worded
    from them, for a caller that found their flags disagreeing."""
    return CharacterizationViolated(
        f"sharpness/purity flags disagree: lower={lower.sharp}, "
        f"upper={upper.sharp}, pure={pure} for {lower} and {upper}"
    )
