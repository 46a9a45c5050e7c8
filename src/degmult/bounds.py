"""Multiplicity bounds as denominator-cleared integer comparisons.

Every bound compares a factorial multiple of the multiplicity against
an integer polynomial in the extreme shifts, so each comparison is
exact; the cleared denominator (2, 6, or 12) is its ``factor``.
Covered are the Herzog-Huneke-Srinivasan conjecture bounds
prod(m_i)/p! <= e <= prod(M_i)/p!, the sharper codimension-2 and
Gorenstein codimension-3 bounds that refine them, a conditional
entrywise upper bound for codimension 2, and Srinivasan's quasi-pure
Gorenstein bounds.

Each formula is written once, in a side function that returns the
bound's cleared sides as plain integers: a pair of bounds gives
(lower lhs, lower rhs, upper lhs, upper rhs), and the lower bound holds
iff lower lhs >= lower rhs, the upper iff upper lhs <= upper rhs; a
bound is sharp iff its two sides are equal (:func:`flags`).  A sweep
row reads these sides and flags alone.  Where a report shows a bound
(compute's bounds list, a ``bound_fails`` anomaly, a prop24 finding, a
hunt candidate) it is the JSON object :func:`shown` makes of the same
sides; nothing else about a bound is ever built.
"""
from __future__ import annotations

import math
from typing import Sequence

from . import cm2 as cm2mod

# The denominator each family's side function clears, lower bound first;
# prop24 bounds e from above only.  The HHS bounds clear p! on both sides.
FACTORS = {"cm2": (2, 2), "gor3": (6, 12), "prop24": (2,), "srinivasan": (6, 6)}


def flags(lower_lhs: int, lower_rhs: int, upper_lhs: int, upper_rhs: int) -> tuple[bool, ...]:
    """(lower holds, lower sharp, upper holds, upper sharp) of a pair's
    cleared sides."""
    return (lower_lhs >= lower_rhs, lower_lhs == lower_rhs,
            upper_lhs <= upper_rhs, upper_lhs == upper_rhs)


def shown(family: str, sides: Sequence[int], factors: Sequence[int]) -> list[dict]:
    """Each bound of a family's cleared sides as a report shows it:
    ``{"name", "lhs", "relation", "rhs", "factor", "holds", "sharp"}``,
    ``lhs`` the cleared multiple ``factor * e`` and ``rhs`` the bound
    expression.  With two factors the sides are a pair's four, giving
    the ``<family>_lower`` and ``<family>_upper`` bounds; with one they
    are the (lhs, rhs) of an upper bound alone."""
    names = ("lower", "upper")[2 - len(factors):]
    return [
        {"name": f"{family}_{name}", "lhs": lhs, "relation": ">=" if name == "lower" else "<=",
         "rhs": rhs, "factor": factor, "holds": lhs >= rhs if name == "lower" else lhs <= rhs,
         "sharp": lhs == rhs}
        for name, factor, lhs, rhs in zip(names, factors, sides[::2], sides[1::2])
    ]


def hhs_sides(p: int, ends: Sequence[int], e: int) -> tuple[int, int, int, int]:
    """Sides of the conjectured bounds prod(m_i) <= p! e <= prod(M_i),
    cleared by p!, from the ends (m_1..m_p, M_1..M_p) of p steps.

    The sharpness characterization reads their flags: either bound is
    attained exactly when the resolution is pure, and then both are.  A
    sweep files three disagreeing flags as a ``sharpness_mismatch`` and
    compute raises CharacterizationViolated; no Cohen-Macaulay
    codimension-2 or Gorenstein codimension-3 quotient can trigger
    either."""
    lhs = math.factorial(p) * e
    return lhs, math.prod(ends[:p]), lhs, math.prod(ends[p:])


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
    b_(t-1); at t = 1 both are (:func:`cm2_equality_cases`).
    ``tests/test_certificate.py`` pins both identities and both
    conditions.
    """
    spread = (M2 - m2) + (M1 - m1)
    lhs = 2 * e
    return lhs, m1 * m2 + (M2 - M1) * spread, lhs, M1 * M2 - (m2 - m1) * spread


def cm2_equality_cases(a: Sequence[int], b: Sequence[int]) -> tuple[bool, bool]:
    """Whether the lower and the upper bound of :func:`cm2_sides` are
    attained on the matrix with diagonals a and b, read off its entries
    as that docstring proves: the lower iff a_2..a_t and b_2..b_t are all
    equal, the upper iff a_1..a_(t-1) and b_1..b_(t-1) are; at t = 1
    both.  A sweep's ``cm2_bounds`` check compares them with the sides'
    sharp flags."""
    n = len(a) - 1
    return a[1:] == b[1:] == (a[-1],) * n, a[:-1] == b[:-1] == (a[0],) * n


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


def prop24_hypotheses(A: cm2mod.DegreeMatrixCM2, s: cm2mod.ShiftsCM2) -> dict:
    """The hypotheses of the prop24 bound (:func:`prop24_sides`), which
    read no e, as reports show them: ``{"hyp_i", "hyp_ii",
    "hyp_ii_margin"}``, the margin a_1 - 2 b_1 + 1, or None when t = 1.
    The margin is never positive (see :func:`prop24_sides`), so hyp_ii is
    margin = 0.  ``s`` is the shifts of A (:func:`cm2.shifts`)."""
    margin = A.a[0] - 2 * A.b[0] + 1 if len(A.a) >= 2 else None
    return {"hyp_i": s.m2 - s.M1 >= 2, "hyp_ii": margin == 0, "hyp_ii_margin": margin}


def prop24_sides(s: cm2mod.ShiftsCM2, e: int) -> tuple[int, int]:
    """Sides (2e, rhs) of the conditional entrywise upper bound
    2e <= M1 M2 - 2(M1-m1) - 2(M2-m2), read off the shifts s.

    Sufficient hypotheses tracked alongside the bound
    (:func:`prop24_hypotheses`): (i) every degree-matrix entry is >= 2,
    or (ii) t >= 2 and the margin a_1 - 2 d + 1 is nonnegative, where d
    is the (1,2) entry of the full matrix (the entry b_1).  Reading d as
    the subdiagonal (2,1) entry instead is refuted by the matrices with
    a = b = (k, 1), k >= 2, whose multiplicity k^2 + k + 1 exceeds the
    bound while that margin stays nonnegative.  The bound is reported,
    never asserted: a violation under a satisfied hypothesis is a
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
    sharper upper bound of :func:`cm2_sides`,
    2e <= M1 M2 - (m2 - m1)(M2 - m2 + M1 - m1).  The two right sides
    differ by
    [M1 M2 - 2(M1 - m1) - 2(M2 - m2)] - [M1 M2 - (m2 - m1)(M2 - m2 + M1 - m1)]
    = (m2 - m1 - 2)(M2 - m2 + M1 - m1).
    The second factor is >= 0, as M_i >= m_i.  The first is b_t - 2,
    since m2 = m1 + b_t (:func:`cm2.shifts`), and b_t is an entry of the
    matrix, so (i) makes it >= 0.  So every matrix with b_t >= 2, and
    every one satisfying (i), meets the bound; only b_t = 1 can fail it.
    """
    return 2 * e, s.M1 * s.M2 - 2 * (s.M1 - s.m1) - 2 * (s.M2 - s.m2)


def srinivasan_sides(ends: Sequence[int], e: int) -> tuple[int, int, int, int]:
    """Sides of Srinivasan's Gorenstein bounds m1 M2 M3 <= 6e <= M1 m2 m3,
    cleared by 6, from the ends (m1, m2, m3, M1, M2, M3); ValueError for
    any other number of ends.

    Both bounds are only claimed under quasi-purity (:func:`betti.purity`),
    which compute shows beside them and which the hunt requires under
    --require-hypotheses; the lower bound fails already for the complete
    intersection of type (2, 2, 5), and whether the upper bound holds
    for every Gorenstein codimension-3 ideal is the open question the
    hunt searches.
    """
    m1, m2, m3, M1, M2, M3 = ends
    lhs = 6 * e
    return lhs, m1 * M2 * M3, lhs, M1 * m2 * m3
