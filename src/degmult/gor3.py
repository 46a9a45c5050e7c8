"""Codimension-3 Gorenstein degree matrices.

A codimension-3 Gorenstein ideal with 2t+1 generators has a skew
Buchsbaum-Eisenbud presentation matrix whose degree matrix, suitably
ordered, is symmetric about the anti-diagonal.  It is determined by the
t x (t+1) block A of a codimension-2 matrix together with the center
entry d >= a_1.  The numerics of the quotient follow without ever
writing down Pfaffians: the extreme shifts, the self-dual resolution's
step lists (:func:`step_lists`) built from the resolution of the block
ideal J, the multiplicity as an explicit polynomial in the entry
degrees, a second value through the liaison formula
e = (m1 + M2 - 4) e(R/J) - (2g - 2), and the basic-double-link
extension recursion.  Every one of them reads the block's degree lists
(:func:`cm2.degrees`) as the caller holds them.

The extension kernel, :func:`extender`, is bound once to a base
matrix's values and checks the base's shifts against its block's
degree lists there, once.  Each appended (a, b) is then checked for
the two recursions alone, without building a child matrix or Betti
table: the multiplicity against :func:`pfaffian_formula` on the
child's entries, and the block curve's genus against the moments of
the block's shifted degree lists (:func:`cm2.child_degrees`), through
the same :func:`betti._multiplicity_and_genus` as :func:`block_curve`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from . import betti, cm2
from .errors import CenterTooSmall, InternalMismatch


@dataclass(frozen=True)
class DegreeMatrixGor3:
    """Codimension-2 block ``base`` plus center entry ``d``."""

    base: cm2.DegreeMatrixCM2
    d: int

    def __post_init__(self) -> None:
        if type(self.d) is not int:
            raise ValueError(f"d must be an integer, got {self.d!r}")
        if self.d < self.base.a[0]:
            raise CenterTooSmall(f"d = {self.d} < a_1 = {self.base.a[0]}")

    def to_json_dict(self) -> dict:
        return {
            "type": "gor3",
            "a": list(self.base.a),
            "b": list(self.base.b),
            "d": self.d,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> DegreeMatrixGor3:
        return validate(obj["a"], obj["b"], obj["d"])


class ShiftsGor3(NamedTuple):
    m1: int
    m2: int
    m3: int
    M1: int
    M2: int
    M3: int


def validate(a: Sequence[int], b: Sequence[int], d: int) -> DegreeMatrixGor3:
    """Validate the block as a codimension-2 matrix and require d >= a_1."""
    return DegreeMatrixGor3(cm2.validate(a, b), d)


def shifts(G: DegreeMatrixGor3) -> ShiftsGor3:
    """Extreme shifts; the maxima follow from self-duality of the resolution.

    m1 = sum(a), m2 = m1 + b_t, m3 = d + 2 sum(b), and M_i = m3 - m_{3-i}
    for i = 1, 2, while M3 = m3, so the gaps M2 - m2 = M1 - m1 =
    m3 - m1 - m2 are equal by construction.
    """
    m1 = sum(G.base.a)
    m2 = m1 + G.base.b[-1]
    m3 = G.d + 2 * sum(G.base.b)
    return ShiftsGor3(m1=m1, m2=m2, m3=m3, M1=m3 - m2, M2=m3 - m1, M3=m3)


def multiplicity_pfaffian(G: DegreeMatrixGor3) -> int:
    """Multiplicity from the entry degrees of the skew presentation matrix;
    see :func:`pfaffian_formula`."""
    return pfaffian_formula(G.base.a, G.base.b, G.d)


def pfaffian_formula(a: Sequence[int], b: Sequence[int], d: int) -> int:
    """e(R/I) = sum_{j=1}^t b_j (a_1+..+a_j) (d + sum_{i<j} (2 b_i - a_i)
    + b_j - a_j), exactly, for the block (a, b) and center d."""
    total = prefix_a = 0
    acc = d  # d + sum_{i<j} (2 b_i - a_i)
    for aj, bj in zip(a, b):
        prefix_a += aj
        total += bj * prefix_a * (acc + bj - aj)
        acc += 2 * bj - aj
    return total


def step_lists(G: DegreeMatrixGor3, lists: cm2.DegreeLists) -> tuple:
    """The self-dual resolution's ascending step lists from the block
    ideal J's, ``lists`` (:func:`cm2.degrees` of the block).  Step 1
    is J's generator degrees, up to sum(b), then m3 minus its syzygy
    degrees, from m3 - a_1 - sum(b) >= sum(b) up; step 2 is step 1
    mirrored through m3; step 3 is the single shift m3."""
    gens, syz = lists
    m3 = G.d + 2 * sum(G.base.b)
    step1 = [*gens, *map(m3.__sub__, reversed(syz))]
    return step1, [*map(m3.__sub__, reversed(step1))], (m3,)


def block_curve(G: DegreeMatrixGor3, lists: cm2.DegreeLists) -> tuple[int, int]:
    """Multiplicity and genus (e(R/J), g) of the block curve J, from the
    terms of its step lists ``lists`` (:func:`cm2.degrees` of the block)."""
    return betti._multiplicity_and_genus(2, *betti.signed_terms(lists))


def _linkage_value(G: DegreeMatrixGor3, curve: tuple[int, int]) -> int:
    """(m1 + M2 - 4) e(R/J) - (2g - 2) for the block curve J of G, whose
    ``curve`` = (e(R/J), g) comes from :func:`block_curve`; no cross-check."""
    e_j, g = curve
    s = shifts(G)
    return (s.m1 + s.M2 - 4) * e_j - (2 * g - 2)


def extender(
    G: DegreeMatrixGor3,
    s: ShiftsGor3,
    e: int,
    curve: tuple[int, int],
    lists: cm2.DegreeLists,
) -> Callable[[int, int], int]:
    """The basic-double-link check for every child of G, whose shifts
    are s, multiplicity e, block curve ``curve`` = (e(R/J), g) and
    block degree lists ``lists`` (:func:`cm2.degrees` of the block).

    At bind time s must be read off the lists, with m3 = d + 2 M1(J)
    and c = b_t: (m1, m1 + c, m3, m3 - m1 - c, m3 - m1, m3).  Appending
    (a, b) moves each of them by a fixed delta, so no child needs its
    shifts checked.  The returned function grows the block by (a, b),
    keeping d; it needs b >= a and b_t >= a.  It checks the
    multiplicity recursion e' = e + b (m1 + a) (M2 + b - a) against
    :func:`pfaffian_formula` on the child's entries, and the genus
    recursion 2g' = 2g + b (m1 + a) (m1 + a + b - 4) + 2 b e(R/J)
    against the moments of the child's block lists from
    :func:`cm2.child_degrees`.  It returns e'; both steps raise
    InternalMismatch on a failure (DivisionError if the child's block
    table is not divisible).
    """
    block_a, block_b, d = G.base.a, G.base.b, G.d
    m1, M2 = s.m1, s.M2
    m3 = d + 2 * lists[0][-1]
    c = block_b[-1]
    ends = (m1, m1 + c, m3, m3 - m1 - c, m3 - m1, m3)
    if s != ends:
        raise InternalMismatch(f"base shifts fail: {s} != {ends}")
    e_j, g = curve

    def child(a: int, b: int) -> int:
        recursion = e + b * (m1 + a) * (M2 + b - a)
        direct = pfaffian_formula(block_a + (a,), block_b + (b,), d)
        if recursion != direct:
            raise InternalMismatch(f"multiplicity recursion fails: {recursion} != {direct}")
        lists2 = cm2.child_degrees(lists, m1, a, b)
        _, g2 = betti._multiplicity_and_genus(2, *betti.signed_terms(lists2))
        if 2 * g2 != 2 * g + b * (m1 + a) * (m1 + a + b - 4) + 2 * b * e_j:
            raise InternalMismatch(
                f"genus recursion fails for {G.to_json_dict()} + ({a}, {b})"
            )
        return recursion

    return child
