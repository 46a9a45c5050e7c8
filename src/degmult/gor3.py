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

The extension kernel, :func:`extension_failures`, is one call per base
matrix: it takes the base's multiplicity, block curve and block degree
lists, reads m1 and M2 off the lists, and runs the whole appended-pair
loop, b-major, building each b's shifted block lists and grown column
once.  Each appended (a, b) is checked for the two recursions, without
building a child matrix or Betti table: the multiplicity against
:func:`pfaffian_formula` on the child's entries, and the block curve's
genus against the moments of the child's block lists (the shifted
lists, each led by its one new degree, as in
:func:`cm2.extension_failures`), through the same
:func:`betti._multiplicity_and_genus` as :func:`block_curve`.  It
returns the failing (a, b, error) triples.  The base's shifts are left
to the sweep's ``shift_agreement``, and the routes are compared with
each other only in the sweep's ``Evaluation``, never here.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import betti, cm2
from .errors import CenterTooSmall, DivisionError, InternalMismatch


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
    + b_j - a_j), exactly, of total degree 3 in the block (a, b) and d."""
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


def block_curve(lists: cm2.DegreeLists) -> tuple[int, int]:
    """Multiplicity and genus (e(R/J), g) of the block curve J, from the
    terms of its step lists ``lists`` (:func:`cm2.degrees` of the block)."""
    return betti._multiplicity_and_genus(2, *betti.signed_terms(lists))


def _linkage_value(s: ShiftsGor3, curve: tuple[int, int]) -> int:
    """(m1 + M2 - 4) e(R/J) - (2g - 2) for the matrix with shifts ``s``
    (:func:`shifts`) and block curve J, whose ``curve`` = (e(R/J), g)
    comes from :func:`block_curve`: the shifts are linear in the entries,
    e(R/J) has degree 2 and g degree 3, so the value has degree 3."""
    e_j, g = curve
    return (s.m1 + s.M2 - 4) * e_j - (2 * g - 2)


def extension_failures(
    G: DegreeMatrixGor3,
    e: int,
    curve: tuple[int, int],
    lists: cm2.DegreeLists,
    cap: int,
    entry_max: int,
) -> list[tuple[int, int, Exception]]:
    """The basic-double-link check of every child of G, whose
    multiplicity is e, block curve ``curve`` = (e(R/J), g) and block
    degree lists ``lists`` (:func:`cm2.degrees` of the block), which
    give m1 = gens[0] and M2 = d + 2 gens[-1] - m1: the failing
    (a, b, error) triples, b-major, over b = 1..entry_max and
    a = 1..min(b, cap), with ``cap`` at most the block's b_t.

    Each child grows the block by (a, b), keeping d.  Its multiplicity
    recursion e' = e + b (m1 + a) (M2 + b - a) is compared with
    :func:`pfaffian_formula` on the child's entries, and its genus
    recursion 2g' = 2g + b (m1 + a) (m1 + a + b - 4) + 2 b e(R/J) with
    the moments of the child's block lists: the block's lists shifted by
    b, built once per b, each led by its one new degree, as in
    :func:`cm2.extension_failures`; the signed ranks of their K terms
    depend on t alone and are built once per call.  A failed
    multiplicity recursion leaves the genus unchecked; a block table
    that is not divisible fails with its DivisionError.
    """
    block_a, block_b, d = G.base.a, G.base.b, G.d
    gens, syz = lists
    m1 = gens[0]
    M2 = d + 2 * gens[-1] - m1
    e_j, g = curve
    # Only the lengths of the child's lists, each one longer than the
    # block's, set the signed ranks of its K terms.
    ranks = betti.signed_terms(([0, *gens], [0, *syz]))[1]
    failures = []
    for b in range(1, entry_max + 1):
        gens_b = [x + b for x in gens]
        syz_b = [x + b for x in syz]
        column = block_b + (b,)
        for a in range(1, min(b, cap) + 1):
            new = m1 + a
            try:
                recursion = e + b * new * (M2 + b - a)
                direct = pfaffian_formula(block_a + (a,), column, d)
                if recursion != direct:
                    raise InternalMismatch(f"multiplicity recursion fails: {recursion} != {direct}")
                shifts = [0, new, *gens_b, new + b, *syz_b]
                _, g2 = betti._multiplicity_and_genus(2, shifts, ranks)
                if 2 * g2 != 2 * g + b * new * (new + b - 4) + 2 * b * e_j:
                    raise InternalMismatch(
                        f"genus recursion fails for {G.to_json_dict()} + ({a}, {b})"
                    )
            except (InternalMismatch, DivisionError) as exc:
                failures.append((a, b, exc))
    return failures
