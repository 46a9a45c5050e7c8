"""Brute-force colength oracle for monomial ideals in two variables.

A monomial ideal in K[x, y] is described by its staircase: the minimal
generators x^p y^q, recorded as exponent pairs.  For an Artinian ideal
(one containing pure powers of both variables) the colength, the number
of standard monomials below the staircase, equals the multiplicity of
the quotient.  This count is the independent ground truth against which
the resolution-based multiplicity routes are checked.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NotArtinian, as_int_pair, as_list


@dataclass(frozen=True)
class MonomialStaircase:
    """Minimal generators of an Artinian monomial ideal in x and y.

    Canonical form: sorted with x-exponents strictly increasing and
    y-exponents strictly decreasing, first generator a pure y-power,
    last a pure x-power.  Build via :func:`minimalize`.
    """

    gens: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.gens:
            raise ValueError("a staircase needs at least one generator")
        for p, q in self.gens:
            if p < 0 or q < 0:
                raise ValueError(f"exponents must be >= 0, got ({p}, {q})")
        for (p1, q1), (p2, q2) in zip(self.gens, self.gens[1:]):
            if not (p1 < p2 and q1 > q2):
                raise ValueError("generators must be minimal and sorted")
        if self.gens[0][0] != 0 or self.gens[-1][1] != 0:
            raise NotArtinian(
                "staircase must contain a pure power of x and of y"
            )

    @classmethod
    def unchecked(cls, gens: tuple[tuple[int, int], ...]) -> MonomialStaircase:
        """The staircase of ``gens``, built without the checks: only for
        staircases the package builds canonical, never for outside input."""
        staircase = object.__new__(cls)
        object.__setattr__(staircase, "gens", gens)
        return staircase

    def to_json_dict(self) -> dict:
        return {"type": "monomial2", "gens": [[p, q] for p, q in self.gens]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> MonomialStaircase:
        return minimalize(as_list(obj["gens"], "gens"))


def minimalize(gens: Iterable[tuple[int, int]]) -> MonomialStaircase:
    """Drop generators divisible by another one and sort canonically.

    x^p1 y^q1 divides x^p2 y^q2 exactly when p1 <= p2 and q1 <= q2, so
    the survivors are the minimal points of the dominance order.  After
    one sort by (p, q), every point before a given one has p1 <= p2, and
    the smallest y-exponent among them is that of the last point kept;
    so one sweep keeps a point exactly when its y-exponent is below the
    last one kept, in O(n log n) overall.  Each generator must be a
    pair of true integers; anything else raises ValueError.
    """
    pts = sorted({as_int_pair(g, "gens", "[p, q]") for g in gens})
    if not pts:
        raise ValueError("no generators given")
    keep = [pts[0]]
    for g in pts:
        if g[1] < keep[-1][1]:
            keep.append(g)
    return MonomialStaircase(tuple(keep))


def colength(s: MonomialStaircase) -> int:
    """Number of monomials outside the ideal, by summing staircase rows.

    Between consecutive y-levels q_k <= y < q_{k-1} the monomials
    outside the ideal are exactly those with x-exponent < p_k, so the
    count is sum_k p_k (q_{k-1} - q_k), of degree 2 in the exponents; no
    lattice points are enumerated.  (x^5, x^4 y, x^2 y^3, y^5) gives 17.
    """
    return sum(p * (q_prev - q) for (_, q_prev), (p, q) in zip(s.gens, s.gens[1:]))

