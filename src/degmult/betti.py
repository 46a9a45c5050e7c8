"""Graded Betti tables and the Hilbert-series route to multiplicity.

A Betti table records the shifts and ranks of a minimal graded free
resolution of a graded quotient R/I.  Its alternating sum is the
K-polynomial K(s) = sum_j r_j s^(s_j), the numerator of the Hilbert
series, and K = (1-s)^c Q with c the codimension; the multiplicity is
Q(1).  Q is never expanded.  With s = 1+u, K = sum_k S_k u^k for the
binomial moments S_k = sum_j r_j C(s_j, k), so (1-s)^c divides K iff
S_0..S_{c-1} vanish, and then Q(1), Q'(1) are (-1)^c S_c, (-1)^c S_{c+1}.
The kernel takes the power sums P_k = sum_j r_j s_j^k, each from the
last one's terms by one product.  As k! C(s, k) = sum_i st(k, i) s^i
with Stirling numbers of the first kind, st(k, k) = 1 and
st(k, k-1) = -C(k, 2), the k! S_k are a unitriangular transform of the
P_k: S_0..S_{c-1} vanish iff P_0..P_{c-1} do, and then c! S_c = P_c
and (c+1)! S_{c+1} = P_{c+1} - C(c+1, 2) P_c.  Everything is exact on
unbounded integers, in O(terms * c) whatever the size of the shifts.

The package's resolutions are held as one ascending shift list per
step, each shift of rank 1: :func:`signed_terms` gives their K terms
and :func:`shift_summary` reads each list's ends.  Ranks are grouped
only in a :class:`BettiTable` that enters from outside; the package
builds none from a matrix.  Grouping would buy little: 97.6 % of the
shifts of the benchmark's ``compute_large`` seed-1 lists are distinct.

The Huneke-Miller formula e = prod(d_i) / p! of a pure resolution has
one entry, :func:`pure_multiplicity` on a shift summary, reached by the
sweep's ``huneke_miller`` check and by ``compute`` on a pure Betti table
of codim = p.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import ge, mul, neg
from typing import Iterable, NamedTuple, Sequence

from .errors import DivisibilityError, DivisionError, as_int_pair, as_list


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of R/I for homological steps 1..p.

    ``steps[i]`` holds the step-(i+1) entries as (shift, rank) pairs
    with strictly increasing shifts.  Step 0 (the free module R itself,
    one rank-1 generator in degree 0) is implicit and never stored.
    ``codim`` is the declared codimension c <= p.  The constructor
    checks nothing: a table enters through :meth:`from_entries`,
    which validates it.
    """

    codim: int
    steps: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def from_entries(
        cls, codim: int, entries: Iterable[tuple[int, int, int]]
    ) -> BettiTable:
        """Build a table from (step, shift, rank) triples, aggregating ranks.

        Steps must cover 1..p without gaps; multiple entries on one
        (step, shift) key are summed.  The codimension must lie in
        1..p, and every shift and every summed rank must be >= 1.
        """
        by_step: dict[int, dict[int, int]] = {}
        for step, shift, rank in entries:
            if step < 1:
                raise ValueError(f"steps are 1-based, got {step}")
            by_step.setdefault(step, {})
            by_step[step][shift] = by_step[step].get(shift, 0) + rank
        if not by_step:
            raise ValueError("no entries given")
        p = max(by_step)
        if sorted(by_step) != list(range(1, p + 1)):
            raise ValueError("every step 1..p must carry at least one entry")
        if not 1 <= codim <= p:
            raise ValueError(f"codim must lie in 1..{p}, got {codim}")
        steps = tuple(
            tuple(sorted(by_step[i].items())) for i in range(1, p + 1)
        )
        for step in steps:
            for shift, rank in step:
                if shift < 1:
                    raise ValueError(f"shifts must be >= 1, got {shift}")
                if rank < 1:
                    raise ValueError(f"ranks must be >= 1, got {rank}")
        return cls(codim=codim, steps=steps)

    @property
    def projective_dimension(self) -> int:
        return len(self.steps)

    def max_shift(self) -> int:
        return max(shift for step in self.steps for shift, _ in step)

    def to_json_dict(self) -> dict:
        return {
            "codim": self.codim,
            "steps": [[[shift, rank] for shift, rank in step] for step in self.steps],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> BettiTable:
        codim = obj["codim"]
        if type(codim) is not int:
            raise ValueError(f"codim must be an integer, got {codim!r}")
        entries = [
            (i + 1, *as_int_pair(pair, "steps", "[shift, rank]"))
            for i, step in enumerate(as_list(obj["steps"], "steps"))
            for pair in as_list(step, "steps entries")
        ]
        return cls.from_entries(codim, entries)


@dataclass(frozen=True)
class KPolynomial:
    """Integer polynomial sum_i coeffs[i] * s^i, trailing zeros stripped."""

    coeffs: tuple[int, ...]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                term = ("" if mag == 1 else f"{mag}*") + ("s" if i == 1 else f"s^{i}")
            parts.append(("- " if c < 0 else "+ ") + term)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out.replace("- ", "-", 1)


class ShiftSummary(NamedTuple):
    """Minimal and maximal shifts (m_1..m_p, M_1..M_p) of a table."""

    m: tuple[int, ...]
    M: tuple[int, ...]


class Purity(NamedTuple):
    pure: bool
    quasi_pure: bool


def k_polynomial(table: BettiTable) -> KPolynomial:
    """Alternating sum sum_i (-1)^i sum_j beta_{i,j} s^j, step 0 included.

    The step-0 term contributes the constant 1, so for the quotient by
    the full degree-one ideal (one step, shift 1, rank 1) this is 1 - s.
    """
    coeffs = [0] * (table.max_shift() + 1)
    coeffs[0] = 1
    for i, step in enumerate(table.steps):
        sign = -1 if i % 2 == 0 else 1  # step i+1 carries (-1)^(i+1)
        for shift, rank in step:
            coeffs[shift] += sign * rank
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return KPolynomial(tuple(coeffs))


def _signed_entries(table: BettiTable) -> tuple[list[int], list[int]]:
    """Shifts and signed ranks of the K-polynomial's terms, step 0's
    constant 1 first."""
    shifts, ranks = [0], [1]
    for i, step in enumerate(table.steps):
        step_shifts, step_ranks = zip(*step)
        shifts += step_shifts
        ranks += map(neg, step_ranks) if i % 2 == 0 else step_ranks
    return shifts, ranks


def signed_terms(steps: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Shifts and signed ranks of the K-polynomial of one shift list per
    step, each shift of rank 1: step 0's constant 1 first, then the
    steps' shifts, signs alternating by step."""
    shifts, ranks = [0], [1]
    for i, step in enumerate(steps):
        shifts += step
        ranks += [1 if i % 2 else -1] * len(step)
    return shifts, ranks


def _quotient_at_one(c: int, shifts: list[int], ranks: list[int]) -> tuple[int, list[int]]:
    """Q(1) = (-1)^c P_c / c! for K = (1-s)^c Q, K = sum_j ranks_j
    s^shifts_j, once the power sums P_0..P_{c-1} vanish (module
    docstring), and the terms ranks_j shifts_j^c of P_c.  The terms may
    come in any order and repeat a shift.  DivisionError unless (1-s)^c
    divides K and Q(1) >= 1, as for every quotient."""
    terms, power = ranks, sum(ranks)
    for _ in range(c):
        if power:
            raise DivisionError(
                "K-polynomial is not divisible by (1-s) to the declared codimension"
            )
        terms = list(map(mul, terms, shifts))
        power = sum(terms)
    moment = power // math.factorial(c)
    e = -moment if c % 2 else moment
    if e < 1:
        raise DivisionError(f"K-polynomial gives Q(1) = {e} <= 0 at codimension {c}")
    return e, terms


def resolution_multiplicity(c: int, steps: Sequence[Sequence[int]]) -> int:
    """Multiplicity e(R/I) = Q(1), K = (1-s)^c Q, of a codimension-c
    resolution's step lists: a polynomial of degree c in their shifts."""
    return _quotient_at_one(c, *signed_terms(steps))[0]


def multiplicity_and_genus(table: BettiTable) -> tuple[int, int]:
    """Multiplicity e(R/I) = Q(1), K = (1-s)^c Q, and the arithmetic genus
    of the dimension-2 quotient (a curve), from one pass over the table.

    With Q = sum q_i s^i, the Hilbert polynomial of the dimension-2
    quotient is e*t + 1 - g, which gives
    g = 1 + sum_i q_i (i - 1) = 1 + Q'(1) - Q(1).
    """
    return _multiplicity_and_genus(table.codim, *_signed_entries(table))


def _multiplicity_and_genus(c: int, shifts: list[int], ranks: list[int]) -> tuple[int, int]:
    """(e, g) of the terms sum_j ranks_j s^shifts_j of a K-polynomial: as
    P_c = c! (-1)^c e, Q'(1) = ((-1)^c P_{c+1} - C(c+1, 2) c! e) / (c+1)!,
    with P_{c+1} from the terms of P_c by one more product."""
    e, terms = _quotient_at_one(c, shifts, ranks)
    top = sum(map(mul, terms, shifts))
    fact = math.factorial(c)
    slope = ((-top if c % 2 else top) - c * (c + 1) // 2 * fact * e) // ((c + 1) * fact)
    return e, 1 + slope - e


def shift_summary(steps: BettiTable | Sequence[Sequence[int]]) -> ShiftSummary:
    """Per-step minimal and maximal shifts, the ends of each ascending
    step list of a held resolution, or of each step of a table."""
    if isinstance(steps, BettiTable):
        steps = [(step[0][0], step[-1][0]) for step in steps.steps]
    return ShiftSummary(tuple([step[0] for step in steps]), tuple([step[-1] for step in steps]))


def summary_purity(s: ShiftSummary) -> Purity:
    """Purity (m_i = M_i at every step) and quasi-purity (m_i >= M_{i-1})
    of the table whose :func:`shift_summary` is s."""
    return Purity(s.m == s.M, all(map(ge, s.m[1:], s.M)))


def pure_multiplicity(s: ShiftSummary) -> int:
    """(prod d_i) / p! over the p shifts d_i = m_i = M_i of a pure summary;
    DivisibilityError unless p! divides the product.  On a pure table
    that (1-s)^p divides this is the Hilbert-series value (Herzog-Kühl,
    Huneke-Miller), so a caller compares it with the multiplicity it
    already holds."""
    p = len(s.m)
    prod = math.prod(s.m)
    fact = math.factorial(p)
    if prod % fact:
        raise DivisibilityError(
            f"{p}! does not divide prod(d_i) = {prod}; no such pure table exists"
        )
    return prod // fact

