"""Hypothesis strategies for valid degree matrices, staircases and
Betti tables."""
from __future__ import annotations

from hypothesis import strategies as st

from degmult import betti, cm2, gor3, oracle

from bruteforce import one_minus_s_power, poly_mul


@st.composite
def cm2_matrices(draw, max_t: int = 4, max_entry: int = 7) -> cm2.DegreeMatrixCM2:
    t = draw(st.integers(1, max_t))
    a = [draw(st.integers(1, max_entry)) for _ in range(t)]
    b = []
    for i in range(t):
        lo = max(a[i], a[i + 1]) if i + 1 < t else a[i]
        b.append(draw(st.integers(lo, max_entry + 3)))
    return cm2.DegreeMatrixCM2(tuple(a), tuple(b))


@st.composite
def gor3_matrices(draw, max_t: int = 3, max_entry: int = 6) -> gor3.DegreeMatrixGor3:
    base = draw(cm2_matrices(max_t=max_t, max_entry=max_entry))
    d = draw(st.integers(base.a[0], base.a[0] + 5))
    return gor3.DegreeMatrixGor3(base, d)


@st.composite
def staircases(draw, max_steps: int = 5, max_jump: int = 9) -> oracle.MonomialStaircase:
    """Every canonical Artinian staircase arises from positive jumps."""
    jumps = draw(
        st.lists(
            st.tuples(st.integers(1, max_jump), st.integers(1, max_jump)),
            min_size=1,
            max_size=max_steps,
        )
    )
    q = sum(dq for _, dq in jumps)
    gens = [(0, q)]
    p = 0
    for dp, dq in jumps:
        p += dp
        q -= dq
        gens.append((p, q))
    return oracle.MonomialStaircase(tuple(gens))


@st.composite
def betti_tables(draw, max_p: int = 4, max_shift: int = 300) -> betti.BettiTable:
    """Arbitrary tables; (1-s)^codim rarely divides their K-polynomial."""
    p = draw(st.integers(1, max_p))
    entries = [
        (i, shift, rank)
        for i in range(1, p + 1)
        for shift, rank in draw(
            st.lists(
                st.tuples(st.integers(1, max_shift), st.integers(1, 5)),
                min_size=1,
                max_size=6,
            )
        )
    ]
    return betti.BettiTable.from_entries(draw(st.integers(1, p)), entries)


@st.composite
def divisible_betti_tables(draw, max_p: int = 4, max_degree: int = 250) -> betti.BettiTable:
    """Tables whose K-polynomial is (1-s)^c Q for a random Q with Q(0) = 1.

    Each coefficient of K goes to steps of its sign (negative to odd
    steps, positive to even ones), split at random between them; a step
    left empty gets a pair of equal entries on it and a neighbour, which
    cancel in K.  The declared codimension is drawn from 1..c.
    """
    c = draw(st.integers(1, max_p))
    q = [1] + [0] * max_degree
    for degree, coeff in draw(
        st.lists(st.tuples(st.integers(1, max_degree), st.integers(-5, 5)), max_size=8)
    ):
        q[degree] += coeff
    k = poly_mul(one_minus_s_power(c), q)
    need_even = any(x > 0 for x in k[1:])
    p = draw(st.integers(max(c, 2 if need_even else 1), max_p))
    entries = []
    for shift, coeff in enumerate(k[1:], start=1):
        steps = range(1 if coeff < 0 else 2, p + 1, 2)
        rank = abs(coeff)
        while rank:
            part = draw(st.integers(1, rank))
            entries.append((draw(st.sampled_from(steps)), shift, part))
            rank -= part
    for i in range(1, p + 1):
        if p > 1 and (not any(e[0] == i for e in entries) or draw(st.booleans())):
            shift = draw(st.integers(1, max_degree))
            rank = draw(st.integers(1, 3))
            entries += [(i, shift, rank), (i + 1 if i < p else i - 1, shift, rank)]
    return betti.BettiTable.from_entries(draw(st.integers(1, c)), entries)
