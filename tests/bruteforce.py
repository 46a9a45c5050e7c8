"""Independent brute-force oracles used only by the tests.

Everything here deliberately avoids the package's own algorithms:
colength by lattice-point enumeration instead of row summation,
minimal generators by a pairwise dominance scan instead of one sorted
sweep, the Hilbert quotient by dense division of the whole K-polynomial
instead of the power sums of its terms, divisibility by polynomial
multiplication instead of division, enumeration by generate-and-filter
instead of constructive ranges, the basic double link by building
each child matrix and reading its multiplicity and genus off its dense
Hilbert quotient instead of shifting the base's degree lists, and the
u/v multiplicity from explicit u and v lists and a backward pass
instead of one list-free forward pass, the degree lists summed
term by term and sorted instead of built in order, and a sweep's
CSV line rendered column by column from the columns' definitions
instead of from an evaluation.  The
Herzog-Srinivasan summation identities are kept here too, as a
reference: they telescope for any integer lists, so no sweep check
reports them.  One helper is a view, not a reference: :func:`betti_table`
groups the package's own step lists into the Betti table the tests read.
"""
from __future__ import annotations

from collections import Counter
from itertools import accumulate, product
from math import factorial, prod
from operator import add, sub

from degmult import betti, cm2, gor3, sweep
from degmult.errors import DegmultError, DivisionError, InternalMismatch


def naive_colength(gens: list[tuple[int, int]]) -> int:
    """Count lattice points not dominated by any generator, one by one."""
    max_p = max(p for p, _ in gens)
    max_q = max(q for _, q in gens)
    count = 0
    for i in range(max_p + 1):
        for j in range(max_q + 1):
            if not any(p <= i and q <= j for p, q in gens):
                count += 1
    return count


def naive_minimal(gens: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Minimal points of the dominance order, each tested against every other.

    x^p1 y^q1 divides x^p2 y^q2 exactly when p1 <= p2 and q1 <= q2.
    """
    pts = sorted(set(gens))
    return tuple(
        g
        for g in pts
        if not any(h != g and h[0] <= g[0] and h[1] <= g[1] for h in pts)
    )


def hilbert_quotient(table: betti.BettiTable) -> list[int]:
    """Coefficients of Q(s) = K(s) / (1-s)^codim by dividing the dense
    K-polynomial by (1-s) codim times: the partial sums of the
    coefficients are the quotient, and the last one, the value at s=1,
    must vanish for exactness."""
    coeffs = list(betti.k_polynomial(table).coeffs)
    for _ in range(table.codim):
        partial = list(accumulate(coeffs))
        if not partial or partial.pop() != 0:
            raise DivisionError(
                "K-polynomial is not divisible by (1-s) to the declared codimension"
            )
        coeffs = partial
    return coeffs


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    while out and out[-1] == 0:
        out.pop()
    return out


def one_minus_s_power(c: int) -> list[int]:
    out = [1]
    for _ in range(c):
        out = poly_mul(out, [1, -1])
    return out


def brute_cm2(t_max: int, entry_max: int) -> list[cm2.DegreeMatrixCM2]:
    """All valid matrices by filtering every tuple with entries <= entry_max."""
    found = []
    for t in range(1, t_max + 1):
        for a in product(range(1, entry_max + 1), repeat=t):
            for b in product(range(1, entry_max + 1), repeat=t):
                try:
                    found.append(cm2.validate(list(a), list(b)))
                except DegmultError:
                    pass
    return found


def brute_gor3(t_max: int, entry_max: int) -> list[gor3.DegreeMatrixGor3]:
    found = []
    for t in range(1, t_max + 1):
        for a in product(range(1, entry_max + 1), repeat=t):
            for b in product(range(1, entry_max + 1), repeat=t):
                for d in range(1, entry_max + 1):
                    try:
                        found.append(gor3.validate(list(a), list(b), d))
                    except DegmultError:
                        pass
    return found


def uv_two_pass(e, f) -> tuple[list[int], list[int], int]:
    """u, v and the multiplicity of ascending degree lists e and f.

    One forward pass forms u and v and verifies u_i >= v_i >= 0 and
    u_{i+1} >= v_i; one backward pass sums
    e(R/I) = sum_i u_i (v_i + .. + v_{m-1}).  The four extreme-degree
    identities must hold.  Raises InternalMismatch with the messages of
    :func:`cm2.multiplicity_from_degrees`.
    """
    u: list[int] = []
    v: list[int] = []
    head = prev = 0  # head = u_1 + .. + u_i, prev = v_(i-1)
    for i in range(len(e) - 1):
        fi = f[i]
        ui = fi - e[i]
        vi = fi - e[i + 1]
        if not ui >= vi >= 0:
            raise InternalMismatch(f"u_i >= v_i >= 0 fails at i={i + 1}: e={e}, f={f}")
        if ui < prev:
            raise InternalMismatch(f"u_(i+1) >= v_i fails at i={i}: e={e}, f={f}")
        prev = vi
        u.append(ui)
        v.append(vi)
        head += ui
    tail = first = 0  # tail = v_i + .. + v_(m-1)
    for ui, vi in zip(reversed(u), reversed(v)):
        tail += vi
        first += ui * tail
    extremes = (e[0], e[-1], f[0], f[-1])
    if extremes != (tail, head, tail + u[0], head + v[-1]):
        raise InternalMismatch(
            f"extreme-degree identity fails: (e_1, e_m, f_1, f_(m-1)) = {extremes}, "
            f"sum(u) = {head}, sum(v) = {tail}"
        )
    return u, v, first


def hs_identities(e, f) -> bool:
    """Whether both Herzog-Srinivasan summation identities hold for the
    u/v differences of ascending generator degrees e and syzygy degrees
    f, one fewer than e.

    In the v's: sum_{i=2}^{m-1} (v_{i-1}+v_i)(v_i+..+v_{m-1})
                 = (v_1+..+v_{m-1})(v_2+..+v_{m-1}),
    and the mirror identity in the u's.  Both sides telescope to the
    same sum for any integer lists, so this never returns False; the
    tests keep it as a reference, and no sweep check reports it.
    """
    u, v, m = list(map(sub, f, e)), list(map(sub, f, e[1:])), len(e)
    lhs_v = sum((v[i - 1] + v[i]) * sum(v[i:]) for i in range(1, m - 1))
    rhs_v = sum(v) * sum(v[1:])
    lhs_u = sum((u[i] + u[i + 1]) * sum(u[: i + 1]) for i in range(m - 2))
    rhs_u = sum(u) * sum(u[: m - 2])
    return lhs_v == rhs_v and lhs_u == rhs_u


def matrix_degrees(A: cm2.DegreeMatrixCM2) -> tuple[list[int], list[int]]:
    """Generator degrees a_1+..+a_j + b_(j+1)+..+b_t (j = 0..t) and syzygy
    degrees a_1+..+a_j + b_j+..+b_t (j = 1..t), in the degree matrix's
    order, each summed term by term."""
    a, b, t = A.a, A.b, len(A.a)
    gens = [sum(a[:j]) + sum(b[j:]) for j in range(t + 1)]
    syz = [sum(a[:j]) + sum(b[j - 1:]) for j in range(1, t + 1)]
    return gens, syz


def sorted_degrees(A: cm2.DegreeMatrixCM2) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The :func:`matrix_degrees` of A, each sorted ascending, with no use
    of their order."""
    gens, syz = matrix_degrees(A)
    return tuple(sorted(gens)), tuple(sorted(syz))


def sorted_gor3_steps(G: gor3.DegreeMatrixGor3) -> tuple[list[int], list[int]]:
    """Step-1 and step-2 shifts of G's self-dual table, each sorted: the
    block's generator degrees and m3 minus its syzygy degrees, then m3
    minus those, with m3 = d + 2 (b_1+..+b_t)."""
    gens, syz = sorted_degrees(G.base)
    m3 = G.d + 2 * sum(G.base.b)
    step1 = sorted([*gens, *(m3 - x for x in syz)])
    return step1, sorted(m3 - x for x in step1)


def degree_grid(A: cm2.DegreeMatrixCM2) -> list[list[int]]:
    """Full degree matrix straight from the degree lists: row i holds
    syzygy degree s_i minus each generator degree g_0..g_t, both in the
    order of :func:`matrix_degrees`."""
    gens, syz = matrix_degrees(A)
    return [[s - g for g in gens] for s in syz]


def betti_table(X) -> betti.BettiTable:
    """The Betti table of the cm2 or gor3 matrix X: the package's step
    lists (:func:`cm2.degrees`, :func:`gor3.step_lists`), each shift an
    entry of rank 1, which :meth:`BettiTable.from_entries` groups."""
    if isinstance(X, cm2.DegreeMatrixCM2):
        steps = cm2.degrees(X)
    else:
        steps = gor3.step_lists(X, cm2.degrees(X.base))
    return betti.BettiTable.from_entries(
        len(steps), [(i, shift, 1) for i, step in enumerate(steps, 1) for shift in step]
    )


def table_ends(table: betti.BettiTable) -> tuple[int, ...]:
    """(m_1..m_p, M_1..M_p) of a table: each step's least shift, then
    each step's greatest."""
    shifts = [[shift for shift, _ in step] for step in table.steps]
    return (*map(min, shifts), *map(max, shifts))


def quotient_values(table: betti.BettiTable) -> tuple[int, int]:
    """Multiplicity e = sum_i q_i and dimension-2 genus
    g = 1 + sum_i q_i (i - 1) read off the dense :func:`hilbert_quotient`."""
    q = hilbert_quotient(table)
    return sum(q), 1 + sum(c * (i - 1) for i, c in enumerate(q))


def extend_from(X, a, b):
    """Append (a, b) to the cm2 matrix or gor3 block X the slow way:
    build the child matrix, recompute its shifts, its multiplicity (and
    for gor3 its block curve's genus) from its dense Hilbert quotient,
    and check the shift deltas and the recursions against X's own
    values, taken the same way.  Returns (child, deltas, e'); NotMonotone
    unless b >= a and b_t >= a."""
    if isinstance(X, cm2.DegreeMatrixCM2):
        e = quotient_values(betti_table(X))[0]
        return _extend_cm2(X, cm2.shifts(X), e, a, b)
    e = quotient_values(betti_table(X))[0]
    curve = quotient_values(betti_table(X.base))
    return _extend_gor3(X, gor3.shifts(X), e, curve, a, b)


def _extend_cm2(A, s, e, a, b):
    c = A.b[-1]
    A2 = cm2.DegreeMatrixCM2(A.a + (a,), A.b + (b,))
    s2 = cm2.shifts(A2)
    deltas = (a, a + b - c, b, b)
    if tuple(map(add, s, deltas)) != s2:
        raise InternalMismatch(f"shift deltas fail: {s} + {deltas} != {s2}")
    e2 = e + (s.m1 + a) * b
    direct = quotient_values(betti_table(A2))[0]
    if e2 != direct:
        raise InternalMismatch(f"multiplicity recursion fails: {e2} != {direct}")
    return A2, deltas, e2


def _extend_gor3(G, s, e, curve, a, b):
    c = G.base.b[-1]
    G2 = gor3.DegreeMatrixGor3(cm2.DegreeMatrixCM2(G.base.a + (a,), G.base.b + (b,)), G.d)
    s2 = gor3.shifts(G2)
    deltas = (a, a + b - c, 2 * b, b + c - a, 2 * b - a, 2 * b)
    if tuple(map(add, s, deltas)) != s2:
        raise InternalMismatch(f"shift deltas fail: {s} + {deltas} != {s2}")
    e2 = e + b * (s.m1 + a) * (s.M2 + b - a)
    direct = quotient_values(betti_table(G2))[0]
    if e2 != direct:
        raise InternalMismatch(f"multiplicity recursion fails: {e2} != {direct}")
    e_j, g = curve
    g2 = quotient_values(betti_table(G2.base))[1]
    if 2 * g2 != 2 * g + b * (s.m1 + a) * (s.m1 + a + b - 4) + 2 * b * e_j:
        raise InternalMismatch(f"genus recursion fails for {G.to_json_dict()} + ({a}, {b})")
    return G2, deltas, e2


def appended_pairs(cap: int, entry_max: int):
    """Every (a, b) pair that appends to a block ending in b_t = cap a
    child with entries <= entry_max, in the extension kernel's order:
    b = 1..entry_max, then a = 1..min(b, cap)."""
    for b in range(1, entry_max + 1):
        for a in range(1, min(b, cap) + 1):
            yield a, b


# The total degree k of both sides of each family's extension recursion
# in the appended (a, b).
RECURSION_DEGREE = {"cm2": 2, "gor3": 3}


def checked_pairs(family: str, cap: int, entry_max: int):
    """The (a, b) pairs a sweep's extension check appends to a block
    ending in b_t = cap, in its order: the :func:`appended_pairs` with
    b <= min(entry_max, k + 1), k the family's recursion degree."""
    return appended_pairs(cap, min(entry_max, RECURSION_DEGREE[family] + 1))


def sweep_row(X) -> str:
    """The sweep CSV line of the cm2 or gor3 matrix X, each column from
    its definition: the table from the sorted degree lists, e from its
    dense Hilbert quotient, the shifts as each step's least and greatest
    shift, and every bound as written in ``degmult.bounds``' docstrings."""
    gor = isinstance(X, gor3.DegreeMatrixGor3)
    A = X.base if gor else X
    if gor:
        step1, step2 = sorted_gor3_steps(X)
        m3 = X.d + 2 * sum(A.b)
        steps = [step1, step2, [m3]]
    else:
        steps = list(sorted_degrees(A))
    table = betti.BettiTable(len(steps), tuple(tuple(sorted(Counter(s).items())) for s in steps))
    e = quotient_values(table)[0]
    m, M = [min(s) for s in steps], [max(s) for s in steps]
    p = len(steps)
    row = dict.fromkeys(sweep.SWEEP_CSV_COLUMNS, "")
    row.update(
        family="gor3" if gor else "cm2", t=len(A.a), a=" ".join(map(str, A.a)),
        b=" ".join(map(str, A.b)), e=e, pure=m == M,
        quasi_pure=all(m[i] >= M[i - 1] for i in range(1, p)),
        hhs_lower_holds=factorial(p) * e >= prod(m), hhs_lower_sharp=factorial(p) * e == prod(m),
        hhs_upper_holds=factorial(p) * e <= prod(M), hhs_upper_sharp=factorial(p) * e == prod(M),
    )
    names = ("m1", "m2", "m3")[:p] + ("M1", "M2", "M3")[:p]
    row.update(zip(names, m + M))
    spread = (M[1] - m[1]) + (M[0] - m[0])
    if gor:
        low = m[0] * m[1] * m[2] + (M[2] - M[1]) ** 2 * spread
        high = 2 * M[0] * M[1] * M[2] - M[2] * spread
        row.update(
            d=X.d, gor3_lower_holds=6 * e >= low, gor3_lower_sharp=6 * e == low,
            gor3_upper_holds=12 * e <= high, gor3_upper_sharp=12 * e == high,
            srinivasan_lower_holds=6 * e >= m[0] * M[1] * M[2],
            srinivasan_upper_holds=6 * e <= M[0] * m[1] * m[2],
        )
    else:
        low = m[0] * m[1] + (M[1] - M[0]) * spread
        high = M[0] * M[1] - (m[1] - m[0]) * spread
        p24 = M[0] * M[1] - 2 * (M[0] - m[0]) - 2 * (M[1] - m[1])
        row.update(
            cm2_lower_holds=2 * e >= low, cm2_lower_sharp=2 * e == low,
            cm2_upper_holds=2 * e <= high, cm2_upper_sharp=2 * e == high,
            prop24_hyp_i=min(map(min, degree_grid(A))) >= 2,
            prop24_hyp_ii=len(A.a) >= 2 and A.a[0] - 2 * A.b[0] + 1 >= 0,
            prop24_holds=2 * e <= p24,
        )
    text = {True: "true", False: "false"}
    cells = (text[v] if isinstance(v, bool) else str(v) for v in row.values())
    return ",".join(cells) + "\n"
