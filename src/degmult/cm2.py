"""Codimension-2 Cohen-Macaulay degree matrices.

By the Hilbert-Burch theorem a codimension-2 Cohen-Macaulay ideal is
the ideal of maximal minors of a t x (t+1) matrix.  Ordering the degree
matrix so that entries increase from bottom to top and left to right,
it is completely determined by its main diagonal a_1..a_t and its
superdiagonal b_1..b_t, and validity reduces to a_i >= 1, b_i >= a_i
and b_i >= a_{i+1}.  From these 2t integers everything else follows:
generator and syzygy degrees, extreme shifts, the u/v multiplicity
formula, a witness monomial ideal with the same degree matrix, and the
basic-double-link extension that appends a row and a column.

The ascending generator and syzygy degrees (:func:`degrees`) are the
resolution's two step lists.  They feed the u/v multiplicity, the
resolution route and the extension kernel; they come out of their
prefix sums in order, and a caller that holds them passes them on: the
kernel takes them as its ``lists`` argument.  The u/v multiplicity is
one forward pass over the lists, :func:`multiplicity_from_degrees`,
which checks every u/v fact and forms no u or v list.

The extension kernel, :func:`extension_failures`, is one call per base
matrix: it takes the base's multiplicity and degree lists, reads m1
off the lists, and runs the whole appended-pair loop, b-major.  Each
b's shifted lists are built once and shared by every a at that b; each
child then costs its own two lists (the shifted ones, each led by its
one new degree), its u/v value and the comparison with the
multiplicity recursion, with no child matrix or table.  It returns the
failing (a, b, error) triples.  The base's shifts are left to the
sweep's ``shift_agreement``.  :func:`extend` is one child's value
from its own degree lists; it stays only for the benchmark's replay of
the cm2 sweep (``benchmarks/worker.py``).

The full t x (t+1) degree grid is built nowhere; the tests' reference
for it is ``tests/bruteforce.degree_grid``.  The Herzog-Srinivasan
summation identities telescope for any integer lists, so they check
nothing here; ``tests/bruteforce.py`` keeps them as a reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import NamedTuple, Sequence

from . import oracle
from .errors import InternalMismatch, InvalidDiagonal, NotMonotone, as_int_tuple


@dataclass(frozen=True)
class DegreeMatrixCM2:
    """Diagonal ``a`` and superdiagonal ``b`` of a valid degree matrix."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        if len(a) != len(b) or not a:
            raise ValueError("a and b must have equal length t >= 1")
        for i, ai in enumerate(a):
            if ai < 1:
                raise InvalidDiagonal(f"a_{i + 1} = {ai} < 1")
        for i, bi in enumerate(b):
            if bi < a[i]:
                raise NotMonotone(f"b_{i + 1} = {bi} < a_{i + 1} = {a[i]}")
            if i + 1 < len(a) and bi < a[i + 1]:
                raise NotMonotone(f"b_{i + 1} = {bi} < a_{i + 2} = {a[i + 1]}")

    @classmethod
    def unchecked(cls, a: tuple[int, ...], b: tuple[int, ...]) -> DegreeMatrixCM2:
        """The matrix (a, b), built without the checks: only for matrices
        valid by construction, as the sweep's enumerator forms them."""
        A = object.__new__(cls)
        object.__setattr__(A, "a", a)
        object.__setattr__(A, "b", b)
        return A

    def to_json_dict(self) -> dict:
        return {"type": "cm2", "a": list(self.a), "b": list(self.b)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> DegreeMatrixCM2:
        return validate(obj["a"], obj["b"])


class ShiftsCM2(NamedTuple):
    m1: int
    m2: int
    M1: int
    M2: int


def validate(a: Sequence[int], b: Sequence[int]) -> DegreeMatrixCM2:
    """Check a_i >= 1, b_i >= a_i, b_i >= a_{i+1} and build the matrix."""
    return DegreeMatrixCM2(as_int_tuple(a, "a"), as_int_tuple(b, "b"))


def shifts(A: DegreeMatrixCM2) -> ShiftsCM2:
    """Extreme resolution shifts: m1 = sum(a), M1 = sum(b), m2 = m1 + b_t,
    M2 = a_1 + sum(b)."""
    m1, M1 = sum(A.a), sum(A.b)
    return ShiftsCM2(m1, m1 + A.b[-1], M1, A.a[0] + M1)


# Ascending generator and syzygy degrees, as :func:`degrees` returns them.
DegreeLists = tuple[tuple[int, ...], tuple[int, ...]]


def degrees(A: DegreeMatrixCM2) -> DegreeLists:
    """Generator degrees a_1+..+a_j + b_(j+1)+..+b_t (j = 0..t) and
    syzygy degrees a_1+..+a_j + b_j+..+b_t (j = 1..t), each ascending:
    their prefix sums step by a_j - b_j <= 0 and a_(j+1) - b_j <= 0, so
    on a valid matrix they come out non-increasing, and are reversed."""
    gens = tuple(accumulate(map(sub, A.a, A.b), initial=sum(A.b)))
    syz = tuple(accumulate(map(sub, A.a[1:], A.b), initial=A.a[0] + sum(A.b)))
    return gens[::-1], syz[::-1]


def multiplicity_from_degrees(e: Sequence[int], f: Sequence[int]) -> int:
    """Multiplicity of the matrix with ascending generator degrees e and
    syzygy degrees f, from one forward pass that forms no u/v list.

    With u_i = f_i - e_i and v_i = f_i - e_(i+1), the pass checks
    u_i >= v_i >= 0 and u_(i+1) >= v_i, accumulates sum(u) and sum(v),
    and sums e(R/I) = sum_k v_k (u_1 + .. + u_k).  The extreme degrees
    must be (e_1, e_m, f_1, f_(m-1)) = (sum(v), sum(u), sum(v) + u_1,
    sum(u) + v_(m-1)).  Raises InternalMismatch otherwise.  On the valid
    matrices of one t the value has total degree 2 in the 2t entries.
    """
    head = tail = prev = total = i = 0  # head = u_1 + .. + u_i, tail = v_1 + .. + v_i
    ei = e[0]
    for fi, ej in zip(f, e[1:]):  # ei = e_i, ej = e_(i+1)
        i += 1
        ui = fi - ei
        vi = fi - ej
        if not ui >= vi >= 0:
            raise InternalMismatch(f"u_i >= v_i >= 0 fails at i={i}: e={e}, f={f}")
        if ui < prev:
            raise InternalMismatch(f"u_(i+1) >= v_i fails at i={i - 1}: e={e}, f={f}")
        prev = vi
        head += ui
        tail += vi
        total += vi * head
        ei = ej
    extremes = (e[0], e[-1], f[0], f[-1])
    if extremes != (tail, head, tail + f[0] - e[0], head + prev):
        raise InternalMismatch(
            f"extreme-degree identity fails: (e_1, e_m, f_1, f_(m-1)) = {extremes}, "
            f"sum(u) = {head}, sum(v) = {tail}"
        )
    return total


# The uv route reads the pass under this private name, so patching
# multiplicity_from_degrees, as the fault-injection tests do to fault
# the extension kernel's children, leaves every base value alone.
_multiplicity = multiplicity_from_degrees


def witness_monomial_ideal(A: DegreeMatrixCM2) -> oracle.MonomialStaircase:
    """A monomial ideal whose degree matrix is exactly A.

    Generators x^(a_1+..+a_j) y^(b_{j+1}+..+b_t) for j = 0..t; the
    exponents are strictly monotone, so the generating set is minimal
    and contains pure powers of both variables: it is already the
    canonical staircase, built without the constructor's checks.
    """
    xs = accumulate(A.a, initial=0)
    ys = reversed(list(accumulate(reversed(A.b), initial=0)))
    return oracle.MonomialStaircase.unchecked(tuple(zip(xs, ys)))


def extension_failures(
    e: int, lists: DegreeLists, cap: int, entry_max: int
) -> list[tuple[int, int, InternalMismatch]]:
    """The basic-double-link check of every child of a matrix with
    multiplicity e and ascending degree lists ``lists``: the failing
    (a, b, error) triples, b-major, over b = 1..entry_max and
    a = 1..min(b, cap), with ``cap`` at most the matrix's b_t.

    Appending (a, b) moves every old degree up by b and adds the
    generator m1 + a and the syzygy m1 + a + b, m1 = sum(a) = gens[0].
    These lead the child's lists, since a <= b and a <= b_t, so the
    child's lists are the base's shifted by b, built once per b, each led
    by its one new degree: they equal :func:`degrees` of the child.  The
    recursion e' = e + (m1 + a) b is compared with the child's own
    :func:`multiplicity_from_degrees`, with no child matrix or table.
    """
    gens, syz = lists
    m1 = gens[0]
    failures = []
    for b in range(1, entry_max + 1):
        gens_b = [g + b for g in gens]
        syz_b = [x + b for x in syz]
        for a in range(1, min(b, cap) + 1):
            new = m1 + a
            try:
                direct = multiplicity_from_degrees([new, *gens_b], [new + b, *syz_b])
                recursion = e + new * b
                if recursion != direct:
                    raise InternalMismatch(f"multiplicity recursion fails: {recursion} != {direct}")
            except InternalMismatch as exc:
                failures.append((a, b, exc))
    return failures


def extend(A: DegreeMatrixCM2, a: int, b: int) -> int:
    """The multiplicity of A with (a, b) appended, from the child's own
    degree lists: the value :func:`extension_failures` checks the
    recursion against; b >= a and b_t >= a are not checked."""
    return multiplicity_from_degrees(*degrees(DegreeMatrixCM2.unchecked(A.a + (a,), A.b + (b,))))
