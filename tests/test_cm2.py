"""Tests for codimension-2 degree matrices."""
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from degmult import betti, cm2, oracle
from degmult.errors import InternalMismatch, InvalidDiagonal, NotMonotone

from bruteforce import (
    appended_pairs, betti_table, brute_cm2, degree_grid, extend_from, hs_identities,
    naive_colength, sorted_degrees, table_ends, uv_two_pass,
)
from strategies import cm2_matrices

EX25 = cm2.validate([2, 2, 1], [2, 2, 1])  # the 3x4 matrix of 2's over 1's


@st.composite
def degree_pairs(draw):
    """(a, b) with entries in -2..8: b_i is often at least max(a_i, a_(i+1)),
    so valid pairs are common, and b is now and then one entry longer or
    shorter than a."""
    a = draw(st.lists(st.integers(-2, 8), max_size=5))
    b = [draw(st.integers(-2, 8) | st.integers(max(a[i:i + 2]), 8)) for i in range(len(a))]
    change = draw(st.sampled_from((0,) * 6 + (1, -1)))
    b = b + [draw(st.integers(-2, 8))] if change == 1 else b[: len(b) + change]
    return tuple(a), tuple(b)


def reference_validation(a, b):
    """The check loop that DegreeMatrixCM2 falls back to on invalid input."""
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


class TestValidate:
    def test_example_matrix(self):
        assert len(EX25.a) == 3

    def test_smallest(self):
        assert cm2.validate([1], [1]).a == (1,)

    def test_superdiagonal_below_next_diagonal(self):
        with pytest.raises(NotMonotone):
            cm2.validate([1, 2], [1, 2])  # b_1 = 1 < a_2 = 2

    def test_superdiagonal_below_diagonal(self):
        with pytest.raises(NotMonotone):
            cm2.validate([2], [1])

    def test_nonpositive_diagonal(self):
        with pytest.raises(InvalidDiagonal):
            cm2.validate([0], [1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cm2.validate([1, 1], [1])

    @given(degree_pairs())
    @example(((), ()))
    @example(((1, 2), (2,)))
    @example(((3, 1), (2, 1)))
    @example(((1, 3), (2, 3)))
    def test_constructor_matches_reference_loop(self, ab):
        """Construction succeeds exactly when a_i >= 1, b_i >= a_i and
        b_i >= a_(i+1) all hold; otherwise it fails as the reference
        loop does, with the same exception type and message."""
        a, b = ab
        valid = len(a) == len(b) > 0 and all(
            ai >= 1 and bi >= ai and (i + 1 == len(a) or bi >= a[i + 1])
            for i, (ai, bi) in enumerate(zip(a, b))
        )
        try:
            reference_validation(a, b)
        except (ValueError, InvalidDiagonal, NotMonotone) as want:
            assert not valid
            with pytest.raises(type(want)) as got:
                cm2.DegreeMatrixCM2(a, b)
            assert type(got.value) is type(want) and str(got.value) == str(want)
        else:
            assert valid
            A = cm2.DegreeMatrixCM2(a, b)
            assert (A.a, A.b) == (a, b)

    def test_json_round_trip(self):
        doc = EX25.to_json_dict()
        assert doc == {"type": "cm2", "a": [2, 2, 1], "b": [2, 2, 1]}
        assert cm2.DegreeMatrixCM2.from_json_dict(doc) == EX25


class TestShifts:
    def test_example_matrix(self):
        assert cm2.shifts(EX25) == (5, 6, 5, 7)

    def test_smallest(self):
        assert cm2.shifts(cm2.validate([1], [1])) == (1, 2, 1, 2)

    def test_direct_evaluation(self):
        assert cm2.shifts(cm2.validate([1, 1], [2, 1])) == (2, 3, 3, 4)


class TestFullMatrix:
    """The t x (t+1) grid of entry degrees, from the degree lists."""

    def test_example_matrix(self):
        assert degree_grid(EX25) == [
            [2, 2, 2, 2],
            [2, 2, 2, 2],
            [1, 1, 1, 1],
        ]

    def test_single_row(self):
        assert degree_grid(cm2.validate([1], [2])) == [[1, 2]]

    def test_subdiagonal_entry(self):
        grid = degree_grid(cm2.validate([1, 2], [2, 2]))
        assert grid[1][0] == 1  # a_1 + a_2 - b_1

    @given(cm2_matrices())
    def test_monotone(self, A):
        grid = degree_grid(A)
        for row in grid:
            assert all(x <= y for x, y in zip(row, row[1:]))
        for upper, lower in zip(grid, grid[1:]):
            assert all(x >= y for x, y in zip(upper, lower))


def uv(A):
    """The sorted degree lists of A and their u and v lists, as tuples,
    from the two-pass reference."""
    e, f = cm2.degrees(A)
    u, v, _ = uv_two_pass(e, f)
    return e, f, tuple(u), tuple(v)


class TestUVData:
    def test_linear_ci(self):
        assert uv(cm2.validate([1], [1])) == ((1, 1), (2,), (1,), (1,))

    def test_sorted_subtraction(self):
        e, f, u, v = uv(cm2.validate([1, 1], [2, 1]))
        assert (e, f) == ((2, 2, 3), (3, 4))
        assert (u, v) == ((1, 2), (1, 1))

    def test_extreme_degree_sums(self):
        e, _, u, v = uv(EX25)
        assert sum(u) == 5 == e[-1]
        assert sum(v) == 5 == e[0]

    @given(cm2_matrices())
    def test_facts_hold(self, A):
        e, f, u, v = uv(A)  # raises InternalMismatch on any fact failure
        assert len(e) == len(A.a) + 1
        assert e[0] == sum(v)
        assert e[-1] == sum(u)
        assert f[0] == sum(v) + u[0]
        assert f[-1] == sum(u) + v[-1]


class TestMultiplicity:
    def test_example_matrix(self):
        assert cm2.multiplicity_from_degrees(*cm2.degrees(EX25)) == 17

    def test_smallest(self):
        assert cm2.multiplicity_from_degrees(*cm2.degrees(cm2.validate([1], [1]))) == 1

    def test_against_staircase(self):
        A = cm2.validate([1, 1], [2, 1])
        assert cm2.multiplicity_from_degrees(*cm2.degrees(A)) == 4
        w = cm2.witness_monomial_ideal(A)
        assert w.gens == ((0, 3), (1, 1), (2, 0))
        assert naive_colength(list(w.gens)) == 4


@st.composite
def nudged_degrees(draw):
    """A valid matrix's ascending degree lists with one entry moved by
    -2..2, so that some fail the u/v checks and some still pass."""
    e, f = map(list, cm2.degrees(draw(cm2_matrices())))
    lst = draw(st.sampled_from([e, f]))
    lst[draw(st.integers(0, len(lst) - 1))] += draw(st.integers(-2, 2))
    return e, f


random_degrees = st.integers(2, 6).flatmap(
    lambda m: st.tuples(
        st.lists(st.integers(-2, 12), min_size=m, max_size=m),
        st.lists(st.integers(-2, 12), min_size=m - 1, max_size=m - 1),
    )
)


class TestMultiplicityFromDegrees:
    """The one-pass kernel against the two-pass reference that forms
    explicit u and v lists."""

    @given(st.one_of(nudged_degrees(), random_degrees))
    @example(([2, 3], [1]))  # v_1 < 0
    @example(([0, 0, 1], [3, 2]))  # u_2 = 2 < v_1 = 3
    @example(([5, 5, 5, 5], [6, 7, 8]))  # EX25 with f_3 raised by 1
    @example(([5, 5, 5, 5], [6, 7, 7]))  # EX25 itself
    def test_matches_two_pass_reference(self, lists):
        e, f = lists
        try:
            want = uv_two_pass(e, f)[2]
        except InternalMismatch as exc:
            with pytest.raises(InternalMismatch) as got:
                cm2.multiplicity_from_degrees(e, f)
            assert str(got.value) == str(exc)
        else:
            assert cm2.multiplicity_from_degrees(e, f) == want

    @given(cm2_matrices())
    def test_uv_data_matches_reference(self, A):
        """On a valid matrix's degree lists the kernel passes and agrees."""
        lists = cm2.degrees(A)
        assert cm2.multiplicity_from_degrees(*lists) == uv_two_pass(*lists)[2]


class TestHSIdentities:
    @pytest.mark.parametrize(
        "a,b",
        [([1], [1]), ([1, 1], [2, 1]), ([2, 2, 1], [2, 2, 1])],
    )
    def test_examples(self, a, b):
        assert hs_identities(*cm2.degrees(cm2.validate(a, b))) is True

    def test_hand_value_u_identity(self):
        # u = (1, 2): lhs = (u1+u2)*u1 = 3, rhs = (u1+u2)*(u1) = 3
        _, _, u, _ = uv(cm2.validate([1, 1], [2, 1]))
        assert (u[0] + u[1]) * u[0] == 3 == sum(u) * sum(u[:1])

    @given(st.integers(1, 9).flatmap(lambda m: st.tuples(
        st.lists(st.integers(-10**6, 10**6), min_size=m, max_size=m),
        st.lists(st.integers(-10**6, 10**6), min_size=m - 1, max_size=m - 1),
    )))
    def test_telescopes_on_any_integer_lists(self, lists):
        """Both sides of each identity telescope to one sum whatever the
        lists, sorted, valid or neither."""
        assert hs_identities(*lists) is True


class TestBettiTable:
    def test_linear_ci(self):
        t = betti_table(cm2.validate([1], [1]))
        assert t.steps == (((1, 2),), ((2, 1),))

    def test_mixed_degrees(self):
        t = betti_table(cm2.validate([1, 1], [2, 1]))
        assert t.steps == (((2, 2), (3, 1)), ((3, 1), (4, 1)))

    def test_example_matrix_multiplicity(self):
        assert betti.multiplicity_and_genus(betti_table(EX25))[0] == 17


class TestWitness:
    def test_example_matrix(self):
        w = cm2.witness_monomial_ideal(EX25)
        assert w.gens == ((0, 5), (2, 3), (4, 1), (5, 0))

    def test_smallest(self):
        assert cm2.witness_monomial_ideal(cm2.validate([1], [1])).gens == ((0, 1), (1, 0))

    def test_formula(self):
        w = cm2.witness_monomial_ideal(cm2.validate([1, 1], [2, 1]))
        assert w.gens == ((0, 3), (1, 1), (2, 0))


class TestDegreeOrder:
    """The degree lists come out ascending by construction; the reference
    sums each degree term by term and sorts."""

    def test_degrees(self):
        for A in brute_cm2(3, 5):
            assert cm2.degrees(A) == sorted_degrees(A)

    def test_child_degrees(self):
        for A in brute_cm2(3, 5):
            assert kernel_child_lists(A, 5) == [
                sorted_degrees(cm2.validate(A.a + (a,), A.b + (b,)))
                for a, b in appended_pairs(A.b[-1], 5)
            ]

    @given(cm2_matrices(max_t=40), st.data())
    def test_long_matrices(self, A, data):
        entry_max = data.draw(st.integers(1, A.b[-1] + 5))
        assert cm2.degrees(A) == sorted_degrees(A)
        assert kernel_child_lists(A, entry_max) == [
            sorted_degrees(cm2.validate(A.a + (a,), A.b + (b,)))
            for a, b in appended_pairs(A.b[-1], entry_max)
        ]


def kernel_child_lists(A, entry_max):
    """The degree lists the extension kernel forms for each child of A,
    in its order, with no child failing."""
    seen = []
    real = cm2.multiplicity_from_degrees
    lists = cm2.degrees(A)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            cm2, "multiplicity_from_degrees",
            lambda e, f: seen.append((tuple(e), tuple(f))) or real(e, f),
        )
        assert cm2.extension_failures(real(*lists), lists, A.b[-1], entry_max) == []
    return seen


class TestExtend:
    def test_recursion_value(self):
        A = cm2.validate([1, 1], [2, 1])
        A2, deltas, e2 = extend_from(A, 1, 1)
        assert cm2.extend(A, 1, 1) == e2
        assert e2 == 4 + 3 * 1 == 7
        assert A2.a == (1, 1, 1) and A2.b == (2, 1, 1)
        assert deltas == (1, 1, 1, 1)  # (a, a+b-c, b, b) with c = 1
        w = cm2.witness_monomial_ideal(A2)
        assert w.gens == ((0, 4), (1, 2), (2, 1), (3, 0))
        assert naive_colength(list(w.gens)) == 7

    def test_smallest(self):
        A2, _, e2 = extend_from(cm2.validate([1], [1]), 1, 1)
        assert e2 == 3
        assert naive_colength([(0, 2), (1, 1), (2, 0)]) == 3
        assert cm2.witness_monomial_ideal(A2).gens == ((0, 2), (1, 1), (2, 0))

    def test_kernel_files_each_failing_child(self):
        """A wrong base value fails every child's recursion, b-major over
        a <= min(b, b_t); the true value fails none."""
        lists = cm2.degrees(EX25)
        e = cm2.multiplicity_from_degrees(*lists)
        assert cm2.extension_failures(e, lists, 1, 3) == []
        failures = cm2.extension_failures(e + 1, lists, 1, 3)
        assert [(a, b) for a, b, _ in failures] == [(1, 1), (1, 2), (1, 3)]
        assert all("multiplicity recursion fails" in str(exc) for *_, exc in failures)

    def test_precondition_breach(self):
        with pytest.raises(NotMonotone):
            extend_from(cm2.validate([1], [1]), 2, 1)
        with pytest.raises(NotMonotone):
            extend_from(cm2.validate([1], [1]), 2, 2)  # b_t = 1 < a = 2


class TestProperties:
    @given(cm2_matrices())
    def test_three_route_agreement(self, A):
        e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
        assert betti.multiplicity_and_genus(betti_table(A))[0] == e
        assert oracle.colength(cm2.witness_monomial_ideal(A)) == e
        assert e >= 1

    @given(cm2_matrices())
    def test_hs_identities_always_hold(self, A):
        assert hs_identities(*cm2.degrees(A))

    @given(cm2_matrices())
    def test_shift_agreement_with_table(self, A):
        s = cm2.shifts(A)
        assert table_ends(betti_table(A)) == s
        assert s.m1 < s.m2 and s.M1 < s.M2

    @given(cm2_matrices())
    def test_k_vanishes_to_order_exactly_two(self, A):
        table = betti_table(A)
        k = betti.k_polynomial(table)
        assert sum(k.coeffs) == 0  # K(1)
        assert betti.multiplicity_and_genus(table)[0] != 0  # Q(1) != 0, order exactly c
