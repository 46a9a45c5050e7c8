"""Tests for Betti tables, K-polynomials, and the Hilbert-series route."""
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from degmult import betti
from degmult.errors import DivisibilityError, DivisionError

from bruteforce import hilbert_quotient, one_minus_s_power, poly_mul, quotient_values
from strategies import betti_tables, divisible_betti_tables


def table(codim, entries):
    return betti.BettiTable.from_entries(codim, entries)


def rank_one_multiplicity(t):
    """:func:`betti.resolution_multiplicity` of t's steps, each written out
    as one shift per unit of rank, as the package holds its resolutions."""
    steps = [[shift for shift, rank in step for _ in range(rank)] for step in t.steps]
    return betti.resolution_multiplicity(t.codim, steps)


# Frozen small tables reused throughout.
KOSZUL_23 = table(2, [(1, 2, 1), (1, 3, 1), (2, 5, 1)])
GOR3_TABLE = table(
    3,
    [(1, 2, 2), (1, 3, 2), (1, 4, 1), (2, 3, 1), (2, 4, 2), (2, 5, 2), (3, 7, 1)],
)
PURE_235 = table(3, [(1, 2, 5), (2, 3, 5), (3, 5, 1)])
CI_11 = table(2, [(1, 1, 2), (2, 2, 1)])
CI_22 = table(2, [(1, 2, 2), (2, 4, 1)])
CM2_1121 = table(2, [(1, 2, 2), (1, 3, 1), (2, 3, 1), (2, 4, 1)])
# K = (1-s)^2 (1 + s^5): the power sums P_0 and P_1 vanish, P_2 does not.
NOT_DIVISIBLE_THRICE = table(
    3, [(1, 1, 2), (1, 6, 2), (2, 2, 1), (2, 5, 1), (2, 7, 1), (2, 9, 1), (3, 9, 1)]
)


class TestBettiTable:
    def test_aggregates_ranks(self):
        t = table(1, [(1, 2, 1), (1, 2, 3), (1, 5, 1)])
        assert t.steps == (((2, 4), (5, 1)),)

    def test_every_step_must_be_covered(self):
        with pytest.raises(ValueError):
            table(1, [(2, 3, 1)])

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            table(1, [(1, 0, 1)])
        with pytest.raises(ValueError):
            table(1, [(1, 2, 0)])
        with pytest.raises(ValueError):
            table(3, [(1, 1, 1), (2, 2, 1)])  # codim > p
        # Each entry is checked, not the sum on its (step, shift).
        with pytest.raises(ValueError, match="ranks must be >= 1, got -1"):
            table(2, [(1, 2, 1), (1, 3, 1), (2, 5, 2), (2, 5, -1)])
        with pytest.raises(ValueError, match="ranks must be >= 1, got 0"):
            table(1, [(1, 2, 1), (1, 2, 0)])

    def test_json_round_trip(self):
        doc = GOR3_TABLE.to_json_dict()
        assert doc["codim"] == 3
        assert betti.BettiTable.from_json_dict(doc) == GOR3_TABLE


class TestKPolynomial:
    def test_koszul_23(self):
        assert betti.k_polynomial(KOSZUL_23).coeffs == (1, 0, -1, -1, 0, 1)

    def test_gor3_table(self):
        assert betti.k_polynomial(GOR3_TABLE).coeffs == (1, 0, -2, -1, 1, 2, 0, -1)

    def test_degree_one_ideal(self):
        t = table(1, [(1, 1, 1)])
        assert betti.k_polynomial(t).coeffs == (1, -1)

    def test_str(self):
        assert str(betti.k_polynomial(GOR3_TABLE)) == "1 - 2*s^2 - s^3 + s^4 + 2*s^5 - s^7"

    def test_vanishes_at_one(self):
        for t in (KOSZUL_23, GOR3_TABLE, PURE_235, CI_11, CI_22, CM2_1121):
            assert sum(betti.k_polynomial(t).coeffs) == 0  # K(1)


class TestMultiplicity:
    @pytest.mark.parametrize(
        "t,expected",
        [(KOSZUL_23, 6), (GOR3_TABLE, 12), (PURE_235, 5), (CI_11, 1), (CI_22, 4)],
    )
    def test_examples(self, t, expected):
        assert betti.multiplicity_and_genus(t)[0] == expected

    @pytest.mark.parametrize("t", [KOSZUL_23, GOR3_TABLE, PURE_235, CI_11, CM2_1121])
    def test_division_was_exact(self, t):
        # oracle: multiply the quotient back by (1-s)^c and compare
        q = hilbert_quotient(t)
        k = list(betti.k_polynomial(t).coeffs)
        assert poly_mul(one_minus_s_power(t.codim), q) == k

    def test_inconsistent_table_raises(self):
        bad = table(2, [(1, 2, 1), (2, 5, 1)])  # K = 1 - s^2 + s^5, K(1) != 0
        with pytest.raises(DivisionError):
            betti.multiplicity_and_genus(bad)

    def test_not_divisible_twice(self):
        bad = table(2, [(1, 1, 2), (2, 3, 1)])  # K = 1 - 2s + s^3, simple zero at 1
        with pytest.raises(DivisionError):
            betti.multiplicity_and_genus(bad)

    @given(st.one_of(
        betti_tables(),
        divisible_betti_tables(),
        # Shifts up to 10^4 at codimension up to 6, where the moments'
        # power-sum terms pass 2^63.
        betti_tables(max_p=6, max_shift=10**4),
        divisible_betti_tables(max_p=6, max_degree=10**4),
    ))
    @example(NOT_DIVISIBLE_THRICE)
    def test_moments_match_dense_division(self, t):
        """Both entries to the kernel agree with the dense division, and
        refuse a table it does not divide or whose Q(1) = sum(q) <= 0."""
        try:
            q = hilbert_quotient(t)
        except DivisionError:
            q = None
        if q is None or sum(q) <= 0:
            for route in (betti.multiplicity_and_genus, rank_one_multiplicity):
                with pytest.raises(DivisionError):
                    route(t)
            return
        genus = 1 + sum(c * (i - 1) for i, c in enumerate(q))
        assert rank_one_multiplicity(t) == sum(q)
        assert betti.multiplicity_and_genus(t) == (sum(q), genus)

    @pytest.mark.parametrize("c", [1, 3, 5, 6])
    def test_koszul_of_large_degree(self, c):
        """c forms of degree d: e = d^c and Q'(1) = e c (d-1)/2, with
        terms up to (c d)^c, past 2^63 from c = 5 on."""
        d = 10**4
        t = table(c, [(i, i * d, math.comb(c, i)) for i in range(1, c + 1)])
        e = d**c
        assert rank_one_multiplicity(t) == e
        assert betti.multiplicity_and_genus(t) == (e, 1 + e * c * (d - 1) // 2 - e)

    @given(st.one_of(divisible_betti_tables(), divisible_betti_tables(max_p=6, max_degree=10**4)))
    def test_divisible_tables_divide(self, t):
        # Guards the test above: these tables reach the success path
        # unless their quotient has Q(1) <= 0.
        q = hilbert_quotient(t)
        if sum(q) <= 0:
            with pytest.raises(DivisionError):
                betti.multiplicity_and_genus(t)
        else:
            assert betti.multiplicity_and_genus(t)[0] == sum(q)

    @pytest.mark.parametrize("t", [
        table(1, [(1, 1, 2), (2, 2, 1)]),  # K = (1-s)^2: Q = 1 - s, Q(1) = 0
        table(1, [(1, 1, 2), (2, 3, 1)]),  # K = (1-s)(1 - s - s^2): Q(1) = -1
    ], ids=["q1_zero", "q1_negative"])
    def test_nonpositive_quotient_raises(self, t):
        """(1-s)^c divides K, but no quotient of codimension c has Q(1) <= 0."""
        for route in (betti.multiplicity_and_genus, rank_one_multiplicity):
            with pytest.raises(DivisionError, match="Q\\(1\\) = "):
                route(t)


def ends(t):
    """:func:`betti.step_ends` of each step's shifts, ascending."""
    return betti.step_ends([[shift for shift, _ in step] for step in t.steps])


class TestShiftSummary:
    def test_koszul(self):
        assert ends(KOSZUL_23) == (2, 5, 3, 5)

    def test_gor3(self):
        assert ends(GOR3_TABLE) == (2, 3, 7, 4, 5, 7)

    def test_pure(self):
        s = ends(PURE_235)
        assert s[:3] == s[3:] == (2, 3, 5)


def purity(t):
    return betti.purity(ends(t))


class TestPurity:
    def test_pure_table(self):
        assert purity(PURE_235) == (True, True)

    def test_not_quasi_pure(self):
        # m2 = 3 < M1 = 4
        assert purity(GOR3_TABLE) == (False, False)

    def test_quasi_pure_not_pure(self):
        t = table(2, [(1, 2, 1), (1, 3, 1), (2, 4, 1), (2, 5, 1)])
        assert purity(t) == (False, True)


def huneke_miller(t):
    return betti.pure_shifts_multiplicity(ends(t)[:t.projective_dimension])


class TestHunekeMiller:
    def test_pure_235(self):
        assert huneke_miller(PURE_235) == 5

    def test_linear_ci(self):
        assert huneke_miller(CI_11) == 1

    def test_pure_24(self):
        assert huneke_miller(CI_22) == 4

    def test_impossible_pure_table(self):
        bad = table(2, [(1, 1, 1), (2, 3, 1)])  # 2! does not divide 1*3
        with pytest.raises(DivisibilityError):
            huneke_miller(bad)


def genus(t):
    return betti.multiplicity_and_genus(t)[1]


class TestGenus:
    def test_line(self):
        assert genus(CI_11) == 0

    def test_elliptic_quartic(self):
        assert genus(CI_22) == 1

    def test_cm2_table(self):
        assert genus(CM2_1121) == 1

    @pytest.mark.parametrize("t", [CI_11, CI_22, CM2_1121, KOSZUL_23])
    def test_one_quotient_gives_both(self, t):
        e, g = betti.multiplicity_and_genus(t)
        assert (e, g) == quotient_values(t)
        assert e == rank_one_multiplicity(t)
