"""Tests for the cleared-integer bound verdicts."""
import random

import pytest
from hypothesis import given

from degmult import betti, bounds, cm2, sweep
from degmult.betti import ShiftSummary
from degmult.errors import CharacterizationViolated

from bruteforce import degree_grid, naive_colength
from strategies import cm2_matrices


def summary(m, M):
    return ShiftSummary(m=tuple(m), M=tuple(M))


class TestHHSBounds:
    def test_example_matrix(self):
        lo, up = bounds.hhs_bounds(summary((5, 6), (5, 7)), 17)
        assert (lo.lhs, lo.rhs, lo.holds, lo.sharp) == (34, 30, True, False)
        assert (up.lhs, up.rhs, up.holds, up.sharp) == (34, 35, True, False)

    def test_pure_235(self):
        lo, up = bounds.hhs_bounds(summary((2, 3, 5), (2, 3, 5)), 5)
        assert lo.sharp and up.sharp
        assert lo.lhs == lo.rhs == 30

    def test_ci_225(self):
        lo, up = bounds.hhs_bounds(summary((2, 4, 9), (5, 7, 9)), 20)
        assert (lo.lhs, lo.rhs) == (120, 72)
        assert (up.lhs, up.rhs) == (120, 315)
        assert lo.holds and up.holds


class TestCM2Bounds:
    def test_lower_sharp_case(self):
        lo, up = bounds.cm2_bounds(2, 3, 3, 4, 4)
        assert (lo.lhs, lo.rhs, lo.sharp) == (8, 8, True)
        assert (up.lhs, up.rhs, up.holds) == (8, 10, True)

    def test_pure_linear(self):
        lo, up = bounds.cm2_bounds(1, 2, 1, 2, 1)
        assert lo.sharp and up.sharp

    def test_example_matrix(self):
        lo, up = bounds.cm2_bounds(5, 6, 5, 7, 17)
        assert (lo.lhs, lo.rhs, lo.holds) == (34, 32, True)
        assert up.holds


class TestGor3Bounds:
    def test_mixed(self):
        lo, up = bounds.gor3_bounds(2, 3, 7, 12)
        assert (lo.lhs, lo.rhs, lo.holds) == (72, 58, True)
        assert (up.lhs, up.rhs, up.holds) == (144, 252, True)

    def test_pure_quadrics(self):
        lo, up = bounds.gor3_bounds(2, 3, 5, 5)
        assert lo.sharp and up.sharp

    def test_ci_225(self):
        lo, up = bounds.gor3_bounds(2, 4, 9, 20)
        assert (lo.lhs, lo.rhs) == (120, 96)
        assert (up.lhs, up.rhs) == (240, 576)


class TestProp24:
    def test_example_matrix_fails(self):
        A = cm2.validate([2, 2, 1], [2, 2, 1])
        res = bounds.prop24_bound(A, 17, cm2.shifts(A))
        assert not res.hyp_i
        assert not res.hyp_ii
        assert res.hyp_ii_margin == -1
        assert (res.verdict.lhs, res.verdict.rhs) == (34, 33)
        assert not res.verdict.holds

    def test_all_entries_at_least_two(self):
        A = cm2.validate([2, 2], [2, 2])
        e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
        assert e == 12
        assert naive_colength([(0, 4), (2, 2), (4, 0)]) == 12
        res = bounds.prop24_bound(A, e, cm2.shifts(A))
        assert res.hyp_i
        assert res.verdict.holds and res.verdict.sharp  # 24 <= 24

    def test_margin_zero(self):
        A = cm2.validate([1, 1], [1, 2])
        e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
        assert e == 5
        assert naive_colength([(0, 3), (1, 2), (2, 0)]) == 5
        res = bounds.prop24_bound(A, e, cm2.shifts(A))
        assert res.hyp_ii and res.hyp_ii_margin == 0
        assert (res.verdict.lhs, res.verdict.rhs, res.verdict.holds) == (10, 10, True)

    def test_margin_uses_superdiagonal_entry(self):
        # bound holds here (16 <= 18) but the margin 1 - 2*2 + 1 is negative
        A = cm2.validate([1, 2], [2, 2])
        e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
        assert e == 8
        assert naive_colength([(0, 4), (1, 2), (3, 0)]) == 8
        res = bounds.prop24_bound(A, e, cm2.shifts(A))
        assert not res.hyp_ii and res.hyp_ii_margin == -2
        assert (res.verdict.lhs, res.verdict.rhs, res.verdict.holds) == (16, 18, True)

    def test_family_refuting_subdiagonal_reading(self):
        # a = b = (k, 1): the bound fails although the subdiagonal entry
        # a_1 + a_2 - b_1 = 1 would leave a nonnegative margin k - 1.
        for k in range(2, 7):
            A = cm2.validate([k, 1], [k, 1])
            e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
            assert e == k * k + k + 1
            res = bounds.prop24_bound(A, e, cm2.shifts(A))
            assert not res.verdict.holds
            assert not res.hyp_i and not res.hyp_ii
            assert res.hyp_ii_margin == k - 2 * k + 1

    def test_follows_from_cm2_upper_when_b_t_is_at_least_2(self):
        """prop24's right side minus cm2_upper's is (m2 - m1 - 2)(M2 - m2
        + M1 - m1), with m2 - m1 = b_t, so no instance with b_t >= 2 fails
        prop24, and hypothesis (i) forces b_t >= 2, as prop24_bound's
        docstring proves: pinned on all 31,614 matrices of t <= 4,
        entries <= 5."""
        tally = {"b_t >= 2": 0, "hyp_i": 0}
        for A in sweep.enumerate_cm2(4, 5):
            s = cm2.shifts(A)
            e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
            p24 = bounds.prop24_bound(A, e, s)
            upper = bounds.cm2_bounds(*s, e)[1]
            assert s.m2 - s.m1 == A.b[-1]
            spread = s.M2 - s.m2 + s.M1 - s.m1
            assert p24.verdict.rhs - upper.rhs == (A.b[-1] - 2) * spread
            if A.b[-1] >= 2:
                assert upper.holds and p24.verdict.holds
                tally["b_t >= 2"] += 1
            if p24.hyp_i:
                assert A.b[-1] >= 2
                tally["hyp_i"] += 1
        assert tally == {"b_t >= 2": 29_055, "hyp_i": 725}


def _grid_hypotheses(A):
    """hyp_i, hyp_ii and the margin read off the full t x (t+1) grid."""
    grid = degree_grid(A)
    hyp_i = all(entry >= 2 for row in grid for entry in row)
    margin = A.a[0] - 2 * grid[0][1] + 1 if len(A.a) >= 2 else None
    return hyp_i, margin is not None and margin >= 0, margin


def _seeded_matrices(seed, count, t_max):
    """Valid matrices whose b_i exceed max(a_i, a_{i+1}) by a seeded slack,
    small enough that the bottom-left grid entry often stays >= 2."""
    rng = random.Random(seed)
    for _ in range(count):
        t = rng.randint(1, t_max)
        a = [rng.randint(1, 200) for _ in range(t)]
        slack = rng.choice((0, 1, 3))
        b = [min(max(a[i:i + 2]) + rng.randint(0, slack), 200) for i in range(t)]
        yield cm2.validate(a, b)


class TestProp24Hypotheses:
    """The O(t) hypotheses equal the ones read off the full degree grid."""

    def _check(self, matrices):
        seen = set()
        for A in matrices:
            p24 = bounds.prop24_bound(
                A, cm2.multiplicity_from_degrees(*cm2.degrees(A)), cm2.shifts(A)
            )
            got = (p24.hyp_i, p24.hyp_ii, p24.hyp_ii_margin)
            assert got == _grid_hypotheses(A), A
            seen.add(got[:2])
        return seen

    def test_exhaustive_small_range(self):
        # hyp_ii needs a_1 = 1 (b_1 >= a_1), which rules out hyp_i.
        seen = self._check(sweep.enumerate_cm2(3, 4))
        assert seen == {(True, False), (False, True), (False, False)}

    def test_seeded_large_matrices(self):
        seen = self._check(_seeded_matrices(24, 60, 150))
        assert {hyp_i for hyp_i, _ in seen} == {True, False}

    @staticmethod
    def _closed_form(A):
        """Hypothesis (ii) in closed form: t >= 2 and a_1 = b_1 = 1."""
        return len(A.a) >= 2 and A.a[0] == A.b[0] == 1

    def test_hyp_ii_closed_form_exhaustive(self):
        """The margin a_1 - 2 b_1 + 1 is nonnegative exactly when t >= 2
        and a_1 = b_1 = 1, on every matrix with t <= 3, entries <= 5."""
        holding = 0
        for A in sweep.enumerate_cm2(3, 5):
            margin_holds = len(A.a) >= 2 and A.a[0] - 2 * A.b[0] + 1 >= 0
            hyp_ii = bounds.prop24_bound(A, 0, cm2.shifts(A)).hyp_ii
            assert margin_holds == self._closed_form(A) == hyp_ii, A
            holding += margin_holds
        assert holding > 0

    @given(cm2_matrices(max_t=12))
    def test_hyp_ii_closed_form(self, A):
        margin_holds = len(A.a) >= 2 and A.a[0] - 2 * A.b[0] + 1 >= 0
        hyp_ii = bounds.prop24_bound(A, 0, cm2.shifts(A)).hyp_ii
        assert margin_holds == self._closed_form(A) == hyp_ii


class TestSrinivasanBounds:
    def test_ci_225_lower_violated(self):
        lo, up, quasi = bounds.srinivasan_bounds(summary((2, 4, 9), (5, 7, 9)), 20)
        assert (lo.lhs, lo.rhs, lo.holds) == (120, 126, False)
        assert up.holds
        assert not quasi

    def test_pure_235(self):
        lo, up, quasi = bounds.srinivasan_bounds(summary((2, 3, 5), (2, 3, 5)), 5)
        assert lo.sharp and up.sharp and quasi
        assert lo.lhs == lo.rhs == 30

    def test_mixed(self):
        lo, up, quasi = bounds.srinivasan_bounds(summary((2, 3, 7), (4, 5, 7)), 12)
        assert (up.lhs, up.rhs, up.holds) == (72, 84, True)
        assert not quasi

    def test_wrong_codim(self):
        with pytest.raises(ValueError):
            bounds.srinivasan_bounds(summary((1, 2), (1, 2)), 1)


def sharpness(s, e):
    """The sharpness flags of the HHS verdicts of shifts s and e."""
    return bounds.sharpness(*bounds.hhs_bounds(s, e), betti.summary_purity(s).pure)


class TestSharpness:
    def test_pure(self):
        v = sharpness(summary((2, 3, 5), (2, 3, 5)), 5)
        assert v == (True, True, True)

    def test_example_matrix(self):
        v = sharpness(summary((5, 6), (5, 7)), 17)
        assert v == (False, False, False)

    def test_mixed_gor3(self):
        v = sharpness(summary((2, 3, 7), (4, 5, 7)), 12)
        assert v == (False, False, False)

    def test_disagreeing_flags_raise(self):
        with pytest.raises(CharacterizationViolated, match="lower=True, upper=False, pure=False"):
            sharpness(summary((1, 2), (1, 3)), 1)


class TestVerdictSerialization:
    def test_json_fields(self):
        lo, _ = bounds.cm2_bounds(2, 3, 3, 4, 4)
        doc = lo.to_json_dict()
        assert doc == {
            "name": "cm2_lower",
            "lhs": 8,
            "relation": ">=",
            "rhs": 8,
            "factor": 2,
            "holds": True,
            "sharp": True,
        }

    def test_refinement_of_conjectured_bounds(self):
        # on valid cm2 data the sharper bounds squeeze inside the conjectured ones
        for a, b in (([1, 1], [2, 1]), ([2, 2, 1], [2, 2, 1]), ([3], [4])):
            A = cm2.validate(a, b)
            s = cm2.shifts(A)
            e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
            lo, up = bounds.cm2_bounds(s.m1, s.m2, s.M1, s.M2, e)
            assert lo.rhs >= s.m1 * s.m2
            assert up.rhs <= s.M1 * s.M2
