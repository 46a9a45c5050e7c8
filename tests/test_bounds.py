"""Tests for the bounds' cleared integer sides and the objects reports show."""
import math
import random

import pytest
from hypothesis import given

from degmult import betti, bounds, cli, cm2, sweep

from bruteforce import degree_grid, naive_colength
from strategies import cm2_matrices


def hhs(m, M, e):
    """The HHS bounds of shifts m, M and e, as compute shows them."""
    p = len(m)
    return bounds.shown("hhs", bounds.hhs_sides(p, (*m, *M), e), (math.factorial(p),) * 2)


def cm2_pair(m1, m2, M1, M2, e):
    return bounds.shown("cm2", bounds.cm2_sides(m1, m2, M1, M2, e), bounds.FACTORS["cm2"])


def gor3_pair(m1, m2, m3, e):
    return bounds.shown("gor3", bounds.gor3_sides(m1, m2, m3, e), bounds.FACTORS["gor3"])


def prop24(A, e):
    """prop24's hypotheses and its one bound, as compute shows them."""
    s = cm2.shifts(A)
    (v,) = bounds.shown("prop24", bounds.prop24_sides(s, e), bounds.FACTORS["prop24"])
    return bounds.prop24_hypotheses(A, s), v


def srinivasan(m, M, e):
    """Srinivasan's pair and the quasi-purity it is claimed under."""
    ends = (*m, *M)
    sides = bounds.srinivasan_sides(ends, e)
    pair = bounds.shown("srinivasan", sides, bounds.FACTORS["srinivasan"])
    return (*pair, betti.purity(ends)[1])


def sides(v):
    return v["lhs"], v["rhs"]


class TestHHSBounds:
    def test_example_matrix(self):
        lo, up = hhs((5, 6), (5, 7), 17)
        assert (lo["lhs"], lo["rhs"], lo["holds"], lo["sharp"]) == (34, 30, True, False)
        assert (up["lhs"], up["rhs"], up["holds"], up["sharp"]) == (34, 35, True, False)

    def test_pure_235(self):
        lo, up = hhs((2, 3, 5), (2, 3, 5), 5)
        assert lo["sharp"] and up["sharp"]
        assert lo["lhs"] == lo["rhs"] == 30

    def test_ci_225(self):
        lo, up = hhs((2, 4, 9), (5, 7, 9), 20)
        assert sides(lo) == (120, 72)
        assert sides(up) == (120, 315)
        assert lo["holds"] and up["holds"]


class TestCM2Bounds:
    def test_lower_sharp_case(self):
        lo, up = cm2_pair(2, 3, 3, 4, 4)
        assert (lo["lhs"], lo["rhs"], lo["sharp"]) == (8, 8, True)
        assert (up["lhs"], up["rhs"], up["holds"]) == (8, 10, True)

    def test_pure_linear(self):
        lo, up = cm2_pair(1, 2, 1, 2, 1)
        assert lo["sharp"] and up["sharp"]

    def test_example_matrix(self):
        lo, up = cm2_pair(5, 6, 5, 7, 17)
        assert (lo["lhs"], lo["rhs"], lo["holds"]) == (34, 32, True)
        assert up["holds"]


class TestGor3Bounds:
    def test_mixed(self):
        lo, up = gor3_pair(2, 3, 7, 12)
        assert (lo["lhs"], lo["rhs"], lo["holds"]) == (72, 58, True)
        assert (up["lhs"], up["rhs"], up["holds"]) == (144, 252, True)

    def test_pure_quadrics(self):
        lo, up = gor3_pair(2, 3, 5, 5)
        assert lo["sharp"] and up["sharp"]

    def test_ci_225(self):
        lo, up = gor3_pair(2, 4, 9, 20)
        assert sides(lo) == (120, 96)
        assert sides(up) == (240, 576)


class TestProp24:
    def test_example_matrix_fails(self):
        A = cm2.validate([2, 2, 1], [2, 2, 1])
        hyp, v = prop24(A, 17)
        assert not hyp["hyp_i"]
        assert not hyp["hyp_ii"]
        assert hyp["hyp_ii_margin"] == -1
        assert sides(v) == (34, 33)
        assert not v["holds"]

    def test_all_entries_at_least_two(self):
        A = cm2.validate([2, 2], [2, 2])
        e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
        assert e == 12
        assert naive_colength([(0, 4), (2, 2), (4, 0)]) == 12
        hyp, v = prop24(A, e)
        assert hyp["hyp_i"]
        assert v["holds"] and v["sharp"]  # 24 <= 24

    def test_margin_zero(self):
        A = cm2.validate([1, 1], [1, 2])
        e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
        assert e == 5
        assert naive_colength([(0, 3), (1, 2), (2, 0)]) == 5
        hyp, v = prop24(A, e)
        assert hyp["hyp_ii"] and hyp["hyp_ii_margin"] == 0
        assert (v["lhs"], v["rhs"], v["holds"]) == (10, 10, True)

    def test_margin_uses_superdiagonal_entry(self):
        # bound holds here (16 <= 18) but the margin 1 - 2*2 + 1 is negative
        A = cm2.validate([1, 2], [2, 2])
        e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
        assert e == 8
        assert naive_colength([(0, 4), (1, 2), (3, 0)]) == 8
        hyp, v = prop24(A, e)
        assert not hyp["hyp_ii"] and hyp["hyp_ii_margin"] == -2
        assert (v["lhs"], v["rhs"], v["holds"]) == (16, 18, True)

    def test_family_refuting_subdiagonal_reading(self):
        # a = b = (k, 1): the bound fails although the subdiagonal entry
        # a_1 + a_2 - b_1 = 1 would leave a nonnegative margin k - 1.
        for k in range(2, 7):
            A = cm2.validate([k, 1], [k, 1])
            e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
            assert e == k * k + k + 1
            hyp, v = prop24(A, e)
            assert not v["holds"]
            assert not hyp["hyp_i"] and not hyp["hyp_ii"]
            assert hyp["hyp_ii_margin"] == k - 2 * k + 1

    def test_follows_from_cm2_upper_when_b_t_is_at_least_2(self):
        """prop24's right side minus cm2_upper's is (m2 - m1 - 2)(M2 - m2
        + M1 - m1), with m2 - m1 = b_t, so no instance with b_t >= 2 fails
        prop24, and hypothesis (i) forces b_t >= 2, as prop24_sides'
        docstring proves: pinned on all 31,614 matrices of t <= 4,
        entries <= 5."""
        tally = {"b_t >= 2": 0, "hyp_i": 0}
        for A in sweep.enumerate_cm2(4, 5):
            s = cm2.shifts(A)
            e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
            hyp, p24 = prop24(A, e)
            upper = cm2_pair(*s, e)[1]
            assert s.m2 - s.m1 == A.b[-1]
            spread = s.M2 - s.m2 + s.M1 - s.m1
            assert p24["rhs"] - upper["rhs"] == (A.b[-1] - 2) * spread
            if A.b[-1] >= 2:
                assert upper["holds"] and p24["holds"]
                tally["b_t >= 2"] += 1
            if hyp["hyp_i"]:
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
            got = tuple(bounds.prop24_hypotheses(A, cm2.shifts(A)).values())
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
            hyp_ii = bounds.prop24_hypotheses(A, cm2.shifts(A))["hyp_ii"]
            assert margin_holds == self._closed_form(A) == hyp_ii, A
            holding += margin_holds
        assert holding > 0

    @given(cm2_matrices(max_t=12))
    def test_hyp_ii_closed_form(self, A):
        margin_holds = len(A.a) >= 2 and A.a[0] - 2 * A.b[0] + 1 >= 0
        hyp_ii = bounds.prop24_hypotheses(A, cm2.shifts(A))["hyp_ii"]
        assert margin_holds == self._closed_form(A) == hyp_ii


class TestSrinivasanBounds:
    def test_ci_225_lower_violated(self):
        lo, up, quasi = srinivasan((2, 4, 9), (5, 7, 9), 20)
        assert (lo["lhs"], lo["rhs"], lo["holds"]) == (120, 126, False)
        assert up["holds"]
        assert not quasi

    def test_pure_235(self):
        lo, up, quasi = srinivasan((2, 3, 5), (2, 3, 5), 5)
        assert lo["sharp"] and up["sharp"] and quasi
        assert lo["lhs"] == lo["rhs"] == 30

    def test_mixed(self):
        lo, up, quasi = srinivasan((2, 3, 7), (4, 5, 7), 12)
        assert (up["lhs"], up["rhs"], up["holds"]) == (72, 84, True)
        assert not quasi

    def test_wrong_codim(self):
        with pytest.raises(ValueError):
            bounds.srinivasan_sides((1, 2, 1, 2), 1)


def sharpness(m, M, e):
    """The sharp flags of the HHS bounds of shifts m, M and e, and purity."""
    lo, up = hhs(m, M, e)
    return lo["sharp"], up["sharp"], betti.purity((*m, *M))[0]


class TestSharpness:
    def test_pure(self):
        assert sharpness((2, 3, 5), (2, 3, 5), 5) == (True, True, True)

    def test_example_matrix(self):
        assert sharpness((5, 6), (5, 7), 17) == (False, False, False)

    def test_mixed_gor3(self):
        assert sharpness((2, 3, 7), (4, 5, 7), 12) == (False, False, False)

    def test_disagreeing_flags_raise(self, capsys, monkeypatch):
        """compute on a pure matrix whose value route reads one too many
        finds no sharp bound: it stops with exit 1 and one anomaly line
        naming the flags, with no repr in it."""
        monkeypatch.setitem(sweep.CM2Evaluation.ROUTES, "uv", lambda ev: 2)
        assert cli.main(["compute", "--cm2", "--a", "1", "--b", "1"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == (
            "", "anomaly: sharpness/purity flags disagree: lower=False, upper=False, pure=True\n")


class TestVerdictSerialization:
    def test_json_fields(self):
        lo, _ = cm2_pair(2, 3, 3, 4, 4)
        assert lo == {
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
            lo, up = cm2_pair(s.m1, s.m2, s.M1, s.M2, e)
            assert lo["rhs"] >= s.m1 * s.m2
            assert up["rhs"] <= s.M1 * s.M2
