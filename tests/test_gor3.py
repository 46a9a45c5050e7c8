"""Tests for codimension-3 Gorenstein degree matrices."""
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degmult import betti, cm2, gor3
from degmult.errors import CenterTooSmall, NotMonotone

from bruteforce import betti_table, brute_gor3, extend_from, quotient_values, sorted_gor3_steps
from strategies import gor3_matrices

CI_225 = gor3.validate([2], [2], 5)
G_2111 = gor3.validate([1, 1], [2, 1], 1)
PURE_QUADRICS = gor3.validate([1, 1], [1, 1], 1)


class TestValidate:
    def test_complete_intersection(self):
        assert CI_225.d == 5

    def test_smallest(self):
        assert len(gor3.validate([1], [1], 1).base.a) == 1

    def test_center_too_small(self):
        with pytest.raises(CenterTooSmall):
            gor3.validate([2], [2], 1)

    @pytest.mark.parametrize("d", [True, 3.0, "3", type("IntSub", (int,), {})(3)])
    def test_center_must_be_a_true_integer(self, d):
        """d is refused like a and b when it is anything but an int,
        an int subclass included."""
        with pytest.raises(ValueError, match="d must be an integer"):
            gor3.validate([1], [1], d)

    def test_block_errors_propagate(self):
        with pytest.raises(NotMonotone):
            gor3.validate([1, 2], [1, 2], 3)

    def test_json_round_trip(self):
        doc = CI_225.to_json_dict()
        assert doc == {"type": "gor3", "a": [2], "b": [2], "d": 5}
        assert gor3.DegreeMatrixGor3.from_json_dict(doc) == CI_225


class TestShifts:
    def test_ci_225(self):
        assert gor3.shifts(CI_225) == (2, 4, 9, 5, 7, 9)

    def test_pure_quadrics(self):
        assert gor3.shifts(PURE_QUADRICS) == (2, 3, 5, 2, 3, 5)

    def test_mixed(self):
        assert gor3.shifts(G_2111) == (2, 3, 7, 4, 5, 7)


class TestPfaffianMultiplicity:
    def test_ci_225(self):
        assert gor3.multiplicity_pfaffian(CI_225) == 20

    def test_smallest(self):
        assert gor3.multiplicity_pfaffian(gor3.validate([1], [1], 1)) == 1

    def test_mixed(self):
        assert gor3.multiplicity_pfaffian(G_2111) == 12


class TestBettiTable:
    def test_pure_quadrics(self):
        t = betti_table(PURE_QUADRICS)
        assert t.steps == (((2, 5),), ((3, 5),), ((5, 1),))

    def test_mixed(self):
        t = betti_table(G_2111)
        assert t.steps == (
            ((2, 2), (3, 2), (4, 1)),
            ((3, 1), (4, 2), (5, 2)),
            ((7, 1),),
        )

    def test_three_linear_forms(self):
        t = betti_table(gor3.validate([1], [1], 1))
        assert t.steps == (((1, 3),), ((2, 3),), ((3, 1),))


def shift_lists(G):
    """Steps 1 and 2 of G's step lists, in the order they come out."""
    return tuple(gor3.step_lists(G, cm2.degrees(G.base))[:2])


class TestStepOrder:
    """Step 1 comes out ascending with no sort; the reference sorts it."""

    def test_small_range(self):
        for G in brute_gor3(2, 4):
            assert shift_lists(G) == sorted_gor3_steps(G)

    @given(gor3_matrices(max_t=40))
    def test_long_matrices(self, G):
        assert shift_lists(G) == sorted_gor3_steps(G)


def linkage(G):
    """The liaison-formula multiplicity of G, as the linkage route forms it."""
    return gor3._linkage_value(gor3.shifts(G), gor3.block_curve(cm2.degrees(G.base)))


class TestLinkage:
    def test_mixed(self):
        # e(J) = 4, g = 1: (2 + 5 - 4) * 4 - 0 = 12
        assert linkage(G_2111) == 12

    def test_pure_quadrics(self):
        # e(J) = 3, g = 0: (2 + 3 - 4) * 3 + 2 = 5
        assert linkage(PURE_QUADRICS) == 5
        jt = betti_table(PURE_QUADRICS.base)
        assert betti.multiplicity_and_genus(jt) == (3, 0)

    def test_linear_ci(self):
        assert linkage(gor3.validate([1], [1], 1)) == 1


class TestExtend:
    def test_to_pure_quadrics(self):
        g = gor3.validate([1], [1], 1)
        g2, deltas, e2 = extend_from(g, 1, 1)
        lists = cm2.degrees(g.base)
        curve = gor3.block_curve(lists)
        assert gor3.extension_failures(g, 1, curve, lists, 1, 1) == []
        assert e2 == 1 + 1 * 2 * 2 == 5
        assert gor3.multiplicity_pfaffian(g2) == e2
        assert g2 == PURE_QUADRICS
        assert deltas == (1, 1, 2, 1, 1, 2)

    def test_wider_column(self):
        g = gor3.validate([1], [1], 1)
        g2, _, e2 = extend_from(g, 1, 2)
        assert e2 == 1 + 2 * 2 * 3 == 13
        assert gor3.multiplicity_pfaffian(g2) == 13
        assert linkage(g2) == 13

    def test_precondition_breach(self):
        with pytest.raises(NotMonotone):
            extend_from(CI_225, 3, 3)  # b_t = 2 < a = 3

    def test_kernel_files_each_failing_child(self):
        """A wrong base value fails every child's multiplicity recursion,
        b-major over a <= min(b, b_t); a wrong genus fails each genus
        recursion; the true values fail none."""
        lists = cm2.degrees(CI_225.base)
        e, curve = gor3.multiplicity_pfaffian(CI_225), gor3.block_curve(lists)
        assert gor3.extension_failures(CI_225, e, curve, lists, 2, 4) == []
        pairs = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (2, 4)]
        wrong_e = gor3.extension_failures(CI_225, e + 1, curve, lists, 2, 4)
        assert [(a, b) for a, b, _ in wrong_e] == pairs
        assert all("multiplicity recursion" in str(exc) for *_, exc in wrong_e)
        wrong_g = gor3.extension_failures(CI_225, e, (curve[0], curve[1] + 1), lists, 2, 4)
        assert [(a, b) for a, b, _ in wrong_g] == pairs
        assert all("genus recursion" in str(exc) for *_, exc in wrong_g)


def terms(c, shifts, ranks):
    """Codimension and K-polynomial {shift: coefficient} of a quotient's input."""
    coeffs = Counter()
    for shift, rank in zip(shifts, ranks):
        coeffs[shift] += rank
    return c, {shift: x for shift, x in coeffs.items() if x}


def table_terms(table):
    return terms(table.codim, *betti._signed_entries(table))


class TestOneQuotientPerTable:
    """The linkage route and the extension take the Hilbert quotient of
    each distinct Betti table once."""

    @pytest.fixture
    def divisions(self, monkeypatch):
        calls = []
        real = betti._quotient_at_one

        def counting(c, shifts, ranks):
            calls.append(terms(c, shifts, ranks))
            return real(c, shifts, ranks)

        monkeypatch.setattr(betti, "_quotient_at_one", counting)
        return calls

    def test_linkage_value(self, divisions):
        curve = gor3.block_curve(cm2.degrees(G_2111.base))
        assert gor3._linkage_value(gor3.shifts(G_2111), curve) == gor3.multiplicity_pfaffian(G_2111)
        assert divisions == [table_terms(betti_table(G_2111.base))]

    def test_extend(self, divisions):
        lists = cm2.degrees(CI_225.base)
        assert gor3.extension_failures(CI_225, 20, gor3.block_curve(lists), lists, 2, 3) == []
        pairs = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]
        assert divisions == [table_terms(betti_table(CI_225.base))] + [
            table_terms(betti_table(cm2.validate([2, a], [2, b]))) for a, b in pairs
        ]


class TestProperties:
    @given(gor3_matrices())
    def test_three_route_agreement(self, G):
        e = gor3.multiplicity_pfaffian(G)
        assert betti.multiplicity_and_genus(betti_table(G))[0] == e
        assert linkage(G) == e
        assert e >= 1

    @given(gor3_matrices())
    def test_table_self_dual(self, G):
        s = gor3.shifts(G)
        t = betti_table(G)
        step1, step2, step3 = t.steps
        assert step3 == ((s.m3, 1),)
        assert tuple(sorted((s.m3 - shift, rank) for shift, rank in step1)) == step2
        assert all(0 < shift < s.m3 for shift, _ in step1)
        assert sum(rank for _, rank in step1) == 2 * len(G.base.a) + 1

    @given(gor3_matrices())
    def test_shift_agreement_with_table(self, G):
        s = gor3.shifts(G)
        summary = betti.shift_summary(betti_table(G))
        assert summary.m == (s.m1, s.m2, s.m3)
        assert summary.M == (s.M1, s.M2, s.M3)
        assert s.m1 < s.m2 < s.m3 and s.M1 < s.M2 < s.M3

    @given(gor3_matrices(), st.integers(1, 5), st.integers(0, 4))
    def test_extension_recursion(self, G, a, extra):
        b = a + extra
        if G.base.b[-1] < a:
            return
        s, e = gor3.shifts(G), gor3.multiplicity_pfaffian(G)
        failures = gor3.extension_failures(
            G, e, quotient_values(betti_table(G.base)), cm2.degrees(G.base), G.base.b[-1], b
        )
        assert failures == []
        G2 = gor3.validate(G.base.a + (a,), G.base.b + (b,), G.d)
        assert gor3.multiplicity_pfaffian(G2) == e + b * (s.m1 + a) * (s.M2 + b - a)
