"""Tests for the monomial staircase colength oracle."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from degmult import oracle
from degmult.errors import NotArtinian

from bruteforce import naive_colength, naive_minimal
from strategies import staircases


class TestMinimalize:
    def test_drops_divisible_generator(self):
        s = oracle.minimalize([(0, 3), (1, 1), (2, 0), (2, 1)])
        assert s.gens == ((0, 3), (1, 1), (2, 0))

    def test_already_minimal(self):
        gens = [(0, 5), (2, 3), (4, 1), (5, 0)]
        assert oracle.minimalize(gens).gens == tuple(gens)

    def test_not_artinian(self):
        with pytest.raises(NotArtinian):
            oracle.minimalize([(1, 1)])
        with pytest.raises(NotArtinian):
            oracle.minimalize([(0, 2), (1, 1)])

    def test_deduplicates(self):
        s = oracle.minimalize([(0, 1), (0, 1), (1, 0)])
        assert s.gens == ((0, 1), (1, 0))

    def test_canonical_order_enforced(self):
        with pytest.raises(ValueError):
            oracle.MonomialStaircase(((1, 1), (0, 3), (2, 0)))

    @pytest.mark.parametrize("gens", [
        [(0, 2.9), (1.5, 0)],
        [(0, 2.0), (1, 0)],
        [(0, True), (True, 0)],
        [(0, 1), (0, True), (1, 0)],
        [(0, "1"), (1, 0)],
    ])
    def test_exponents_never_coerced(self, gens):
        with pytest.raises(ValueError, match="integers"):
            oracle.minimalize(gens)

    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=30),
        st.booleans(),
    )
    def test_matches_pairwise_scan(self, pts, artinian):
        # Few distinct points, so duplicates and dominated points are common.
        if artinian:
            pts = pts + [(0, 7), (7, 0)]
        expected = naive_minimal(pts)
        if expected[0][0] == 0 and expected[-1][1] == 0:
            assert oracle.minimalize(pts).gens == expected
        else:
            with pytest.raises(NotArtinian):
                oracle.minimalize(pts)


class TestColength:
    @pytest.mark.parametrize(
        "gens,expected",
        [
            ([(0, 5), (2, 3), (4, 1), (5, 0)], 17),
            ([(0, 1), (1, 0)], 1),
            ([(0, 3), (1, 1), (2, 0)], 4),
        ],
    )
    def test_examples(self, gens, expected):
        s = oracle.minimalize(gens)
        assert oracle.colength(s) == expected
        assert naive_colength(list(s.gens)) == expected

    @given(staircases())
    def test_matches_point_enumeration(self, s):
        assert oracle.colength(s) == naive_colength(list(s.gens))

    @given(staircases())
    def test_transpose_invariant(self, s):
        swapped = oracle.MonomialStaircase(tuple(sorted((q, p) for p, q in s.gens)))
        assert oracle.colength(swapped) == oracle.colength(s)

    @given(staircases(), st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4))
    def test_redundant_generators_ignored(self, s, extras):
        padded = list(s.gens)
        for i, (dx, dy) in enumerate(extras):
            p, q = s.gens[i % len(s.gens)]
            padded.append((p + dx, q + dy))
        assert oracle.colength(oracle.minimalize(padded)) == oracle.colength(s)
