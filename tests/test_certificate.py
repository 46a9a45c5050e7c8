"""The multiplicity routes agree on every valid matrix of each t, certified
on a finite lattice.

At a fixed t every route is straight-line integer arithmetic on linear
forms of the matrix entries, and its only branches raise.  So on the
valid matrices of that t each route is a polynomial: of total degree at
most 2 in the 2t entries for cm2, and at most 3 in the 2t + 1 entries
for gor3 (each route's docstring states its degree).  A polynomial of
total degree <= k in n variables is fixed by its values on the
principal lattice {p0 + x : x in N^n, sum(x) <= k}, which has
C(n + k, k) points (Chung and Yao, SIAM J. Numer. Anal. 1977).  With
p0 = (a = 1..1, b = k+1..k+1, d = k+1) every lattice point is a valid
matrix, so routes that agree on the lattice agree on every valid matrix
of that t, whatever its entries.

The degree bound is a property of the code, which a later data-dependent
branch would break silently.  So it is audited as well: the
(k+1)-th forward difference of every route vanishes along seeded lines
through matrices whose entries are near 10^6.
"""
import math
import random
from itertools import combinations_with_replacement

import pytest

from degmult import cm2, gor3, sweep

# family: (degree k of every route, largest t certified, matrix of a point)
FAMILIES = {
    "cm2": (2, 20, lambda t, p: cm2.validate(p[:t], p[t:])),
    "gor3": (3, 10, lambda t, p: gor3.validate(p[:t], p[t:2 * t], p[2 * t])),
}


def corner(family, t):
    """p0: a = 1..1, then b and (for gor3) d all k + 1, above every a the
    lattice reaches, so each point is a valid matrix."""
    k = FAMILIES[family][0]
    n = 2 * t + (family == "gor3")
    return [1] * t + [k + 1] * (n - t)


def lattice(p0, k):
    """Every point p0 + x with x >= 0 and sum(x) <= k, each once."""
    for size in range(k + 1):
        for raised in combinations_with_replacement(range(len(p0)), size):
            p = list(p0)
            for i in raised:
                p[i] += 1
            yield p


def route_values(family, t, p):
    """{route: value} of the matrix at point p; every route must give an
    integer."""
    X = FAMILIES[family][2](t, p)
    routes = sweep.evaluate(X).routes
    assert all(type(v) is int for v in routes.values()), (X, routes)
    return routes


def disagreements(family, t):
    """(number of lattice points, number of them whose routes disagree)."""
    k = FAMILIES[family][0]
    n = bad = 0
    for p in lattice(corner(family, t), k):
        n += 1
        if len(set(route_values(family, t, p).values())) != 1:
            bad += 1
    return n, bad


CASES = [(f, t) for f, (_, t_max, _) in FAMILIES.items() for t in range(1, t_max + 1)]


class TestLatticeCertificate:
    @pytest.mark.parametrize("family, t", CASES)
    def test_routes_agree_on_the_lattice(self, family, t):
        n, bad = disagreements(family, t)
        k = FAMILIES[family][0]
        assert n == math.comb(len(corner(family, t)) + k, k)
        assert bad == 0

    def test_a_cubic_fault_silent_at_small_entries_is_caught(self, monkeypatch):
        """(a_1 - 1)(a_1 - 2)(a_1 - 3) added to the Pfaffian formula vanishes
        on every matrix with a_1 <= 3, which the sweeps at entries <= 3
        never leave; the t = 3 lattice reaches a_1 = 4."""
        real = gor3.pfaffian_formula

        def faulty(a, b, d):
            return real(a, b, d) + (a[0] - 1) * (a[0] - 2) * (a[0] - 3)

        monkeypatch.setattr(gor3, "pfaffian_formula", faulty)
        report = sweep.verify_all(sweep.SweepConfig("gor3", 3, 3, ("multiplicity_agreement",)))
        assert report.ok and report.instances_checked > 0
        _, bad = disagreements("gor3", 3)
        assert bad == 1


def forward_difference(values):
    """The len(values) - 1 -th forward difference of equally spaced values."""
    m = len(values) - 1
    return sum((-1) ** (m - j) * math.comb(m, j) * v for j, v in enumerate(values))


def seeded_line(rng, family, t):
    """(base point, direction) of a line of valid matrices with entries
    near 10^6: b and d grow by at least 3 a step, a by at most 3, so
    b_i >= a_i, b_i >= a_(i+1) and d >= a_1 hold all along it."""
    a = [10**6 + rng.randrange(1000) for _ in range(t)]
    b = [max(a[i:i + 2]) + rng.randrange(1000) for i in range(t)]
    base, step = a + b, [rng.randint(-3, 3) for _ in a] + [rng.randint(3, 9) for _ in b]
    if family == "gor3":
        base.append(a[0] + rng.randrange(1000))
        step.append(rng.randint(3, 9))
    return base, step


class TestDegreePremise:
    """Along each line the (k+1)-th forward difference of every route is
    0, and the k-th is not 0 on some line: k is the least degree."""

    @pytest.mark.parametrize("family, t", [
        ("cm2", 1), ("cm2", 2), ("cm2", 5), ("cm2", 12),
        ("gor3", 1), ("gor3", 2), ("gor3", 4), ("gor3", 8),
    ])
    def test_difference_above_the_degree_vanishes(self, family, t):
        k = FAMILIES[family][0]
        rng = random.Random(f"{family}-{t}")
        top_nonzero = set()
        for _ in range(6):
            base, step = seeded_line(rng, family, t)
            points = [[x + s * dx for x, dx in zip(base, step)] for s in range(k + 2)]
            along = [route_values(family, t, p) for p in points]
            for name in along[0]:
                values = [routes[name] for routes in along]
                assert forward_difference(values) == 0, (family, t, name, base, step)
                if forward_difference(values[:-1]):
                    top_nonzero.add(name)
        assert top_nonzero == set(along[0])
