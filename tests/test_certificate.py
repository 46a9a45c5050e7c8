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

The extension kernels are certified the same way, on the lattice in the
base's entries and the appended (a, b): both sides of the cm2
recursion e' = e + (m1 + a) b have degree 2, and both sides of gor3's
multiplicity and genus recursions degree 3.  With the appended pair's
corner at (1, k + 1), every lattice point is a base with a valid child.

The degree bound is a property of the code, which a later data-dependent
branch would break silently.  So it is audited as well: the
(k+1)-th forward difference of every route, and of both sides of each
recursion, vanishes along seeded lines through matrices whose entries
are near 10^6.
"""
import math
import random
from itertools import combinations_with_replacement

import pytest

from degmult import betti, bounds, cm2, gor3, sweep

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


def sharper_cm2_gaps(A):
    """The evaluation of the cm2 matrix A, its u/v data read off the
    degree lists, and ({gap: (value, closed form)} of both sharper cm2
    bounds, each closed form as the ``bounds.cm2_sides`` docstring
    writes it, 0-based)."""
    ev = sweep.evaluate(A)
    gens, syz = ev.degrees
    u = [f - e for f, e in zip(syz, gens)]
    v = [f - e for f, e in zip(syz, gens[1:])]
    m1, m2, M1, M2 = ev.shifts
    spread = (M2 - m2) + (M1 - m1)
    t = len(u)
    lower = sum(sum(v[i:t - 1]) * (u[i] - v[i]) + sum(v[i + 1:t - 1]) * (u[i + 1] - v[i])
                for i in range(t - 1))
    upper = sum(sum(u[1:j + 1]) * (u[j] - v[j]) + sum(u[1:j]) * (u[j] - v[j - 1])
                for j in range(1, t))
    return ev, u, v, {
        "lower": (2 * ev.e - m1 * m2 - (M2 - M1) * spread, lower),
        "upper": (M1 * M2 - (m2 - m1) * spread - 2 * ev.e, upper),
    }


class TestSharperCM2Gaps:
    """Both gaps of the sharper cm2 bounds, and their closed forms, have
    degree 2 in the entries, so agreeing on the lattice they agree on
    every valid matrix of that t."""

    @pytest.mark.parametrize("t", range(1, 13))
    def test_identities_hold_on_the_lattice(self, t):
        n = 0
        for p in lattice(corner("cm2", t), 2):
            n += 1
            gaps = sharper_cm2_gaps(FAMILIES["cm2"][2](t, p))[3]
            assert all(value == closed for value, closed in gaps.values()), (p, gaps)
        assert n == math.comb(2 * t + 2, 2)

    def test_equality_cases(self):
        """A bound is attained iff its gap's difference factors all
        vanish: lower iff u_1 = v_1 = .. = u_(t-1) = v_(t-1), upper iff
        u_2 = v_2 = .. = u_t = v_t, which ``bounds.cm2_equality_cases``
        reads off the entries."""
        sharp = {"lower": 0, "upper": 0}
        instances = 0
        for A in sweep.enumerate_cm2(3, 5):
            instances += 1
            ev, u, v, _ = sharper_cm2_gaps(A)
            _, lower, _, upper = bounds.flags(*bounds.cm2_sides(*ev.shifts, ev.e))
            t = len(u)
            assert lower == (len({*u[:t - 1], *v[:t - 1]}) <= 1), A
            assert upper == (len({*u[1:], *v[1:]}) <= 1), A
            assert bounds.cm2_equality_cases(A.a, A.b) == (lower, upper), A
            sharp["lower"] += lower
            sharp["upper"] += upper
        assert 0 < min(sharp.values()) and max(sharp.values()) < instances


def kernel_sides(family, t, p):
    """The family's extension kernel on the base of point p, whose last
    two coordinates are the appended (a, b), run over the pairs
    a' <= a, b' <= b, so that the last child it checks is (a, b):
    (its failures, {side: value} of both sides of that child's
    recursions, each direct side as the kernel computed it)."""
    X = FAMILIES[family][2](t, p[:-2])
    a, b = p[-2:]
    lists = cm2.degrees(X if family == "cm2" else X.base)
    m1 = lists[0][0]
    sides = {}
    with pytest.MonkeyPatch.context() as mp:
        if family == "cm2":
            e = cm2.multiplicity_from_degrees(*lists)
            record(mp, sides, cm2, "multiplicity_from_degrees", "direct e'")
            failures = cm2.extension_failures(e, lists, a, b)
            sides["recursion e'"] = e + (m1 + a) * b
        else:
            e, (e_j, g) = gor3.multiplicity_pfaffian(X), gor3.block_curve(lists)
            record(mp, sides, gor3, "pfaffian_formula", "direct e'")
            record(mp, sides, betti, "_multiplicity_and_genus", "direct 2g'", lambda v: 2 * v[1])
            failures = gor3.extension_failures(X, e, (e_j, g), lists, a, b)
            sides["recursion e'"] = e + b * (m1 + a) * (gor3.shifts(X).M2 + b - a)
            sides["recursion 2g'"] = 2 * g + b * (m1 + a) * (m1 + a + b - 4) + 2 * b * e_j
    return failures, sides


def record(mp, sides, module, name, side, read=lambda value: value):
    """Patch ``module.name`` through ``mp`` so that each call stores
    ``read`` of its value as ``sides[side]``."""
    real = getattr(module, name)

    def recorded(*args):
        value = real(*args)
        sides[side] = read(value)
        return value

    mp.setattr(module, name, recorded)


def extension_corner(family, t):
    """The base's corner, then the appended pair's (a, b) = (1, k + 1):
    a <= 1 + k <= b_t and a <= b at every lattice point."""
    return corner(family, t) + [1, FAMILIES[family][0] + 1]


def extension_disagreements(family, t):
    """(number of lattice points, number of them where the kernel files
    a failure)."""
    k = FAMILIES[family][0]
    n = bad = 0
    for p in lattice(extension_corner(family, t), k):
        n += 1
        failures, sides = kernel_sides(family, t, p)
        if failures:
            bad += 1
        else:
            assert all(sides[f"direct {x}"] == sides[f"recursion {x}"] for x in RECURSIONS[family])
    return n, bad


# family: the values whose recursion the extension kernel checks
RECURSIONS = {"cm2": ("e'",), "gor3": ("e'", "2g'")}
# family: largest t whose extension recursions are certified
EXTENSION_T_MAX = {"cm2": 15, "gor3": 8}
EXTENSION_CASES = [(f, t) for f, t_max in EXTENSION_T_MAX.items() for t in range(1, t_max + 1)]


class TestExtensionCertificate:
    @pytest.mark.parametrize("family, t", EXTENSION_CASES)
    def test_recursions_hold_on_the_lattice(self, family, t):
        n, bad = extension_disagreements(family, t)
        k = FAMILIES[family][0]
        assert n == math.comb(len(extension_corner(family, t)) + k, k)
        assert bad == 0

    def test_a_cubic_child_fault_silent_at_small_entries_is_caught(self, monkeypatch):
        """(a - 1)(a - 2)(a - 3) added to each child's Pfaffian value, a
        the appended entry, vanishes on every child the sweeps at entries
        <= 3 append; each t's lattice reaches a = 4 at one point."""
        real = gor3.pfaffian_formula
        monkeypatch.setattr(
            gor3, "pfaffian_formula",
            lambda a, b, d: real(a, b, d) + (a[-1] - 1) * (a[-1] - 2) * (a[-1] - 3),
        )
        # The base's own value keeps the true formula.
        monkeypatch.setattr(gor3, "multiplicity_pfaffian", lambda G: real(G.base.a, G.base.b, G.d))
        report = sweep.verify_all(sweep.SweepConfig("gor3", 3, 3, ("extension",)))
        assert report.ok and report.instances_checked > 0
        for t in (1, 2, 3):
            assert extension_disagreements("gor3", t)[1] == 1


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

    @pytest.mark.parametrize("family, t", [("cm2", 1), ("cm2", 6), ("gor3", 1), ("gor3", 4)])
    def test_difference_above_the_degree_vanishes_on_the_recursions(self, family, t):
        """The same audit of both sides of each extension recursion, along
        lines that also move the appended (a, b): a by at most 3 a step
        from 13..15, b by at least 3 from at least a.  The kernel checks
        every pair up to (a, b), so the appended pair stays small."""
        k = FAMILIES[family][0]
        rng = random.Random(f"extension-{family}-{t}")
        top_nonzero = set()
        for _ in range(6):
            base, step = seeded_line(rng, family, t)
            a = rng.randint(13, 15)
            base += [a, a + rng.randrange(8)]
            step += [rng.randint(-3, 3), rng.randint(3, 9)]
            points = [[x + s * dx for x, dx in zip(base, step)] for s in range(k + 2)]
            along = [kernel_sides(family, t, p) for p in points]
            assert all(failures == [] for failures, _ in along)
            for name in along[0][1]:
                values = [sides[name] for _, sides in along]
                assert forward_difference(values) == 0, (family, t, name, base, step)
                if forward_difference(values[:-1]):
                    top_nonzero.add(name)
        assert top_nonzero == set(along[0][1]) and len(top_nonzero) == 2 * len(RECURSIONS[family])
