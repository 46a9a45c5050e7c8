"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts the criterion, including its runtime limit where one is stated.
Criterion 4 times its sweep as the CSV the criterion names, streamed by
``write_sweep_csv``; the sweep fixtures live in ``conftest.py``.
"""
import json
import math
import time

from degmult import betti, bounds, cm2, gor3, oracle, sweep
from degmult.cli import main

from bruteforce import betti_table, brute_cm2, brute_gor3


def check(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_example_reproduction():
    start = time.perf_counter()
    A = cm2.validate([2, 2, 1], [2, 2, 1])
    s = cm2.shifts(A)
    e_uv = cm2.multiplicity_from_degrees(*cm2.degrees(A))
    e_res = betti.multiplicity_and_genus(betti_table(A))[0]
    e_st = oracle.colength(cm2.witness_monomial_ideal(A))
    p24 = bounds.prop24_bound(A, e_uv, s)
    elapsed = time.perf_counter() - start
    ok = (
        (s.m1, s.M1, s.m2, s.M2) == (5, 5, 6, 7)
        and e_uv == e_res == e_st == 17
        and not p24.hyp_i
        and not p24.hyp_ii
        and p24.hyp_ii_margin == -1
        and (p24.verdict.lhs, p24.verdict.rhs) == (34, 33)
        and not p24.verdict.holds
        and elapsed < 1.0
    )
    check(
        1,
        ok,
        f"shifts (5,5,6,7), e=17 by uv/resolution/staircase, hypotheses fail "
        f"with margin -1, cleared bound 34 > 33 ({elapsed:.3f}s)",
    )


def test_criterion_2_family_of_violations():
    start = time.perf_counter()
    failures = []
    for t in range(2, 51):
        a = (2,) * (t - 1) + (1,)
        A = cm2.validate(list(a), list(a))
        s = cm2.shifts(A)
        e = cm2.multiplicity_from_degrees(*cm2.degrees(A))
        cleared_rhs = s.M1 * s.M2 - 2 * (s.M1 - s.m1) - 2 * (s.M2 - s.m2)
        if not (
            s.m1 == s.M1 == 2 * t - 1
            and s.m2 == 2 * t
            and s.M2 == 2 * t + 1
            and e == 2 * t * t - 1
            and betti.multiplicity_and_genus(betti_table(A))[0] == e
            and oracle.colength(cm2.witness_monomial_ideal(A)) == e
            and 2 * e == 4 * t * t - 2
            and cleared_rhs == 4 * t * t - 3
            and 2 * e > cleared_rhs
        ):
            failures.append(t)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    check(
        2,
        ok,
        f"t=2..50: shifts (2t-1, 2t, 2t+1), e = 2t^2-1, 4t^2-2 > 4t^2-3 exactly"
        f"{'' if not failures else f'; failed at t={failures}'} ({elapsed:.3f}s)",
    )


def test_criterion_3_srinivasan_counterexample():
    start = time.perf_counter()
    G = gor3.validate([2], [2], 5)
    s = gor3.shifts(G)
    e = gor3.multiplicity_pfaffian(G)
    summary = betti.shift_summary(betti_table(G))
    sri_lower, sri_upper, _ = bounds.srinivasan_bounds(summary, e)
    lo, up = bounds.gor3_bounds(s.m1, s.m2, s.m3, e)
    elapsed = time.perf_counter() - start
    ok = (
        e == 20
        and (sri_lower.lhs, sri_lower.rhs) == (120, 126)
        and not sri_lower.holds
        and (lo.lhs, lo.rhs) == (120, 96)
        and lo.holds
        and up.holds
        and elapsed < 1.0
    )
    check(
        3,
        ok,
        f"type (2,2,5): e=20, Srinivasan lower 120 < 126 violated, "
        f"sharper bounds 96 <= 120 and {up.lhs} <= {up.rhs} hold ({elapsed:.3f}s)",
    )


def test_criterion_4_cm2_exhaustive_sweep(cm2_sweep):
    report, elapsed, _ = cm2_sweep
    needed = {
        "multiplicity_agreement",
        "cm2_bounds", "hhs_bounds", "sharpness_purity", "extension",
    }
    ok = (
        needed <= set(report.checks)
        and report.instances_checked > 0
        and report.anomalies == ()
        and elapsed < 60.0
    )
    check(
        4,
        ok,
        f"cm2 t<=4 entries<=6: {report.instances_checked} instances, "
        f"{len(report.anomalies)} anomalies ({elapsed:.1f}s < 60s)",
    )


def test_criterion_5_gor3_exhaustive_sweep(gor3_sweep):
    report, elapsed, _ = gor3_sweep
    needed = {
        "multiplicity_agreement", "self_duality", "gor3_bounds",
        "sharpness_purity", "extension",
    }
    ok = (
        needed <= set(report.checks)
        and report.instances_checked > 0
        and report.anomalies == ()
        and elapsed < 120.0
    )
    check(
        5,
        ok,
        f"gor3 t<=3 entries<=5: {report.instances_checked} instances, "
        f"{len(report.anomalies)} anomalies ({elapsed:.1f}s < 120s)",
    )


def test_criterion_6_huneke_miller_on_pure_instances(cm2_sweep, gor3_sweep):
    bad = []
    total = 0
    for report in (cm2_sweep.report, gor3_sweep.report):
        for case in report.sharp_cases:
            total += 1
            inst = case["instance"]
            if inst["type"] == "cm2":
                table = betti_table(cm2.validate(inst["a"], inst["b"]))
            else:
                table = betti_table(gor3.validate(inst["a"], inst["b"], inst["d"]))
            summary = betti.shift_summary(table)
            p = table.projective_dimension
            if summary.m != summary.M:
                bad.append(inst)
                continue
            prod = math.prod(summary.m)
            if prod % math.factorial(p) or prod // math.factorial(p) != case["e"]:
                bad.append(inst)
                continue
            if betti.pure_multiplicity(summary) != case["e"]:
                bad.append(inst)
    ok = total > 0 and not bad
    check(
        6,
        ok,
        f"all {total} pure instances from both sweeps satisfy p!*e = prod(d_i)"
        f"{'' if not bad else f'; failures: {bad}'}",
    )


def test_criterion_7_hunt_determinism(tmp_path):
    paths = {name: tmp_path / name for name in ("j1", "j8", "c1", "c8", "p24")}
    base = ["hunt", "--target", "srinivasan_upper_gor3", "--t-max", "2", "--entry-max", "4"]
    rc = [
        main(base + ["--jobs", "1", "--format", "json", "--out", str(paths["j1"])]),
        main(base + ["--jobs", "8", "--format", "json", "--out", str(paths["j8"])]),
        main(base + ["--jobs", "1", "--format", "csv", "--out", str(paths["c1"])]),
        main(base + ["--jobs", "8", "--format", "csv", "--out", str(paths["c8"])]),
        main(
            [
                "hunt", "--target", "prop24_bound", "--t-max", "3", "--entry-max", "4",
                "--require-hypotheses", "--format", "json", "--out", str(paths["p24"]),
            ]
        ),
    ]
    json_identical = paths["j1"].read_bytes() == paths["j8"].read_bytes()
    csv_identical = paths["c1"].read_bytes() == paths["c8"].read_bytes()
    sri = json.loads(paths["j1"].read_text())
    p24 = json.loads(paths["p24"].read_text())
    ok = (
        rc == [0, 0, 0, 0, 0]
        and json_identical
        and csv_identical
        and sri["candidates"] == []
        and p24["candidates"] == []
    )
    check(
        7,
        ok,
        "srinivasan_upper_gor3 report byte-identical at jobs 1 and 8 with zero "
        "candidates; prop24_bound under hypotheses has zero candidates",
    )


def test_criterion_8_enumeration_counts():
    got_cm2 = list(sweep.enumerate_cm2(1, 2))
    got_gor3 = list(sweep.enumerate_gor3(1, 2))
    key2 = lambda m: (m.a, m.b)
    key3 = lambda g: (g.base.a, g.base.b, g.d)
    brute2 = brute_cm2(2, 3)
    brute3 = brute_gor3(2, 3)
    mine2 = list(sweep.enumerate_cm2(2, 3))
    mine3 = list(sweep.enumerate_gor3(2, 3))
    ok = (
        len(got_cm2) == 3
        and len(got_gor3) == 5
        and sorted(map(key2, mine2)) == sorted(map(key2, brute2))
        and sorted(map(key3, mine3)) == sorted(map(key3, brute3))
        and len(mine2) == len(set(map(key2, mine2)))
        and len(mine3) == len(set(map(key3, mine3)))
    )
    check(
        8,
        ok,
        f"enumerate_cm2(1,2)={len(got_cm2)}, enumerate_gor3(1,2)={len(got_gor3)}; "
        f"t<=2, entries<=3 matches generate-and-filter "
        f"({len(mine2)} cm2, {len(mine3)} gor3 instances)",
    )
