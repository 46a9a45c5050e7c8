"""Tests for enumeration, sweeping, and hunting."""
import functools
import hashlib
import io
import itertools
import json
import multiprocessing
import re
from collections import Counter

import pytest
from hypothesis import given

from degmult import betti, cli, cm2, gor3, oracle, sweep
from degmult.errors import DivisionError, InternalMismatch, UnknownTarget
from degmult.sweep import EVALUATIONS

from bruteforce import (
    appended_pairs,
    betti_table,
    brute_cm2,
    brute_gor3,
    extend_from,
    hilbert_quotient,
    quotient_values,
    sweep_row,
)
from strategies import cm2_matrices, gor3_matrices


def _prop24_closed_form(t_max, entry_max):
    """(a, b) of every matrix a = b = (k, .., k, 1), t >= 2, 2 <= k <= entry_max,
    in enumeration order: where prop24 fails in range."""
    return [([k] * (t - 1) + [1],) * 2 for t in range(2, t_max + 1)
            for k in range(2, entry_max + 1)]


class TestEnumerateCM2:
    def test_t1_entry2(self):
        got = list(sweep.enumerate_cm2(1, 2))
        assert got == [
            cm2.DegreeMatrixCM2((1,), (1,)),
            cm2.DegreeMatrixCM2((1,), (2,)),
            cm2.DegreeMatrixCM2((2,), (2,)),
        ]

    def test_t1_entry1(self):
        assert list(sweep.enumerate_cm2(1, 1)) == [cm2.DegreeMatrixCM2((1,), (1,))]

    def test_contains_mixed_matrix(self):
        assert cm2.DegreeMatrixCM2((1, 1), (2, 1)) in list(sweep.enumerate_cm2(2, 2))

    def test_matches_brute_force(self):
        got = list(sweep.enumerate_cm2(2, 3))
        expected = brute_cm2(2, 3)
        assert sorted((m.a, m.b) for m in got) == sorted((m.a, m.b) for m in expected)
        assert len(got) == len(expected)

    def test_no_duplicates_and_lex_order(self):
        got = [(len(m.a), m.a, m.b) for m in sweep.enumerate_cm2(3, 3)]
        assert len(got) == len(set(got))
        assert got == sorted(got)

    def test_zero_width_range(self):
        assert list(sweep.enumerate_cm2(3, 0)) == []


class TestEnumerateGor3:
    def test_t1_entry2(self):
        got = [(g.base.a, g.base.b, g.d) for g in sweep.enumerate_gor3(1, 2)]
        assert got == [
            ((1,), (1,), 1),
            ((1,), (1,), 2),
            ((1,), (2,), 1),
            ((1,), (2,), 2),
            ((2,), (2,), 2),
        ]

    def test_t1_entry1(self):
        assert len(list(sweep.enumerate_gor3(1, 1))) == 1

    def test_counterexample_in_range(self):
        assert gor3.validate([2], [2], 5) in list(sweep.enumerate_gor3(1, 5))

    def test_matches_brute_force(self):
        got = list(sweep.enumerate_gor3(2, 3))
        expected = brute_gor3(2, 3)
        key = lambda g: (g.base.a, g.base.b, g.d)
        assert sorted(map(key, got)) == sorted(map(key, expected))
        assert len(got) == len(expected)


def assert_resolution_matches_table(X):
    """The resolution route, the block curve's (e, g) and the shift
    summary, all read off the step lists with no rank grouped, equal the
    dense Hilbert quotient and the summary of the grouped Betti table."""
    ev = sweep.evaluate(X)
    gor = isinstance(X, gor3.DegreeMatrixGor3)
    table = betti_table(X)
    assert ev.routes["resolution"] == sum(hilbert_quotient(table))
    assert ev.summary == betti.shift_summary(table)
    block = X.base if gor else X
    curve = quotient_values(betti_table(block))
    assert betti._multiplicity_and_genus(2, *betti.signed_terms(cm2.degrees(block))) == curve
    if gor:
        assert ev.block_curve == curve


class TestResolutionFromStepLists:
    @pytest.mark.parametrize("family, t_max, entry_max", [("cm2", 3, 5), ("gor3", 2, 4)])
    def test_every_instance_in_range(self, family, t_max, entry_max):
        enum = sweep.enumerate_cm2 if family == "cm2" else sweep.enumerate_gor3
        instances = list(enum(t_max, entry_max))
        assert len(instances) > 250
        for X in instances:
            assert_resolution_matches_table(X)

    @given(cm2_matrices(max_t=40, max_entry=9))
    def test_large_cm2(self, A):
        assert_resolution_matches_table(A)

    @given(gor3_matrices(max_t=40, max_entry=9))
    def test_large_gor3(self, G):
        assert_resolution_matches_table(G)


class TestVerifyAll:
    def test_cm2_small_range_clean(self):
        report = sweep.verify_all(sweep.SweepConfig("cm2", 2, 3))
        assert report.instances_checked == len(list(sweep.enumerate_cm2(2, 3)))
        assert report.anomalies == ()
        assert report.ok

    def test_gor3_small_range_clean(self):
        report = sweep.verify_all(sweep.SweepConfig("gor3", 2, 3))
        assert report.anomalies == ()

    def test_prop24_findings_include_known_violation(self):
        report = sweep.verify_all(sweep.SweepConfig("cm2", 3, 2))
        assert report.anomalies == ()
        hits = [
            f
            for f in report.prop24_findings
            if f["instance"] == {"type": "cm2", "a": [2, 2, 1], "b": [2, 2, 1]}
        ]
        assert len(hits) == 1
        f = hits[0]
        assert not f["hyp_i"] and not f["hyp_ii"]
        assert (f["lhs"], f["rhs"]) == (34, 33)

    def test_prop24_findings_match_the_hunt(self, cm2_sweep):
        """The sweep files prop24 findings through its own code path, yet
        on acceptance 4's range (t <= 4, entries <= 6) they are the
        hunt's closed form, as TestHunt pins it for the hunt."""
        got = [(f["instance"]["a"], f["instance"]["b"]) for f in cm2_sweep.report.prop24_findings]
        assert got == _prop24_closed_form(4, 6)

    def test_zero_width_range(self):
        report = sweep.verify_all(sweep.SweepConfig("cm2", 2, 0))
        assert report.instances_checked == 0
        assert report.anomalies == ()

    def test_sharp_cases_are_pure_constant_matrices(self):
        report = sweep.verify_all(sweep.SweepConfig("cm2", 2, 2))
        insts = [c["instance"] for c in report.sharp_cases]
        assert {"type": "cm2", "a": [1], "b": [1]} in insts
        assert {"type": "cm2", "a": [2, 2], "b": [2, 2]} in insts
        for c in report.sharp_cases:
            assert c["instance"]["a"] == c["instance"]["b"]

    def test_check_subset(self):
        cfg = sweep.SweepConfig("cm2", 1, 2, checks=("multiplicity_agreement",))
        report = sweep.verify_all(cfg)
        assert report.ok and report.prop24_findings == ()

    def test_unknown_check_rejected(self):
        for check in ("self_duality", "hs_identities"):
            with pytest.raises(ValueError, match="unknown checks"):
                sweep.SweepConfig("cm2", 1, 2, checks=(check,))

    def test_parallel_report_identical(self):
        seq = sweep.verify_all(sweep.SweepConfig("cm2", 3, 3, jobs=1))
        par = sweep.verify_all(sweep.SweepConfig("cm2", 3, 3, jobs=4))
        assert json.dumps(seq.to_json_dict()) == json.dumps(par.to_json_dict())
        rows = []
        for jobs in (1, 4):
            buf = io.StringIO()
            sweep.write_sweep_csv(sweep.SweepConfig("cm2", 3, 3, jobs=jobs), buf)
            rows.append(buf.getvalue())
        assert rows[0] == rows[1]

    def test_csv_rows_one_per_instance(self, tmp_path):
        cfg = sweep.SweepConfig("gor3", 1, 3)
        out = tmp_path / "rows.csv"
        with open(out, "w") as fh:
            report = sweep.write_sweep_csv(cfg, fh)
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["family", "t", "a", "b"]
        assert len(lines) == report.instances_checked + 1


class TestHunt:
    def test_unknown_target(self):
        with pytest.raises(UnknownTarget):
            sweep.hunt("prop25_bound", sweep.SweepConfig("cm2", 1, 1))

    def test_family_mismatch(self):
        with pytest.raises(ValueError):
            sweep.hunt("prop24_bound", sweep.SweepConfig("gor3", 1, 1))

    def test_srinivasan_upper_no_candidates(self):
        report = sweep.hunt("srinivasan_upper_gor3", sweep.SweepConfig("gor3", 2, 4))
        assert report.candidates == ()
        assert report.instances_checked == len(list(sweep.enumerate_gor3(2, 4)))
        assert report.ok

    def test_srinivasan_requires_quasi_purity(self):
        """Srinivasan's upper bound is claimed only under quasi-purity, so
        --require-hypotheses drops every candidate that is not quasi-pure;
        the CSV of the 13 candidates is pinned, and the restricted one is
        its header alone."""
        config = sweep.SweepConfig("gor3", 3, 6)
        report = sweep.hunt("srinivasan_upper_gor3", config)
        assert len(report.candidates) == 13 and not report.ok
        assert not any(c["m2"] >= c["M1"] and c["m3"] >= c["M2"] for c in report.candidates)
        assert hashlib.sha256(sweep.hunt_csv(report).encode()).hexdigest() == (
            "53b12e85fff10427d895d8a501c5f13eceea0e804a070bc3c5235dce2e8751d9")
        restricted = sweep.hunt("srinivasan_upper_gor3", config, require_hypotheses=True)
        assert restricted.candidates == () and restricted.ok
        assert restricted.instances_checked == report.instances_checked
        assert sweep.hunt_csv(restricted) == ",".join(sweep.HUNT_CSV_COLUMNS) + "\n"

    def test_srinivasan_fails_at_t2(self):
        """The t = 2 failure of Srinivasan's upper bound: a = (5, 1),
        b = (14, 1), d = 5 has e = 1,148 on all three routes, and 6e =
        6,888 exceeds 6,860; it is not quasi-pure, so the hypothesis
        holds nowhere the bound fails in range."""
        G = gor3.validate([5, 1], [14, 1], 5)
        assert sweep.evaluate(G).routes == {"pfaffian": 1148, "resolution": 1148, "linkage": 1148}
        config = sweep.SweepConfig("gor3", 2, 14)
        report = sweep.hunt("srinivasan_upper_gor3", config)
        assert (report.instances_checked, len(report.candidates)) == (86_478, 100)
        hits = [c for c in report.candidates if c["instance"] == G.to_json_dict()]
        assert [(c["e"], c["lhs"], c["rhs"]) for c in hits] == [(1148, 6888, 6860)]
        restricted = sweep.hunt("srinivasan_upper_gor3", config, require_hypotheses=True)
        assert restricted.candidates == ()

    def test_prop24_restricted_no_candidates(self):
        report = sweep.hunt(
            "prop24_bound", sweep.SweepConfig("cm2", 2, 4), require_hypotheses=True
        )
        assert report.candidates == ()

    def test_prop24_unrestricted_finds_known_violation(self):
        report = sweep.hunt("prop24_bound", sweep.SweepConfig("cm2", 3, 2))
        insts = [c["instance"] for c in report.candidates]
        assert {"type": "cm2", "a": [2, 2, 1], "b": [2, 2, 1]} in insts
        hit = next(
            c for c in report.candidates
            if c["instance"]["a"] == [2, 2, 1]
        )
        assert (hit["lhs"], hit["rhs"]) == (34, 33)
        assert not report.ok

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("t_max, entry_max, instances", [(4, 6, 117_051), (5, 4, 55_286)])
    def test_prop24_fails_exactly_on_the_closed_form(self, jobs, t_max, entry_max, instances):
        """The prop24 candidates are exactly a = b = (k, .., k, 1) with
        t >= 2 and 2 <= k <= entry_max, in enumeration order, at one job
        and at two."""
        config = sweep.SweepConfig("cm2", t_max, entry_max, jobs=jobs)
        report = sweep.hunt("prop24_bound", config)
        got = [(c["instance"]["a"], c["instance"]["b"]) for c in report.candidates]
        assert got == _prop24_closed_form(t_max, entry_max)
        assert len(got) == (t_max - 1) * (entry_max - 1)
        assert report.instances_checked == instances

    def test_parallel_reports_byte_identical(self):
        cfg1 = sweep.SweepConfig("gor3", 2, 4, jobs=1)
        cfg8 = sweep.SweepConfig("gor3", 2, 4, jobs=8)
        r1 = sweep.hunt("srinivasan_upper_gor3", cfg1)
        r8 = sweep.hunt("srinivasan_upper_gor3", cfg8)
        assert json.dumps(r1.to_json_dict()) == json.dumps(r8.to_json_dict())
        assert sweep.hunt_csv(r1) == sweep.hunt_csv(r8)

    def test_csv_header_only_when_empty(self):
        report = sweep.hunt("srinivasan_upper_gor3", sweep.SweepConfig("gor3", 1, 2))
        text = sweep.hunt_csv(report)
        assert text == ",".join(sweep.HUNT_CSV_COLUMNS) + "\n"


class TestOnlyEnabledChecksCompute:
    """The resolution, staircase and linkage routes serve only the
    multiplicity_agreement check: with it disabled they never run, not
    even when the value route fails, so their failures cannot be filed
    under a check the sweep did not run."""

    ROUTES = (
        (betti, "resolution_multiplicity"), (oracle, "colength"), (gor3, "_linkage_value"),
    )

    def failing_routes(self, monkeypatch):
        calls = []

        def fail(*args):
            calls.append(args)
            raise DivisionError("route disabled by the test")

        for module, name in self.ROUTES:
            monkeypatch.setattr(module, name, fail)
        return calls

    @pytest.mark.parametrize("family, checks", [
        ("cm2", ("prop24",)),
        ("cm2", ("shift_agreement",)),
        ("gor3", ("shift_agreement",)),
        ("gor3", ("self_duality", "gor3_bounds")),
    ])
    def test_disabled_routes_never_run(self, monkeypatch, family, checks):
        calls = self.failing_routes(monkeypatch)
        config = sweep.SweepConfig(family, 2, 3, checks=checks)
        reports = [sweep.verify_all(config), sweep.write_sweep_csv(config, io.StringIO())]
        assert calls == []
        for report in reports:
            assert report.instances_checked > 0
            assert all(a.check in report.checks for a in report.anomalies)

    @pytest.mark.parametrize("family", ["cm2", "gor3"])
    def test_enabled_check_reports_route_failures(self, monkeypatch, family):
        calls = self.failing_routes(monkeypatch)
        config = sweep.SweepConfig(family, 1, 2, checks=("multiplicity_agreement",))
        report = sweep.verify_all(config)
        assert calls
        assert report.anomalies
        assert {a.check for a in report.anomalies} == {"multiplicity_agreement"}
        assert all(a.lhs.endswith(" route") for a in report.anomalies)
        # Every route after the value route is faulted, the resolution route included.
        later = list(EVALUATIONS[family].ROUTES)[1:]
        assert {a.lhs for a in report.anomalies} == {f"{name} route" for name in later}

    @pytest.mark.parametrize("target, family", sorted(sweep.HUNT_TARGETS.items()))
    def test_hunts_read_no_betti_table(self, monkeypatch, target, family):
        calls = self.failing_routes(monkeypatch)
        for module, name in ((gor3, "step_lists"), (betti, "shift_summary")):
            monkeypatch.setattr(module, name, lambda *args: calls.append(args))
        for require in (False, True):
            report = sweep.hunt(target, sweep.SweepConfig(family, 3, 3), require)
            assert report.instances_checked > 0
        assert calls == []


class FakePool:
    """Stands in for multiprocessing.Pool: records its size, starts no process."""

    def __init__(self, sizes, processes):
        sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        return map(fn, items)


class TestJobsCap:
    def fake_machine(self, monkeypatch, cores):
        sizes = []
        monkeypatch.setattr(multiprocessing, "Pool", functools.partial(FakePool, sizes))
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: cores)
        return sizes

    def test_jobs_capped_at_core_count(self, monkeypatch):
        sizes = self.fake_machine(monkeypatch, 3)
        report = sweep.verify_all(sweep.SweepConfig("cm2", 1, 2, jobs=10**6))
        hits = sweep.hunt("prop24_bound", sweep.SweepConfig("cm2", 1, 2, jobs=10**6))
        assert sizes == [3, 3]
        assert report.instances_checked == hits.instances_checked == 3

    def test_single_core_runs_in_process(self, monkeypatch):
        sizes = self.fake_machine(monkeypatch, 1)
        report = sweep.verify_all(sweep.SweepConfig("cm2", 1, 2, jobs=8))
        assert sizes == []
        assert report.instances_checked == 3

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            sweep.SweepConfig("cm2", 1, 2, jobs=0)


class TestOneSortPerBlock:
    """A sweep builds each instance's block degree lists once, for the
    u/v data, the step lists, the block curve and the extension kernel
    together."""

    @pytest.mark.parametrize("family, sorts", [("cm2", 1), ("gor3", 1)])
    def test_sorts_per_instance(self, monkeypatch, family, sorts):
        calls = []
        real = cm2.degrees
        monkeypatch.setattr(cm2, "degrees", lambda A: calls.append(A) or real(A))
        report = sweep.write_sweep_csv(sweep.SweepConfig(family, 2, 4), io.StringIO())
        assert report.ok and report.instances_checked > 0
        assert len(calls) == sorts * report.instances_checked


class TestOneSummaryPerInstance:
    """A sweep with every check on builds each instance's shift summary
    and reads its shifts off the matrix once: purity, the bounds, the
    CSV row and gor3's linkage route share them."""

    @staticmethod
    def count_calls(monkeypatch, module, name, config):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda X: calls.append(X) or real(X))
        report = sweep.write_sweep_csv(config, io.StringIO())
        assert report.ok and report.sharp_cases
        assert len(calls) == report.instances_checked

    @pytest.mark.parametrize("module, name", [(betti, "shift_summary"), (cm2, "shifts")])
    def test_once_per_instance(self, monkeypatch, module, name):
        self.count_calls(monkeypatch, module, name, sweep.SweepConfig("cm2", 3, 4))

    @pytest.mark.parametrize("module, name", [(betti, "shift_summary"), (gor3, "shifts")])
    def test_gor3_once_per_instance(self, monkeypatch, module, name):
        self.count_calls(monkeypatch, module, name, sweep.SweepConfig("gor3", 3, 4))


class TestCSVLayout:
    """Each family names the columns it fills; every row has one cell per
    column, and the columns a family does not fill are empty."""

    # The columns, or column-name prefixes, each family leaves blank.
    BLANK = {"cm2": {"d", "m3", "M3", "gor3", "srinivasan"}, "gor3": {"cm2", "prop24"}}

    @pytest.mark.parametrize("family", ["cm2", "gor3"])
    def test_one_cell_per_column(self, family):
        out = io.StringIO()
        sweep.write_sweep_csv(sweep.SweepConfig(family, 2, 3), out)
        header, *lines = out.getvalue().splitlines()
        assert header.split(",") == list(sweep.SWEEP_CSV_COLUMNS)
        assert lines
        for line in lines:
            cells = dict(zip(sweep.SWEEP_CSV_COLUMNS, line.split(","), strict=True))
            assert cells["family"] == family
            blank = {c for c in cells if {c, c.split("_")[0]} & self.BLANK[family]}
            assert all(cells[c] == "" for c in blank)
            assert all(cells[c] != "" for c in set(cells) - blank)

    @pytest.mark.parametrize("family, t_max, entry_max", [("cm2", 3, 4), ("gor3", 2, 4)])
    def test_rows_match_reference(self, family, t_max, entry_max):
        """Every row equals the reference's, rendered column by column
        from the columns' definitions."""
        out = io.StringIO()
        sweep.write_sweep_csv(sweep.SweepConfig(family, t_max, entry_max), out)
        enum = sweep.enumerate_cm2 if family == "cm2" else sweep.enumerate_gor3
        expected = [sweep_row(X) for X in enum(t_max, entry_max)]
        assert len(expected) > 250
        assert out.getvalue().splitlines(keepends=True)[1:] == expected


def appended_children(config):
    """(instance, child a, child b) of every pair the extension check appends."""
    enum = sweep.enumerate_cm2 if config.family == "cm2" else sweep.enumerate_gor3
    for inst in enum(config.t_max, config.entry_max):
        block = inst if config.family == "cm2" else inst.base
        for a, b in appended_pairs(block.b[-1], config.entry_max):
            yield inst, block.a + (a,), block.b + (b,)


def recorded_children(monkeypatch, family):
    """Wrap the family's extension kernel and the direct value it reads
    per child (``multiplicity_from_degrees`` of the child's lists, or
    ``pfaffian_formula`` of its entries), so each child is recorded as
    (base number, a, b, direct value), bases counted from 0 in the order
    the sweep calls the kernel.  Direct values read outside the kernel,
    as the gor3 value route does, are not recorded."""
    seen = []
    bases = itertools.count()
    base = []  # (base number, m1) while the kernel runs
    module = cm2 if family == "cm2" else gor3
    real_kernel = module.extension_failures

    def kernel(*args):
        lists = args[1] if family == "cm2" else args[3]
        base.append((next(bases), lists[0][0]))
        try:
            return real_kernel(*args)
        finally:
            base.pop()

    if family == "cm2":
        real = cm2.multiplicity_from_degrees

        def direct(e, f):
            value = real(e, f)
            k, m1 = base[-1]
            seen.append((k, e[0] - m1, f[0] - e[0], value))
            return value

        monkeypatch.setattr(cm2, "multiplicity_from_degrees", direct)
    else:
        real = gor3.pfaffian_formula

        def direct(a, b, d):
            value = real(a, b, d)
            if base:
                seen.append((base[-1][0], a[-1], b[-1], value))
            return value

        monkeypatch.setattr(gor3, "pfaffian_formula", direct)
    monkeypatch.setattr(module, "extension_failures", kernel)
    return seen


def extension_only(family, t_max, entry_max):
    return sweep.SweepConfig(family, t_max, entry_max, checks=("extension",))


class TestExtensionCheck:
    """The extension check runs the family's kernel once per appended
    child, from base values bound once per instance."""

    # The kernel's per-child direct value, skewed on the t = 2 children.
    CHILD_ROUTES = {
        "cm2": (
            cm2, "multiplicity_from_degrees",
            lambda real: lambda e, f: real(e, f) + (len(e) == 3),
        ),
        "gor3": (
            gor3, "pfaffian_formula",
            lambda real: lambda a, b, d: real(a, b, d) + (len(a) == 2),
        ),
    }

    @pytest.mark.parametrize("family", ["cm2", "gor3"])
    def test_one_anomaly_per_failing_child(self, monkeypatch, family):
        module, name, skew = self.CHILD_ROUTES[family]
        monkeypatch.setattr(module, name, skew(getattr(module, name)))
        config = sweep.SweepConfig(family, 1, 4, checks=("extension",))
        report = sweep.verify_all(config)
        expected = [
            (inst.to_json_dict(), f"append (a={a[-1]}, b={b[-1]})")
            for inst, a, b in appended_children(config)
        ]
        assert len(expected) > report.instances_checked > 0
        assert [(x.instance, x.lhs) for x in report.anomalies] == expected
        assert {x.check for x in report.anomalies} == {"extension"}
        assert all("multiplicity recursion fails" in x.rhs for x in report.anomalies)

    def test_gor3_divides_once_per_child_and_once_per_instance(self, monkeypatch):
        calls = []
        real = betti._quotient_at_one
        monkeypatch.setattr(
            betti, "_quotient_at_one", lambda *args: calls.append(args) or real(*args)
        )
        config = sweep.SweepConfig("gor3", 2, 4, checks=("extension",))
        report = sweep.verify_all(config)
        assert report.ok
        children = len(list(appended_children(config)))
        assert len(calls) == children + report.instances_checked

    def test_gor3_block_curve_once_per_instance(self, monkeypatch):
        """A full gor3 sweep takes one quotient per instance for the
        resolution route, one for the block curve that the linkage route
        and the extension base share, and one per appended child; the
        Huneke-Miller check takes none."""
        calls = []
        real = betti._quotient_at_one
        monkeypatch.setattr(
            betti, "_quotient_at_one", lambda *args: calls.append(args) or real(*args)
        )
        config = sweep.SweepConfig("gor3", 2, 4)
        report = sweep.verify_all(config)
        assert report.ok
        children = len(list(appended_children(config)))
        assert len(calls) == children + 2 * report.instances_checked

    def test_cm2_computes_each_child_once(self, monkeypatch):
        calls = []
        real = cm2.multiplicity_from_degrees
        monkeypatch.setattr(
            cm2, "multiplicity_from_degrees", lambda e, f: calls.append((e, f)) or real(e, f)
        )
        config = sweep.SweepConfig("cm2", 3, 4, checks=("extension",))
        report = sweep.verify_all(config)
        assert report.ok
        expected = [
            cm2.degrees(cm2.DegreeMatrixCM2(a, b)) for _, a, b in appended_children(config)
        ]
        assert [(tuple(e), tuple(f)) for e, f in calls] == expected
        assert len(expected) == sum(
            len(list(appended_pairs(A.b[-1], 4))) for A in sweep.enumerate_cm2(3, 4)
        )

    @pytest.mark.parametrize("family, t_max, entry_max", [("cm2", 3, 5), ("gor3", 2, 4)])
    def test_kernel_matches_reference(self, monkeypatch, family, t_max, entry_max):
        """Every appended child's direct value, which its recursion
        matched, is the e' of the reference that builds and re-evaluates
        the child matrix, and checks its shift deltas."""
        seen = recorded_children(monkeypatch, family)
        config = extension_only(family, t_max, entry_max)
        assert sweep.verify_all(config).ok
        enum = sweep.enumerate_cm2 if family == "cm2" else sweep.enumerate_gor3
        expected = []
        for k, inst in enumerate(enum(t_max, entry_max)):
            block = inst if family == "cm2" else inst.base
            for a, b in appended_pairs(block.b[-1], entry_max):
                expected.append((k, a, b, extend_from(inst, a, b)[2]))
        assert len(expected) > 2000
        assert seen == expected

    @pytest.mark.parametrize("family, t_max, entry_max", [("cm2", 3, 4), ("gor3", 2, 5)])
    def test_every_appended_pair_verified(self, monkeypatch, family, t_max, entry_max):
        """Coverage: the verified (instance, appended pair) checks number
        len(appended_pairs(b_t, entry_max)) per instance."""
        seen = recorded_children(monkeypatch, family)
        report = sweep.verify_all(extension_only(family, t_max, entry_max))
        assert report.ok
        enum = sweep.enumerate_cm2 if family == "cm2" else sweep.enumerate_gor3
        per_instance = [
            len(list(appended_pairs((inst if family == "cm2" else inst.base).b[-1], entry_max)))
            for inst in enum(t_max, entry_max)
        ]
        verified = Counter(k for k, *_ in seen)
        assert [verified[k] for k in range(report.instances_checked)] == per_instance
        assert len(seen) == sum(per_instance) > report.instances_checked


def _skew_child_uv(monkeypatch):
    real = cm2.multiplicity_from_degrees
    monkeypatch.setattr(cm2, "multiplicity_from_degrees", lambda e, f: real(e, f) + 1)


def _skew_child_pfaffian(monkeypatch):
    real = gor3.pfaffian_formula
    monkeypatch.setattr(gor3, "pfaffian_formula", lambda a, b, d: real(a, b, d) + 1)
    # The base's own value route keeps the true formula.
    monkeypatch.setattr(gor3, "multiplicity_pfaffian", lambda G: real(G.base.a, G.base.b, G.d))


def _skew_route(monkeypatch, family, route):
    cls = sweep.CM2Evaluation if family == "cm2" else sweep.Gor3Evaluation
    real = cls.ROUTES[route]
    monkeypatch.setitem(cls.ROUTES, route, lambda ev: real(ev) + 1)


def _skew_shift(monkeypatch, module):
    real = module.shifts
    monkeypatch.setattr(module, "shifts", lambda X: real(X)._replace(m2=real(X).m2 + 1))


def _break_uv_inequality(monkeypatch):
    real = cm2.multiplicity_from_degrees

    def broken(e, f):
        e = list(e)
        e[1] = e[2] + 1  # e_2 > e_3, so u_2 < v_2
        return real(e, f)

    monkeypatch.setattr(cm2, "multiplicity_from_degrees", broken)


def _break_extreme_identity(monkeypatch):
    real = cm2.multiplicity_from_degrees
    # u_(m-1) and v_(m-1) both grow by 1, so f_(m-1) = sum(u) + v_(m-1) fails.
    monkeypatch.setattr(
        cm2, "multiplicity_from_degrees", lambda e, f: real(e, [*f[:-1], f[-1] + 1])
    )


def _skew_genus(monkeypatch):
    real = gor3.block_curve
    monkeypatch.setattr(
        gor3, "block_curve", lambda lists: (real(lists)[0], real(lists)[1] + 1)
    )


class TestKernelFaults:
    """Each fault injected into the extension kernel's inputs or direct
    values files exactly one ``append`` anomaly per appended child."""

    FAULTS = {
        ("cm2", "direct"): (_skew_child_uv, "multiplicity recursion fails"),
        ("cm2", "recursion"): (
            lambda mp: _skew_route(mp, "cm2", "uv"), "multiplicity recursion fails"
        ),
        ("cm2", "uv_inequality"): (_break_uv_inequality, "u_i >= v_i >= 0 fails"),
        ("cm2", "extreme_identity"): (_break_extreme_identity, "extreme-degree identity fails"),
        ("gor3", "direct"): (_skew_child_pfaffian, "multiplicity recursion fails"),
        ("gor3", "recursion"): (
            lambda mp: _skew_route(mp, "gor3", "pfaffian"), "multiplicity recursion fails"
        ),
        ("gor3", "genus"): (_skew_genus, "genus recursion fails"),
    }

    @pytest.mark.parametrize("family, fault", sorted(FAULTS))
    def test_one_anomaly_per_child(self, monkeypatch, family, fault):
        inject, message = self.FAULTS[family, fault]
        inject(monkeypatch)
        config = extension_only(family, 2, 4)
        report = sweep.verify_all(config)
        expected = [
            (inst.to_json_dict(), f"append (a={a[-1]}, b={b[-1]})")
            for inst, a, b in appended_children(config)
        ]
        assert len(expected) > report.instances_checked > 0
        assert [(x.instance, x.lhs) for x in report.anomalies] == expected
        assert {x.check for x in report.anomalies} == {"extension"}
        assert all(message in x.rhs for x in report.anomalies)


# Every single shift field of each family, moved by -1 and by +1, and a
# cm2 base whose m1 and m2 move together, so m2 - m1 still matches its lists.
SHIFT_SKEWS = [
    pytest.param(family, {field: step}, id=f"{family}-{field}-{step}")
    for family, fields in (("cm2", cm2.ShiftsCM2._fields), ("gor3", gor3.ShiftsGor3._fields))
    for field in fields
    for step in (-1, 1)
] + [pytest.param("cm2", {"m1": 1, "m2": 1}, id="cm2-m1-m2-1")]


class TestBaseShiftFaults:
    """The extension check reads the degree lists alone, so a skewed base
    shift files nothing under ``extension``; shift_agreement files it,
    one shift disagreement per instance, on every instance of the range."""

    @pytest.mark.parametrize("family, skew", SHIFT_SKEWS)
    def test_one_anomaly_per_instance(self, monkeypatch, family, skew):
        module = cm2 if family == "cm2" else gor3
        real = module.shifts
        monkeypatch.setattr(
            module, "shifts",
            lambda X: real(X)._replace(**{k: getattr(real(X), k) + v for k, v in skew.items()}),
        )
        assert sweep.verify_all(extension_only(family, 2, 4)).anomalies == ()
        report = sweep.verify_all(sweep.SweepConfig(family, 2, 4))
        assert "extension" not in {x.check for x in report.anomalies}
        disagreements = [
            x.instance for x in report.anomalies
            if x.check == "shift_agreement" and x.lhs != "strictly increasing shifts"
        ]
        enum = sweep.enumerate_cm2 if family == "cm2" else sweep.enumerate_gor3
        assert disagreements == [X.to_json_dict() for X in enum(2, 4)]


def _set_shift(monkeypatch, module, name, value):
    """Patch ``module.shifts`` so that shift ``name`` reads ``value(shifts)``."""
    real = module.shifts
    monkeypatch.setattr(
        module, "shifts", lambda X: real(X)._replace(**{name: value(real(X))})
    )


def _break_uv_data(monkeypatch):
    """Raise the last syzygy degree by 1 in the lists the uv route reads,
    so e_1 = sum(v) fails."""
    real = cm2.degrees
    monkeypatch.setattr(
        cm2, "degrees", lambda A: (real(A)[0], (*real(A)[1][:-1], real(A)[1][-1] + 1))
    )


def _family_faults(family, module):
    """The faults both families share: skewed shifts, and a value route
    skewed by 1, which breaks every bound and flag that is sharp on the
    pure instances."""
    value_route = "uv" if family == "cm2" else "pfaffian"
    skew_value = functools.partial(_skew_route, family=family, route=value_route)
    return {
        (family, "shift_agreement", "m2"): (
            functools.partial(_skew_shift, module=module), [r"Shifts\w+\(.*\)"]
        ),
        (family, "shift_agreement", "m2_equals_m1"): (
            functools.partial(_set_shift, module=module, name="m2", value=lambda s: s.m1),
            ["strictly increasing shifts"],
        ),
        (family, f"{family}_bounds", "value"): (skew_value, [rf"{family}_upper: \d+"]),
        (family, "hhs_bounds", "value"): (skew_value, [r"hhs_upper: \d+"]),
        (family, "sharpness_purity", "value"): (skew_value, ["flags"]),
        (family, "huneke_miller", "value"): (skew_value, [r"\d+"]),
    }


NO_ROUTE = "route failed on purpose"


def _fail_route(ev):
    raise InternalMismatch(NO_ROUTE)


def _fail_every_route(monkeypatch, family):
    for name in EVALUATIONS[family].ROUTES:
        monkeypatch.setitem(EVALUATIONS[family].ROUTES, name, _fail_route)


def _from_e(columns):
    """e and every column computed from it."""
    return {"e", "prop24_holds"} | {c for c in columns if c.endswith(("_holds", "_sharp"))
                                    and not c.startswith("prop24")}


def _from_summary(columns):
    """The columns read off the shift summary: purity and the HHS bounds."""
    return {"pure", "quasi_pure"} | {c for c in columns if c.startswith("hhs_")}


def _assert_blank(text, expected, blank):
    """The CSV ``text`` leaves empty every cell of the columns that
    ``blank`` picks from its header, and fills the rest as the
    ``expected`` rows do."""
    header, *lines = text.splitlines()
    columns = header.split(",")
    empty = blank(columns)
    assert len(lines) == len(expected) > 0
    for line, want in zip(lines, expected):
        got = dict(zip(columns, line.split(","), strict=True))
        assert all(got[c] == "" for c in empty)
        assert all(got[c] == cell for c, cell in zip(columns, want) if c not in empty)


class TestCheckFaults:
    """Each fault, swept under ``checks=(name,)``, files anomalies under
    that check only, and among them every listed ``lhs`` pattern."""

    FAULTS = {
        ("cm2", "multiplicity_agreement", "route"): (
            lambda mp: _skew_route(mp, "cm2", "resolution"), [r"uv=\d+"]
        ),
        ("gor3", "multiplicity_agreement", "route"): (
            lambda mp: _skew_route(mp, "gor3", "linkage"), [r"pfaffian=\d+"]
        ),
        ("cm2", "multiplicity_agreement", "uv_data"): (_break_uv_data, ["uv route"]),
        ("gor3", "shift_agreement", "m3"): (
            lambda mp: _set_shift(mp, gor3, "m3", lambda s: s.m3 + 1), [r"ShiftsGor3\(.*\)"]
        ),
        ("gor3", "self_duality", "m3_zero"): (
            lambda mp: _set_shift(mp, gor3, "m3", lambda s: 0),
            [re.escape("step-1 shifts inside (0, m3)")],
        ),
        **_family_faults("cm2", cm2),
        **_family_faults("gor3", gor3),
    }

    @pytest.mark.parametrize("family, check, fault", sorted(FAULTS))
    def test_files_under_its_check_only(self, monkeypatch, family, check, fault):
        inject, patterns = self.FAULTS[family, check, fault]
        inject(monkeypatch)
        report = sweep.verify_all(sweep.SweepConfig(family, 2, 4, checks=(check,)))
        assert report.instances_checked > 0
        assert {x.check for x in report.anomalies} == {check}
        for pattern in patterns:
            assert any(re.fullmatch(pattern, x.lhs) for x in report.anomalies), pattern

    def test_uv_failure_filed_once(self, monkeypatch):
        """Under the default checks a failing u/v fact is filed once per
        instance, as the failed uv route of multiplicity_agreement."""
        _break_uv_data(monkeypatch)
        report = sweep.verify_all(sweep.SweepConfig("cm2", 2, 4))
        failures = [
            (A.to_json_dict(), sweep.evaluate(A).routes["uv"]) for A in sweep.enumerate_cm2(2, 4)
        ]
        assert report.instances_checked == len(failures) > 0
        for inst, exc in failures:
            assert isinstance(exc, InternalMismatch)
            filed = [(x.check, x.lhs) for x in report.anomalies
                     if x.instance == inst and x.rhs == str(exc)]
            assert filed == [("multiplicity_agreement", "uv route")]

    @pytest.mark.parametrize("checks", [None, ("extension", "cm2_bounds", "shift_agreement")])
    def test_anomalies_follow_the_checks_order(self, monkeypatch, checks):
        """Checks run in the order the config names them, by default the
        report's, so checks failing on one instance file in that order."""
        _skew_shift(monkeypatch, cm2)
        _skew_child_uv(monkeypatch)
        report = sweep.verify_all(sweep.SweepConfig("cm2", 2, 4, checks=checks))
        orders = [
            [report.checks.index(x.check) for x in group]
            for _, group in itertools.groupby(report.anomalies, key=lambda x: x.instance)
        ]
        both = {report.checks.index("extension"), report.checks.index("shift_agreement")}
        assert any(both <= set(order) for order in orders)
        assert all(order == sorted(order) for order in orders)

    @pytest.mark.parametrize("family, checks", [
        ("cm2", None), ("cm2", ("multiplicity_agreement",)), ("cm2", ("hhs_bounds", "prop24")),
        ("gor3", None),
    ])
    def test_no_value_sweep_json(self, monkeypatch, capsys, family, checks):
        """An instance on which every route fails files each failed route
        that ran (only the value route with multiplicity_agreement off)
        under multiplicity_agreement, and gives no sharp case and no
        finding; the sweep's JSON report comes back with exit 1."""
        _fail_every_route(monkeypatch, family)
        argv = ["sweep", f"--{family}", "--t-max", "1", "--entry-max", "2", "--format", "json"]
        code = cli.main(argv + ([] if checks is None else ["--checks", ",".join(checks)]))
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        report = json.loads(out)
        routes = list(EVALUATIONS[family].ROUTES)
        if checks is not None and "multiplicity_agreement" not in checks:
            routes = routes[:1]
        enum = sweep.enumerate_cm2 if family == "cm2" else sweep.enumerate_gor3
        assert [(a["instance"], a["check"], a["lhs"], a["rhs"]) for a in report["anomalies"]] == [
            (X.to_json_dict(), "multiplicity_agreement", f"{name} route", NO_ROUTE)
            for X in enum(1, 2) for name in routes
        ]
        assert report["sharp_cases"] == report["prop24_findings"] == []

    @pytest.mark.parametrize("family", ["cm2", "gor3"])
    def test_no_value_sweep_csv(self, monkeypatch, capsys, family):
        """The row of an instance with no value leaves e and every cell
        computed from it empty, and fills the rest as usual."""
        enum = sweep.enumerate_cm2 if family == "cm2" else sweep.enumerate_gor3
        expected = [sweep_row(X).rstrip("\n").split(",") for X in enum(2, 3)]
        _fail_every_route(monkeypatch, family)
        argv = ["sweep", f"--{family}", "--t-max", "2", "--entry-max", "3", "--format", "csv"]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        _assert_blank(out, expected, _from_e)

    @pytest.mark.parametrize("checks, filed", [
        (("multiplicity_agreement",), [("multiplicity_agreement", "linkage route")]),
        (("extension",), [("extension", "kernel inputs")]),
        (None, [("multiplicity_agreement", "linkage route"), ("extension", "kernel inputs")]),
    ])
    def test_block_curve_failure_filed(self, monkeypatch, checks, filed):
        """A block curve that cannot be formed fails the linkage route and
        the extension check, each filed on every instance, and the sweep
        still comes back."""
        def fail(lists):
            raise DivisionError("block curve failed on purpose")

        monkeypatch.setattr(gor3, "block_curve", fail)
        report = sweep.verify_all(sweep.SweepConfig("gor3", 1, 2, checks=checks))
        instances = [G.to_json_dict() for G in sweep.enumerate_gor3(1, 2)]
        assert report.instances_checked == len(instances) > 0
        assert [(x.instance, x.check, x.lhs, x.rhs) for x in report.anomalies] == [
            (inst, check, lhs, "block curve failed on purpose")
            for inst in instances for check, lhs in filed
        ]

    @pytest.mark.parametrize("checks", [None, ("hhs_bounds",)])
    def test_step_list_failure_filed(self, monkeypatch, capsys, checks):
        """gor3 step lists that cannot be formed fail the resolution route,
        run or not: every instance is filed under multiplicity_agreement,
        the range finishes with exit 1, and the CSV leaves blank only the
        cells read off the missing summary (purity and the HHS bounds)."""
        instances = list(sweep.enumerate_gor3(2, 3))
        expected = [sweep_row(G).rstrip("\n").split(",") for G in instances]

        def fail(*args):
            raise DivisionError("planted")

        monkeypatch.setattr(gor3, "step_lists", fail)
        argv = ["sweep", "--gor3", "--t-max", "2", "--entry-max", "3"]
        argv += [] if checks is None else ["--checks", ",".join(checks)]
        assert cli.main([*argv, "--format", "json"]) == 1
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert err == "" and report["instances_checked"] == len(instances)
        assert [(a["instance"], a["check"], a["lhs"], a["rhs"]) for a in report["anomalies"]] == [
            (G.to_json_dict(), "multiplicity_agreement", "resolution route", "planted")
            for G in instances
        ]
        assert report["sharp_cases"] == []
        assert cli.main([*argv, "--format", "csv"]) == 1
        _assert_blank(capsys.readouterr().out, expected, _from_summary)

    @pytest.mark.parametrize("family, route, checks", [
        ("cm2", "uv", ("hhs_bounds", "extension", "prop24")),
        ("gor3", "pfaffian", ("hhs_bounds", "extension", "gor3_bounds")),
    ])
    def test_failed_value_route_filed_with_agreement_off(self, monkeypatch, family, route, checks):
        """A value route that fails is filed under multiplicity_agreement
        although that check is off: the instance has no value, so the
        bounds and the extension check, which read it, skip the
        instance, and nothing else would say so."""
        monkeypatch.setitem(EVALUATIONS[family].ROUTES, route, _fail_route)
        report = sweep.verify_all(sweep.SweepConfig(family, 2, 3, checks=checks))
        enum = sweep.enumerate_cm2 if family == "cm2" else sweep.enumerate_gor3
        assert not report.ok
        assert [(a.instance, a.check, a.lhs, a.rhs) for a in report.anomalies] == [
            (X.to_json_dict(), "multiplicity_agreement", f"{route} route", NO_ROUTE)
            for X in enum(2, 3)
        ]

    @pytest.mark.parametrize("family", ["cm2", "gor3"])
    def test_failed_value_route_runs_no_later_route(self, monkeypatch, family):
        """With multiplicity_agreement off, no later route stands in for a
        failed value route: none runs, only the value route is filed, and
        e and every cell computed from it are blank."""
        enum = sweep.enumerate_cm2 if family == "cm2" else sweep.enumerate_gor3
        expected = [sweep_row(X).rstrip("\n").split(",") for X in enum(2, 3)]
        cls = EVALUATIONS[family]
        routes = cls.ROUTES
        value_route, *later = routes
        calls = []
        for name in later:
            monkeypatch.setitem(routes, name, lambda ev, route=routes[name]: calls.append(ev) or route(ev))
        monkeypatch.setitem(routes, value_route, _fail_route)
        checks = tuple(c for c in cls.CHECKS + cls.FINDINGS if c != "multiplicity_agreement")
        stream = io.StringIO()
        report = sweep.write_sweep_csv(sweep.SweepConfig(family, 2, 3, checks=checks), stream)
        assert calls == []
        assert [(a.instance, a.check, a.lhs, a.rhs) for a in report.anomalies] == [
            (X.to_json_dict(), "multiplicity_agreement", f"{value_route} route", NO_ROUTE)
            for X in enum(2, 3)
        ]
        assert report.sharp_cases == report.prop24_findings == ()
        _assert_blank(stream.getvalue(), expected, _from_e)

    def test_no_value_hunt_cli(self, monkeypatch, capsys):
        """A hunt files no anomalies: with no value it stops with exit 1
        and one anomaly line naming the value route, no traceback."""
        _fail_every_route(monkeypatch, "cm2")
        code = cli.main(["hunt", "--target", "prop24_bound", "--t-max", "1", "--entry-max", "2"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", f"anomaly: uv route: {NO_ROUTE}\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("target", sorted(sweep.HUNT_TARGETS))
    def test_failed_value_route_hunt_cli(self, monkeypatch, capsys, target, jobs):
        """A hunt whose value route alone fails reads no later route in its
        place: it stops with exit 1 and one anomaly line, at one job and
        at two."""
        routes = EVALUATIONS[sweep.HUNT_TARGETS[target]].ROUTES
        value_route = next(iter(routes))
        monkeypatch.setitem(routes, value_route, _fail_route)
        code = cli.main(["hunt", "--target", target, "--t-max", "3", "--entry-max", "3",
                         "--require-hypotheses", "--jobs", jobs])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", f"anomaly: {value_route} route: {NO_ROUTE}\n")

    def test_every_check_but_extension_faulted(self):
        faulted = {(family, check) for family, check, _ in self.FAULTS}
        every = {
            (ev.family, check)
            for ev in (sweep.CM2Evaluation, sweep.Gor3Evaluation)
            for check in ev.CHECKS
            if check != "extension"
        }
        assert faulted == every


def test_duplicate_check_rejected():
    with pytest.raises(ValueError, match="more than once"):
        sweep.SweepConfig("gor3", 1, 2, checks=("extension", "self_duality", "extension"))
