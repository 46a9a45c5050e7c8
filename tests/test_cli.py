"""Tests for the command-line interface: parsing, formats, exit codes."""
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import degmult
from degmult import betti, cli, gor3, sweep
from degmult.cli import main
from degmult.errors import DivisionError, as_int_tuple


# The environment of a child interpreter that imports this degmult.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(degmult.__file__)))


class Subint(int):
    """An int subclass, which the loaders refuse as they refuse bool."""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_example_matrix_text(self, capsys):
        code, out, _ = run(capsys, "compute", "--cm2", "--a", "2,2,1", "--b", "2,2,1")
        assert code == 0
        assert "m1: 5" in out and "m2: 6" in out
        assert "M1: 5" in out and "M2: 7" in out
        assert "multiplicity: 17" in out
        assert "prop24_upper: 2*e = 34 <= 33  holds=false" in out
        assert "margin a1-2d+1 = -1" in out

    def test_trivial_gor3(self, capsys):
        code, out, _ = run(capsys, "compute", "--gor3", "--a", "1", "--b", "1", "--d", "1")
        assert code == 0
        assert "multiplicity: 1" in out
        assert "pure: true" in out
        assert "hhs_lower: 6*e = 6 >= 6  holds=true sharp=true" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--cm2", "--a", "1,1", "--b", "2,1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["instance"] == {"type": "cm2", "a": [1, 1], "b": [2, 1]}
        assert doc["multiplicity"] == {
            "value": 4, "uv": 4, "resolution": 4, "staircase": 4, "agree": True,
        }
        assert doc["shifts"] == {"m1": 2, "m2": 3, "M1": 3, "M2": 4}

    def test_betti_table_input(self, capsys, tmp_path):
        doc = {"codim": 2, "steps": [[[2, 1], [3, 1]], [[5, 1]]]}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "compute", "--in", str(path))
        assert code == 0
        assert "k_polynomial: 1 - s^2 - s^3 + s^5" in out
        assert "multiplicity: 6" in out

    def test_huneke_miller_field(self, capsys, tmp_path):
        """A pure table of codim = p prints the Huneke-Miller value and the
        bounds; a pure table of lower codim prints neither."""
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"codim": 2, "steps": [[[2, 2]], [[4, 1]]]}))
        code, out, _ = run(capsys, "compute", "--in", str(path))
        assert code == 0
        assert "huneke_miller: 4" in out.splitlines()
        assert "hhs_lower: 2*e = 8 >= 8  holds=true sharp=true" in out
        code, out, _ = run(capsys, "compute", "--in", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["huneke_miller"] == 4
        assert hashlib.sha256(out.encode()).hexdigest().startswith("e88b5c9269e9ff73")
        # R/(x^2, xy): pure, codim 1 < p = 2, e = 1.
        path.write_text(json.dumps({"codim": 1, "steps": [[[2, 2]], [[3, 1]]]}))
        code, out, _ = run(capsys, "compute", "--in", str(path))
        assert code == 0
        assert "multiplicity: 1" in out.splitlines()
        assert "pure: true" in out
        assert "huneke_miller" not in out and "hhs_" not in out
        code, out, _ = run(capsys, "compute", "--in", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pure"] and "huneke_miller" not in doc and "bounds" not in doc

    def test_betti_table_size_cap(self, capsys, tmp_path, monkeypatch):
        # K = 1 - s^n has n + 1 coefficients.
        monkeypatch.setattr(cli, "K_COEFFS_MAX", 5)
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"codim": 1, "steps": [[[4, 1]]]}))
        code, out, _ = run(capsys, "compute", "--in", str(path))
        assert code == 0 and "multiplicity: 4" in out
        path.write_text(json.dumps({"codim": 1, "steps": [[[5, 1]]]}))
        code, out, err = run(capsys, "compute", "--in", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: Betti table's K-polynomial would have 6 coefficients; "
            "compute prints at most 5\n"
        )

    def test_staircase_input(self, capsys, tmp_path):
        doc = {"type": "monomial2", "gens": [[0, 5], [2, 3], [4, 1], [5, 0]]}
        path = tmp_path / "stairs.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "compute", "--in", str(path))
        assert code == 0
        assert "colength: 17" in out

    def test_inconsistent_betti_input_exits_2(self, capsys, tmp_path):
        doc = {"codim": 2, "steps": [[[2, 1]], [[5, 1]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "compute", "--in", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("steps, q1", [
        ([[[1, 2]], [[2, 1]]], 0),  # K = (1-s)^2
        ([[[1, 2]], [[3, 1]]], -1),  # K = (1-s)(1 - s - s^2)
    ], ids=["q1_zero", "q1_negative"])
    def test_nonpositive_multiplicity_exits_2(self, capsys, tmp_path, steps, q1):
        """(1-s)^c divides K, but Q(1) <= 0: no quotient of codimension c
        has this table, so no multiplicity is printed."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"codim": 1, "steps": steps}))
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "compute", "--in", str(path), "--format", fmt)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and f"Q(1) = {q1} <= 0" in err
            assert len(err.splitlines()) == 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = run(
            capsys, "compute", "--cm2", "--a", "1", "--b", "1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert "multiplicity: 1" in target.read_text()


class TestRouteFault:
    """A route that fails on a valid matrix is an anomaly, not bad input:
    compute and oracle-check exit 1 with one anomaly line naming it."""

    MATRICES = {
        "cm2": ("--cm2", "--a", "2,1", "--b", "2,1"),
        "gor3": ("--gor3", "--a", "1", "--b", "1", "--d", "1"),
    }

    @pytest.mark.parametrize("family", sorted(MATRICES))
    @pytest.mark.parametrize("verb", ["compute", "oracle-check"])
    def test_failed_route_exits_1(self, capsys, monkeypatch, verb, family):
        def fail(*args):
            raise DivisionError("route failed on purpose")

        monkeypatch.setattr(betti, "resolution_multiplicity", fail)
        for fmt in ("text", "json"):
            code, out, err = run(capsys, verb, *self.MATRICES[family], "--format", fmt)
            assert (code, out) == (1, "")
            assert err == "anomaly: resolution route: route failed on purpose\n"

    @pytest.mark.parametrize("verb", ["compute", "oracle-check"])
    def test_failed_step_lists_exit_1(self, capsys, monkeypatch, verb):
        """gor3 step lists that cannot be formed fail the resolution route,
        which the table tier reads as well: still one anomaly line."""
        def fail(*args):
            raise DivisionError("planted")

        monkeypatch.setattr(gor3, "step_lists", fail)
        for fmt in ("text", "json"):
            code, out, err = run(capsys, verb, *self.MATRICES["gor3"], "--format", fmt)
            assert (code, out, err) == (1, "", "anomaly: resolution route: planted\n")


class TestValidate:
    def test_valid_text(self, capsys):
        code, out, _ = run(capsys, "validate", "--cm2", "--a", "2,2,1", "--b", "2,2,1")
        assert code == 0
        assert "valid cm2" in out

    def test_invalid_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "--cm2", "--a", "1,2", "--b", "1,2")
        assert code == 2
        assert "error" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "validate", "--gor3", "--a", "1,1", "--b", "2,1", "--d", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"type": "gor3", "a": [1, 1], "b": [2, 1], "d": 1}

    def test_file_with_list(self, capsys, tmp_path):
        docs = [
            {"type": "cm2", "a": [1], "b": [1]},
            {"type": "gor3", "a": [2], "b": [2], "d": 5},
        ]
        path = tmp_path / "matrices.json"
        path.write_text(json.dumps(docs))
        code, out, _ = run(capsys, "validate", "--in", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out) == docs

    def test_text_of_every_input_type(self, capsys, tmp_path):
        docs = [
            {"type": "cm2", "a": [2, 2, 1], "b": [2, 2, 1]},
            {"type": "gor3", "a": [2], "b": [2], "d": 5},
            {"type": "monomial2", "gens": [[0, 5], [2, 3], [4, 1], [5, 0], [3, 3]]},
            {"codim": 2, "steps": [[[2, 1], [3, 1]], [[5, 1]]]},
        ]
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps(docs))
        code, out, err = run(capsys, "validate", "--in", str(path))
        assert (code, err) == (0, "")
        assert out == (
            "valid cm2: a=2,2,1 b=2,2,1\n"
            "valid gor3: a=2 b=2 d=5\n"
            "valid monomial2: 4 minimal generators\n"
            "valid betti table: p=2 codim=2\n"
        )

    def test_garbage_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", "--in", str(path))
        assert code == 2

    def test_missing_input_exits_2(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 2
        assert "no input" in err

    @pytest.mark.parametrize("verb", ["validate", "compute"])
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, verb):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, verb, "--in", str(path))
        assert (code, out, err) == (2, "", f"error: {path} is nested too deeply to parse\n")


class TestOracleCheck:
    def test_cm2_agreement(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--cm2", "--a", "1,1", "--b", "2,1")
        assert code == 0
        assert "uv=4" in out and "resolution=4" in out and "staircase=4" in out
        assert "agree=yes" in out

    def test_gor3_agreement(self, capsys):
        code, out, _ = run(
            capsys, "oracle-check", "--gor3", "--a", "1,1", "--b", "2,1", "--d", "1"
        )
        assert code == 0
        assert "pfaffian=12" in out and "linkage=12" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--cm2", "--a", "1", "--b", "1")
        assert code == 0
        assert "uv=1" in out
        code, out, _ = run(capsys, "oracle-check", "--gor3", "--a", "1", "--b", "1", "--d", "1")
        assert (code, out) == (0, "gor3 a=1 b=1 d=1: pfaffian=1 resolution=1 linkage=1 agree=yes\n")

    def test_staircase_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "stairs.json"
        path.write_text(json.dumps({"type": "monomial2", "gens": [[0, 1], [1, 0]]}))
        code, _, err = run(capsys, "oracle-check", "--in", str(path))
        assert code == 2


class TestSweep:
    def test_clean_range_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--cm2", "--t-max", "1", "--entry-max", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["anomalies"] == []
        assert doc["instances_checked"] == 6
        assert "runtime" not in json.dumps(doc)

    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "sweep", "--gor3", "--t-max", "1", "--entry-max", "2")
        assert code == 0
        assert "instances checked: 5" in out
        assert "anomalies: 0" in out

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--cm2", "--t-max", "1", "--entry-max", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4  # header + 3 instances
        assert lines[0].startswith("family,t,a,b,d,m1")

    def test_needs_family(self, capsys):
        code, _, err = run(capsys, "sweep", "--t-max", "1", "--entry-max", "2")
        assert code == 2

    def test_check_subset_flag(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--cm2", "--t-max", "1", "--entry-max", "2",
            "--checks", "multiplicity_agreement,hhs_bounds", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["checks"] == ["multiplicity_agreement", "hhs_bounds"]

    @pytest.mark.parametrize("checks, message", [
        ("", "unknown checks for cm2: ['']"),
        ("prop24,prop24", "checks named more than once: prop24,prop24"),
    ])
    def test_bad_check_list_exits_2(self, capsys, checks, message):
        code, out, err = run(
            capsys, "sweep", "--cm2", "--t-max", "1", "--entry-max", "2",
            "--checks", checks, "--format", "json",
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, family, t_max, entry_max", [
        (("sweep", "--cm2"), "cm2", 10**9, 1),
        (("sweep", "--gor3", "--format", "csv"), "gor3", 3, 1000),
        (("hunt", "--target", "prop24_bound"), "cm2", 1000, 1000),
    ])
    def test_oversized_range_exits_2_before_any_work(
        self, capsys, monkeypatch, tmp_path, argv, family, t_max, entry_max
    ):
        monkeypatch.setattr(sweep, "_ordered", lambda fn, config: pytest.fail("work started"))
        out = tmp_path / "report"
        code, stdout, err = run(
            capsys, *argv, "--t-max", str(t_max), "--entry-max", str(entry_max),
            "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err == (
            f"error: {family} range t <= {t_max}, entries <= {entry_max} "
            f"holds more than {sweep.INSTANCE_LIMIT} instances\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("sweep", "--cm2"), ("hunt", "--target", "prop24_bound")])
    def test_range_of_too_many_entries_exits_2_before_any_work(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        """At entry_max 1 each t holds one instance of t rows, so the work
        grows with t_max^2 while the count stays t_max: t_max 10^7 holds
        10^7 instances, the limit, and 5 * 10^13 diagonal entries."""
        monkeypatch.setattr(sweep, "_ordered", lambda fn, config: pytest.fail("work started"))
        out = tmp_path / "report"
        code, stdout, err = run(
            capsys, *argv, "--t-max", "10000000", "--entry-max", "1", "--out", str(out)
        )
        assert sweep.count_instances("cm2", 10**7, 1) == sweep.INSTANCE_LIMIT
        assert (code, stdout) == (2, "")
        assert err == (
            "error: cm2 range t <= 10000000, entries <= 1 "
            f"holds more than {sweep.ENTRY_LIMIT} diagonal entries\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("sweep", "--cm2"), ("sweep", "--gor3"),
                                      ("hunt", "--target", "prop24_bound")])
    def test_no_entries_visits_no_t(self, capsys, monkeypatch, argv):
        """entry_max 0 holds no instance, and the enumerator visits no t:
        t_max 10^9 ends at once."""
        monkeypatch.setattr(sweep, "product", lambda *args, **kw: pytest.fail("t visited"))
        code, stdout, err = run(
            capsys, *argv, "--t-max", "1000000000", "--entry-max", "0", "--format", "json"
        )
        assert (code, err) == (0, "")
        assert json.loads(stdout)["instances_checked"] == 0


class TestHunt:
    def test_empty_candidate_csv(self, capsys):
        code, out, _ = run(
            capsys, "hunt", "--target", "srinivasan_upper_gor3",
            "--t-max", "2", "--entry-max", "4", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "target,family,t,a,b,d,m1,m2,m3,M1,M2,M3,e,lhs,rhs,factor,hyp_i,hyp_ii"
        ]

    def test_prop24_hit_exits_1(self, capsys):
        code, out, _ = run(
            capsys, "hunt", "--target", "prop24_bound",
            "--t-max", "3", "--entry-max", "2", "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert any(c["instance"]["a"] == [2, 2, 1] for c in doc["candidates"])

    def test_unknown_target_exits_2(self, capsys):
        code, _, err = run(
            capsys, "hunt", "--target", "nope", "--t-max", "1", "--entry-max", "1"
        )
        assert code == 2
        assert "unknown target" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("target, t_max, entry_max, found", [
        ("prop24_bound", "3", "3", 4), ("srinivasan_upper_gor3", "4", "4", 10),
    ])
    def test_text_summary_matches_json(self, capsys, target, t_max, entry_max, found, jobs):
        """Every line of a hunt's text summary but its runtime, one per
        candidate included, reads the JSON report of the same hunt."""
        argv = ["hunt", "--target", target, "--t-max", t_max, "--entry-max", entry_max,
                "--jobs", jobs]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert len(doc["candidates"]) == found
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        *lines, runtime = out.splitlines()
        assert runtime.startswith("runtime: ") and runtime.endswith("s")
        expected = [f"hunt {target}: t <= {t_max}, entries <= {entry_max}",
                    f"instances checked: {doc['instances_checked']}",
                    f"candidates: {found}"]
        for c in doc["candidates"]:
            inst = c["instance"]
            d = f" d={inst['d']}" if "d" in inst else ""
            expected.append(f"  CANDIDATE a={','.join(map(str, inst['a']))} "
                            f"b={','.join(map(str, inst['b']))}{d}: {c['lhs']} vs {c['rhs']}")
        assert lines == expected

    def test_require_hypotheses_flag(self, capsys):
        code, out, _ = run(
            capsys, "hunt", "--target", "prop24_bound",
            "--t-max", "3", "--entry-max", "2", "--require-hypotheses",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["candidates"] == []


class TestParsing:
    def test_bad_int_list(self, capsys):
        code, _, err = run(capsys, "compute", "--cm2", "--a", "1,x", "--b", "1,1")
        assert code == 2

    def test_both_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"type": "cm2", "a": [1], "b": [1]}))
        code, _, err = run(
            capsys, "compute", "--cm2", "--a", "1", "--b", "1", "--in", str(path)
        )
        assert code == 2

    @pytest.mark.parametrize("verb", ["validate", "compute", "oracle-check"])
    @pytest.mark.parametrize("flags", [
        ("--a", "5", "--b", "5", "--d", "3"), ("--a", "5"), ("--b", "5"), ("--d", "3"),
    ])
    def test_matrix_flags_next_to_in_refused(self, capsys, tmp_path, verb, flags):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"type": "cm2", "a": [1], "b": [1]}))
        code, out, err = run(capsys, verb, "--in", str(path), *flags)
        assert (code, out) == (2, "")
        assert err == "error: give either inline flags or --in FILE, not both\n"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_gor3_needs_d(self, capsys):
        code, _, err = run(capsys, "compute", "--gor3", "--a", "1", "--b", "1")
        assert code == 2


class TestStrictIntegers:
    """Malformed integers are refused with exit 2 and one error line,
    never dropped, truncated or coerced."""

    @pytest.mark.parametrize("a, b", [
        ("2,,1", "2,,1"),
        ("2,1,", "2,1"),
        ("", "1"),
        ("2.0", "2"),
        ("true", "1"),
    ])
    def test_inline_fields(self, capsys, a, b):
        code, out, err = run(capsys, "compute", "--cm2", "--a", a, "--b", b)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [
        {"codim": True, "steps": [[[2, True]]]},
        {"codim": 2.0, "steps": [[[2, 1], [3, 1]], [[5, 1]]]},
        {"codim": 2, "steps": [[[2.7, 1], [3, 1]], [[5, 1]]]},
        {"codim": 2, "steps": [[[2, 1], [3, 1]], [[5, 1.0]]]},
        {"codim": 2, "steps": [[["2", 1], [3, 1]], [[5, 1]]]},
        {"type": "monomial2", "gens": [[0, 2.9], [1.5, 0]]},
        {"type": "monomial2", "gens": [[0, True], [True, 0]]},
        {"type": "monomial2", "gens": [[0, "1"], [1, 0]]},
        {"type": "cm2", "a": [2, True], "b": [2, 1]},
        {"type": "gor3", "a": [2], "b": [2], "d": 5.0},
    ])
    def test_json_documents(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for verb in ("validate", "compute"):
            code, out, err = run(capsys, verb, "--in", str(path))
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("codim, shown", [
        (True, "True"), (2.0, "2.0"), ("2", "'2'"), ([2], "[2]"),
    ])
    def test_codim_named(self, capsys, tmp_path, codim, shown):
        """A Betti table's scalar codim is refused under its own name."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"codim": codim, "steps": [[[1, 1]]]}))
        line = f"error: codim must be an integer, got {shown}\n"
        for verb in ("validate", "compute"):
            assert run(capsys, verb, "--in", str(path)) == (2, "", line)

    @pytest.mark.parametrize("doc, line", [
        ({"codim": 2, "steps": [[[2, 1, 1], [3, 1]], [[5, 1]]]},
         "error: steps entries must be [shift, rank] pairs, got [2, 1, 1]\n"),
        ({"codim": 2, "steps": [[[2], [3, 1]], [[5, 1]]]},
         "error: steps entries must be [shift, rank] pairs, got [2]\n"),
        ({"type": "monomial2", "gens": [[0, 1], [1]]},
         "error: gens entries must be [p, q] pairs, got [1]\n"),
        ({"type": "monomial2", "gens": [[0, 1, 2], [1, 0]]},
         "error: gens entries must be [p, q] pairs, got [0, 1, 2]\n"),
        ({"type": "monomial2", "gens": [{"p": 1, "q": 2}, [1, 0]]},
         "error: gens entries must be [p, q] pairs, got {'p': 1, 'q': 2}\n"),
        ({"type": "monomial2", "gens": [3, [0, 1]]},
         "error: gens entries must be [p, q] pairs, got 3\n"),
    ])
    def test_pairs_of_another_length(self, capsys, tmp_path, doc, line):
        """An entry that is not a pair, a non-list among them, is named
        with its field."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for verb in ("validate", "compute"):
            assert run(capsys, verb, "--in", str(path)) == (2, "", line)

    @pytest.mark.parametrize("steps, rank", [
        ([[[2, 1], [3, 1]], [[5, 2], [5, -1]]], -1),
        ([[[2, 1], [3, 1]], [[5, 1], [5, 0]]], 0),
    ], ids=["negative", "zero"])
    def test_each_rank_checked_before_summing(self, capsys, tmp_path, steps, rank):
        """A rank below 1 is refused even where the ranks on its shift
        sum to at least 1, so no table is built from it."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"codim": 2, "steps": steps}))
        line = f"error: ranks must be >= 1, got {rank}\n"
        for verb in ("validate", "compute"):
            for fmt in ("text", "json"):
                assert run(capsys, verb, "--in", str(path), "--format", fmt) == (2, "", line)

    @pytest.mark.parametrize("doc, line", [
        ({"type": "cm2", "a": "12", "b": "21"},
         "error: a must be a list, got '12'\n"),
        ({"type": "gor3", "a": [2], "b": None, "d": 5},
         "error: b must be a list, got None\n"),
        ({"type": "monomial2", "gens": "ab"},
         "error: gens must be a list, got 'ab'\n"),
        ({"codim": 1, "steps": [5]},
         "error: steps entries must be a list, got 5\n"),
        ({"codim": 1, "steps": 5},
         "error: steps must be a list, got 5\n"),
    ])
    def test_non_lists_refused(self, capsys, tmp_path, doc, line):
        """A field or entry that is not a list is refused whole and named,
        never split into characters or keys."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for verb in ("validate", "compute"):
            assert run(capsys, verb, "--in", str(path)) == (2, "", line)

    @given(st.lists(st.one_of(
        st.integers(), st.booleans(), st.floats(), st.text(max_size=3),
        st.integers().map(Subint),
    )))
    def test_only_true_integers_loaded(self, xs):
        """Every entry must be exactly an int; the error names the first
        entry that is not, and an int subclass is refused like a bool."""
        bad = [x for x in xs if type(x) is not int]
        if not bad:
            assert as_int_tuple(xs, "a") == tuple(xs)
            return
        with pytest.raises(ValueError) as exc:
            as_int_tuple(xs, "a")
        assert str(exc.value) == f"a entries must be integers, got {bad[0]!r}"

    BAD_INTEGERS = ["1_0", "0_2", "\u0663", "\uff12", " 2", "2 ", "+2", "2\n"]
    FLAG_ARGV = {
        "--a": lambda v: ("compute", "--cm2", "--a", f"2,{v}", "--b", "2,2"),
        "--b": lambda v: ("compute", "--cm2", "--a", "2", "--b", v),
        "--d": lambda v: ("compute", "--gor3", "--a", "2", "--b", "2", "--d", v),
        "--t-max": lambda v: ("sweep", "--cm2", "--t-max", v, "--entry-max", "2"),
        "--entry-max": lambda v: ("hunt", "--target", "prop24_bound",
                                  "--t-max", "1", "--entry-max", v),
        "--jobs": lambda v: ("sweep", "--gor3", "--t-max", "1", "--entry-max", "2",
                             "--jobs", v),
    }

    @pytest.mark.parametrize("flag", list(FLAG_ARGV))
    @pytest.mark.parametrize("value", BAD_INTEGERS)
    def test_only_ascii_digits(self, capsys, flag, value):
        code, out, err = run(capsys, *self.FLAG_ARGV[flag](value))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} expects") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", list(FLAG_ARGV))
    def test_double_dash_value_refused(self, capsys, flag):
        """``--flag=--``, which argparse hands over as an empty list."""
        argv = list(self.FLAG_ARGV[flag]("2"))
        i = len(argv) - 1 - argv[::-1].index(flag)
        argv[i: i + 2] = [f"{flag}=--"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} expects") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", list(FLAG_ARGV))
    def test_plain_digits_accepted(self, capsys, flag):
        code, _, err = run(capsys, *self.FLAG_ARGV[flag]("2"))
        assert code in (0, 1) and err == ""


class TestDocumentKeys:
    """Each input type reads only its own keys; any other key is refused
    with exit 2 and one error line, as an inline flag of another type is."""

    DOCS = {
        "cm2": ({"type": "cm2", "a": [2], "b": [2], "d": 5}, "d"),
        "gor3": ({"type": "gor3", "a": [2], "b": [2], "d": 5, "codim": 3}, "codim"),
        "monomial2": ({"type": "monomial2", "gens": [[0, 1], [1, 0]], "a": [1]}, "a"),
        "Betti table": ({"codim": 2, "steps": [[[2, 1], [3, 1]], [[5, 1]]], "b": 1}, "b"),
    }

    @pytest.mark.parametrize("verb", ["compute", "validate", "oracle-check"])
    @pytest.mark.parametrize("kind", list(DOCS))
    def test_unexpected_key_exits_2(self, capsys, tmp_path, verb, kind):
        doc, key = self.DOCS[kind]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps([{"type": "cm2", "a": [1], "b": [1]}, doc]))
        code, out, err = run(capsys, verb, "--in", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: unexpected key {key!r} in a {kind} document\n"


class TestDuplicateKeys:
    """A key repeated in one JSON object is refused, not overwritten by
    its last value, with exit 2 and one error line naming the key."""

    DOCS = {
        "a": '{"type": "cm2", "a": [1], "a": [2], "b": [2]}',
        "type": '{"type": "cm2", "a": [1], "b": [2], "type": "gor3", "d": 1}',
    }

    @pytest.mark.parametrize("verb", ["validate", "compute"])
    @pytest.mark.parametrize("key", list(DOCS))
    def test_duplicate_key_exits_2(self, capsys, tmp_path, verb, key):
        path = tmp_path / "doc.json"
        path.write_text(self.DOCS[key])
        code, out, err = run(capsys, verb, "--in", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: duplicate key {key!r} in a JSON object\n"


# Strings with non-ASCII, quote, backslash and control characters.
json_strings = st.text(
    st.characters() | st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028\xe9'), max_size=8
)
json_ints = st.integers() | st.integers(-(10**40), 10**40)
json_docs = st.recursive(
    st.none() | st.booleans() | json_ints | json_strings
    | st.lists(json_ints | st.booleans(), max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=20,
)


class TestJsonText:
    """The JSON writer renders what ``json.dumps(doc, indent=2)`` does."""

    @given(json_docs)
    def test_matches_json_dumps(self, doc):
        text = json.dumps(doc, indent=2)
        assert cli._json_text(doc, "\n") == text
        assert cli._json_text(doc, "\n  ") == text.replace("\n", "\n  ")

    @given(st.lists(json_docs, min_size=1, max_size=3))
    def test_write_json(self, docs):
        out = io.StringIO()
        cli._write_json(out, docs, many=True)
        assert out.getvalue() == json.dumps(docs, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [1.5, {"a": {1, 2}}, [object()], {1: 2}])
    def test_other_types_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            cli._json_text(doc, "\n")


class TestOutFile:
    """--out is checked before the verb runs and written atomically."""

    def test_missing_directory_exits_2(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "x.json"
        code, out, err = run(
            capsys, "compute", "--cm2", "--a", "1", "--b", "2", "--out", str(target)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "no").exists()

    def test_missing_directory_refused_before_sweep(self, capsys, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr("degmult.sweep.verify_all", must_not_run)
        monkeypatch.setattr("degmult.sweep.write_sweep_csv", must_not_run)
        target = tmp_path / "missing" / "rows.csv"
        for fmt in ("json", "csv"):
            code, _, err = run(
                capsys, "sweep", "--cm2", "--t-max", "2", "--entry-max", "3",
                "--format", fmt, "--out", str(target),
            )
            assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("validate", "--cm2", "--a", "1", "--b", "1"),
        ("compute", "--cm2", "--a", "1", "--b", "1"),
        ("oracle-check", "--cm2", "--a", "1", "--b", "1"),
        ("sweep", "--cm2", "--t-max", "1", "--entry-max", "2", "--format", "csv"),
        ("hunt", "--target", "prop24_bound", "--t-max", "1", "--entry-max", "2"),
    ])
    def test_empty_name_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--out", "")
        assert (code, out) == (2, "")
        assert err == "error: --out needs a file name\n"

    def test_directory_target_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "compute", "--cm2", "--a", "1", "--b", "2", "--out", str(tmp_path)
        )
        assert code == 2 and err.startswith("error:")

    def test_success_matches_stdout(self, capsys, tmp_path):
        argv = ["sweep", "--cm2", "--t-max", "2", "--entry-max", "3", "--format", "csv"]
        code, expected, _ = run(capsys, *argv)
        target = tmp_path / "rows.csv"
        target.write_text("stale contents\n")
        assert run(capsys, *argv, "--out", str(target)) == (code, "", "")
        assert target.read_text() == expected
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]

    def test_failed_write_keeps_old_target(self, capsys, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        target = tmp_path / "result.txt"
        target.write_text("previous report\n")
        monkeypatch.setattr("degmult.cli.os.replace", fail)
        code, _, err = run(
            capsys, "compute", "--cm2", "--a", "1", "--b", "2", "--out", str(target)
        )
        assert code == 2 and err.startswith("error:") and "disk full" in err
        assert target.read_text() == "previous report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["result.txt"]

    VALID = {"type": "cm2", "a": [2, 2, 1], "b": [2, 2, 1]}
    INCONSISTENT = {"codim": 2, "steps": [[[2, 1]], [[5, 1]]]}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_compute_failing_partway_keeps_old_target(self, capsys, tmp_path, fmt):
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps([self.VALID, self.INCONSISTENT]))
        target = tmp_path / "result.txt"
        target.write_text("stale contents\n")
        code, out, err = run(
            capsys, "compute", "--in", str(path), "--format", fmt, "--out", str(target)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert target.read_text() == "stale contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inputs.json", "result.txt"]

    def test_compute_failing_partway_on_stdout_keeps_earlier_results(self, capsys, tmp_path):
        # Reports are streamed, so what was written before the failure stays.
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps([self.VALID, self.INCONSISTENT]))
        _, first, _ = run(capsys, "compute", "--cm2", "--a", "2,2,1", "--b", "2,2,1")
        code, out, err = run(capsys, "compute", "--in", str(path))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert out == first

    @pytest.mark.parametrize(
        "fmt, last", [("text", "agree=yes\n"), ("json", "}\n")], ids=["text", "json"]
    )
    def test_failing_partway_on_stdout_ends_its_line(self, capsys, tmp_path, fmt, last):
        # The third input is a staircase, which oracle-check refuses.
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps([
            self.VALID,
            {"type": "gor3", "a": [1], "b": [1], "d": 1},
            {"type": "monomial2", "gens": [[0, 1], [1, 0]]},
        ]))
        code, out, err = run(capsys, "oracle-check", "--in", str(path), "--format", fmt)
        assert code == 2
        assert err == "error: oracle-check needs cm2 or gor3 matrices\n"
        assert out.endswith(last)
        if fmt == "text":
            assert out.count("\n") == 2

    def test_sweep_failing_partway_keeps_old_target(self, capsys, tmp_path, monkeypatch):
        from degmult import cm2
        from degmult.errors import InternalMismatch

        target = tmp_path / "rows.csv"
        target.write_text("stale contents\n")
        calls, tmp_sizes = [0], []
        real = cm2.shifts

        def fail_at_500th(A):
            calls[0] += 1
            if calls[0] < 500:
                return real(A)
            (tmp,) = (p for p in tmp_path.iterdir() if p.name != "rows.csv")
            tmp_sizes.append(tmp.stat().st_size)
            raise InternalMismatch("forced mismatch")

        monkeypatch.setattr(cm2, "shifts", fail_at_500th)
        code, out, err = run(
            capsys, "sweep", "--cm2", "--t-max", "3", "--entry-max", "4",
            "--checks", "shift_agreement", "--format", "csv", "--out", str(target),
        )
        assert (code, out) == (1, "")
        assert err == "anomaly: forced mismatch\n"
        # Rows had reached the temporary file before the failure.
        assert calls == [500] and tmp_sizes[0] > 0
        assert target.read_text() == "stale contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_in_process_run_never_imports_multiprocessing(tmp_path):
    """multiprocessing is imported only when a verb starts worker processes."""
    script = (
        "import sys\n"
        "from degmult.cli import main\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'multiprocessing' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "sweep", "--cm2", "--t-max", "2", "--entry-max", "3",
         "--jobs", "1", "--out", str(tmp_path / "sweep.json")],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    assert proc.stderr == ""
    assert proc.stdout == "0 False\n"


def test_standard_library_alone():
    """With no site-packages (``python -S``) and only src added to the
    path, every degmult module imports, nothing outside the standard
    library is loaded, and ``python -m degmult`` sweeps at two jobs."""
    src = os.path.dirname(os.path.dirname(degmult.__file__))
    script = (
        "import pkgutil, runpy, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import degmult\n"
        "for module in pkgutil.iter_modules(degmult.__path__):\n"
        "    if module.name != '__main__':\n"
        "        __import__(f'degmult.{module.name}')\n"
        "top = {name.partition('.')[0] for name in sys.modules}\n"
        "assert top - sys.stdlib_module_names == {'__main__', 'degmult'}, top\n"
        "runpy.run_module('degmult', run_name='__main__')\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, "sweep", "--cm2", "--t-max", "2",
         "--entry-max", "3", "--jobs", "2", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["instances_checked"] == sweep.count_instances("cm2", 2, 3) > 0
    assert doc["anomalies"] == []


class TestEntryPoint:
    """``python -m degmult`` turns main's return value into the exit status."""

    def degmult(self, *argv, **kwargs):
        return subprocess.run(
            [sys.executable, "-m", "degmult", *argv],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60, **kwargs,
        )

    def test_valid_compute_exits_0(self):
        proc = self.degmult("compute", "--cm2", "--a", "2,2,1", "--b", "2,2,1")
        assert proc.returncode == 0
        assert "multiplicity: 17" in proc.stdout and proc.stderr == ""

    def test_bad_input_exits_2_with_one_line(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        for argv in (("compute", "--cm2", "--a", "1,x", "--b", "1,1"),
                     ("compute", "--in", str(path))):
            proc = self.degmult(*argv)
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
            assert "Traceback" not in proc.stderr

    @staticmethod
    def _limit_address_space():
        one_gib = 1 << 30
        resource.setrlimit(resource.RLIMIT_AS, (one_gib, one_gib))

    @pytest.mark.parametrize("argv", [
        ("--cm2", "--a", "1000000000", "--b", "1000000000"),
        ("--gor3", "--a", "1", "--b", "1", "--d", "1000000000"),
    ])
    def test_huge_entries_in_bounded_memory(self, argv):
        # A dense K-polynomial of these tables would hold 10^9 coefficients.
        proc = self.degmult("compute", *argv, preexec_fn=self._limit_address_space)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0
        assert "  agree: yes" in proc.stdout

    def test_oversized_betti_table_refused_in_bounded_memory(self, tmp_path):
        # Its dense K-polynomial would hold 10^10 + 1 coefficients.
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"codim": 1, "steps": [[[10**10, 1]]]}))
        proc = self.degmult("compute", "--in", str(path),
                            preexec_fn=self._limit_address_space)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    def test_csv_pipe_identical_across_jobs(self):
        # 802 instances, more than sweep.BATCH: pool workers are forked
        # after the header was written, possibly still in the stdout buffer.
        argv = ("sweep", "--cm2", "--t-max", "3", "--entry-max", "4", "--format", "csv")
        outs = []
        for jobs in ("1", "2"):
            proc = self.degmult(*argv, "--jobs", jobs)
            assert (proc.returncode, proc.stderr) == (0, "")
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        lines = outs[0].splitlines()
        assert len(lines) == 803
        assert sum(line.startswith("family,") for line in lines) == 1

    @staticmethod
    def close_after_header(*argv):
        """(exit status, stderr) of a CSV sweep whose reader closes stdout
        after the header."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "degmult", "sweep", "--cm2", *argv, "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
        )
        assert proc.stdout.readline().startswith(b"family,")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        return proc.returncode, err

    def test_closed_pipe_ends_quietly(self):
        argv = ("--t-max", "4", "--entry-max", "4", "--checks", "hhs_bounds")
        assert self.close_after_header(*argv) == (1, b"")

    def test_closed_pipe_ends_quietly_with_every_check(self):
        assert self.close_after_header("--t-max", "4", "--entry-max", "5") == (1, b"")

    @pytest.mark.parametrize("argv", [
        ("sweep", "--cm2", "--t-max", "3", "--entry-max", "4", "--format", "csv"),
        ("hunt", "--target", "prop24_bound", "--t-max", "3", "--entry-max", "4",
         "--format", "json"),
    ], ids=["sweep", "hunt"])
    def test_no_pool_left_open_under_dev_mode(self, argv):
        """At two jobs under ``-X dev -W error``, where a worker pool left
        running warns on stderr, a verb writes nothing there, and prints
        what it prints plainly at one job (on one core no pool is made)."""
        plain = self.degmult(*argv, "--jobs", "1")
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "degmult", *argv, "--jobs", "2"],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert proc.stderr == ""
        assert (proc.returncode, proc.stdout) == (plain.returncode, plain.stdout)
        assert plain.stdout and plain.stderr == ""

    def test_hunt_hit_exits_1(self):
        proc = self.degmult("hunt", "--target", "prop24_bound", "--t-max", "3",
                            "--entry-max", "2", "--format", "json")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["candidates"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
class TestStreamedMemory:
    """Reports are written as they are made, so peak memory does not grow
    with the report.  Each case grows by more than 10 MiB when the whole
    report is gathered before it is written."""

    SCRIPT = (
        "import sys\n"
        "from degmult.cli import main\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
        "before = peak_kib()\n"
        "code = main(sys.argv[1:])\n"
        "print(code, peak_kib() - before)\n"
    )

    def growth_mib(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv],
            capture_output=True, text=True, env=CHILD_ENV, timeout=60,
        )
        assert proc.stderr == ""
        code, kib = map(int, proc.stdout.split())
        assert code == 0
        return kib / 1024

    def test_compute_many_large_matrices(self, tmp_path):
        rng = random.Random(20260)
        docs = []
        for k in range(250):
            a = [rng.randint(1, 200) for _ in range(200)]
            b = [rng.randint(max(a[i:i + 2]), 200) for i in range(200)]
            docs.append({"type": "cm2", "a": a, "b": b} if k % 2 else
                        {"type": "gor3", "a": a, "b": b, "d": rng.randint(a[0], 200)})
        path = tmp_path / "matrices.json"
        path.write_text(json.dumps(docs))
        growth = self.growth_mib(
            "compute", "--in", str(path), "--format", "json", "--out", str(tmp_path / "r.json")
        )
        assert growth < 3

    def test_csv_sweep_to_file(self, tmp_path):
        growth = self.growth_mib(
            "sweep", "--cm2", "--t-max", "6", "--entry-max", "3", "--checks", "hhs_bounds",
            "--format", "csv", "--out", str(tmp_path / "rows.csv"),
        )
        assert growth < 3
