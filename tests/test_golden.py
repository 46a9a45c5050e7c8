"""Golden outputs of the command line on a fixed corpus of invocations.

Each case pins the sha256 of what ``degmult.cli.main`` writes (stdout,
or the ``--out`` file where the case names one) and its exit code.  The
digests were recorded before the per-instance evaluation was unified,
so any refactor of the evaluation or of the drivers must leave every
one of them unchanged.  Sweep and hunt text summaries carry a wall
clock and are left out; their JSON and CSV forms are pinned at
``--jobs 1`` and ``--jobs 2`` against the same digest.  The ``large``
cases run ``compute`` on seeded matrices with t in the hundreds, so the
K-polynomial division, the genus, the staircase and the prop24
hypotheses are pinned at size; their digests were recorded before
those kernels were made linear in t.  The ``validate`` JSON cases and
the partial report cut by the int-to-str limit were recorded before the
JSON reports stopped going through ``json.dumps``.

The cases at benchmark size read their digests from
``benchmarks/golden.json`` and the ``compute_large`` inputs from
``benchmarks/inputs.py``, both as they are; acceptance 4's CSV, which
the benchmark does not record, and the faulted extension run are pinned
here.  The two acceptance ranges are swept at one job once per session,
by the fixtures in ``conftest.py``, and here again at two.
"""
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from degmult import cm2
from degmult.cli import main

from bruteforce import betti_table

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
import inputs  # noqa: E402  (benchmarks/inputs.py)
import workloads  # noqa: E402  (benchmarks/workloads.py)

BENCH = json.loads((BENCHMARKS / "golden.json").read_text())["full"]

CM2_TABLE = {"codim": 2, "steps": [[[2, 1], [3, 1]], [[5, 1]]]}
GOR3_TABLE = {"codim": 3, "steps": [[[2, 2], [5, 1]], [[4, 1], [7, 2]], [[9, 1]]]}
STAIRCASE = {"type": "monomial2", "gens": [[0, 5], [2, 3], [4, 1], [5, 0]]}
MIXED = [
    {"type": "cm2", "a": [1, 1], "b": [2, 1]},
    {"type": "gor3", "a": [2], "b": [2], "d": 5},
    CM2_TABLE,
    STAIRCASE,
]


def _seeded_block(seed: int, t: int, entry_max: int = 200) -> tuple[list, list]:
    """A valid diagonal and superdiagonal: b_i in [max(a_i, a_{i+1}), entry_max]."""
    rng = random.Random(seed)
    a = [rng.randint(1, entry_max) for _ in range(t)]
    b = [rng.randint(max(a[i:i + 2]), entry_max) for i in range(t)]
    return a, b


LARGE_A, LARGE_B = _seeded_block(150, 150)
LARGE_CM2 = {"type": "cm2", "a": LARGE_A, "b": LARGE_B}
GOR3_A, GOR3_B = _seeded_block(120, 120)
LARGE_GOR3 = {"type": "gor3", "a": GOR3_A, "b": GOR3_B, "d": 162}
LARGE_CM2_TABLE = betti_table(cm2.validate(LARGE_A, LARGE_B)).to_json_dict()
# The second matrix's multiplicity, 10**4400, passes the 4,300 digits
# that Python converts an int to a str by default.
HUGE_RESULT = [MIXED[0], {"type": "cm2", "a": [10**2200], "b": [10**2200]}, MIXED[1]]

FILES = {
    "cm2_table.json": CM2_TABLE,
    "gor3_table.json": GOR3_TABLE,
    "stairs.json": STAIRCASE,
    "mixed.json": MIXED,
    "matrices.json": MIXED[:2],
    "large_cm2.json": LARGE_CM2,
    "large_gor3.json": LARGE_GOR3,
    "large_cm2_table.json": LARGE_CM2_TABLE,
    "huge_result.json": HUGE_RESULT,
}

CM2 = ["--cm2", "--a", "2,2,1", "--b", "2,2,1"]
GOR3 = ["--gor3", "--a", "1,1", "--b", "2,1", "--d", "1"]
CI225 = ["--gor3", "--a", "2", "--b", "2", "--d", "5"]
SWEEP_CM2 = ["sweep", "--cm2", "--t-max", "2", "--entry-max", "3"]
SWEEP_GOR3 = ["sweep", "--gor3", "--t-max", "2", "--entry-max", "3"]
HUNT_P24 = ["hunt", "--target", "prop24_bound", "--t-max", "3", "--entry-max", "3"]
HUNT_SRI = ["hunt", "--target", "srinivasan_upper_gor3", "--t-max", "2", "--entry-max", "4"]
EXTENSION_CM2 = ["sweep", "--cm2", "--t-max", "3", "--entry-max", "5", "--checks", "extension"]
EXTENSION_GOR3 = ["sweep", "--gor3", "--t-max", "2", "--entry-max", "5", "--checks", "extension"]
ACCEPTANCE_4 = ["sweep", "--cm2", "--t-max", "4", "--entry-max", "6", "--format", "csv"]
ACCEPTANCE_5 = ["sweep", "--gor3", "--t-max", "3", "--entry-max", "5", "--format", "json"]

# name -> (argv, exit code, sha256 of the output bytes).  "{FILE}" in an
# argument is replaced by the path of that input file; "--out" cases
# hash the file written, the rest hash stdout.
GOLDEN = {
    "compute_cm2_text": (
        ["compute", *CM2], 0,
        "7db0cdf45854b3b25511437fc142ff6d51faa3719dcd5e9fe8067d17f7eb573a"),
    "compute_cm2_json": (
        ["compute", *CM2, "--format", "json"], 0,
        "c56558d3c3298ef6254da17051516b33bb9182adb4694bbd8d38c7f6e08dd44d"),
    "compute_gor3_text": (
        ["compute", *GOR3], 0,
        "3b1b284ae4f9a327790f7cdc3fac4903371be3dcb3919efc22d7b1e76a9376d6"),
    "compute_gor3_json": (
        ["compute", *GOR3, "--format", "json"], 0,
        "2972b4e3acdf549c3cbe03825137b753cce151c9222bec3a7475ecf48043f818"),
    "compute_ci225_text": (
        ["compute", *CI225], 0,
        "88a3bcdf548c77123974eb399e838ac96964ce5563f7c1d2e6795ab002ef85f7"),
    "compute_ci225_json": (
        ["compute", *CI225, "--format", "json"], 0,
        "6dee2f18e402cf206c25a01f20d9154295dbd78293970445eff7e9ba3fdc4412"),
    "compute_cm2_table_text": (
        ["compute", "--in", "{cm2_table.json}"], 0,
        "b9d6d76851dccd23fa67535003b1ba55fd60bb199fbecb2bbcbc37e949786041"),
    "compute_cm2_table_json": (
        ["compute", "--in", "{cm2_table.json}", "--format", "json"], 0,
        "39d6cf3caf9ffc37c7ccec3dcaadafb6099679bfc8220ba759468c2a719463c4"),
    "compute_gor3_table_text": (
        ["compute", "--in", "{gor3_table.json}"], 0,
        "e654ad1e5c979a69b84ea9e57cb137f18806b2825bbec1c8a9b7918a9e2f4da5"),
    "compute_gor3_table_json": (
        ["compute", "--in", "{gor3_table.json}", "--format", "json"], 0,
        "cf738c559a744a8f166a64bb5bf4766b7a73aa958d6cac904787e725da6a404a"),
    "compute_monomial2_text": (
        ["compute", "--in", "{stairs.json}"], 0,
        "9e560e838e69d71a0653c8d65d82e5a63b0f6febebcb6d9043813fb63b771818"),
    "compute_monomial2_json": (
        ["compute", "--in", "{stairs.json}", "--format", "json"], 0,
        "b181d37dbadebcb318025fc3c64698cb51360bfd2d5158d219a3b8a1b5cde5e2"),
    "compute_mixed_text": (
        ["compute", "--in", "{mixed.json}"], 0,
        "bbaadeac40d83d1cbf0f5c856c009e1b9e4ac754bbf1b87a599de355231d1099"),
    "compute_mixed_json_out": (
        ["compute", "--in", "{mixed.json}", "--format", "json", "--out", "{OUT}"], 0,
        "81c0e3269c776ca997b99f042f721511e1962fb47d8ec7606520fe181f5211ce"),
    "validate_mixed_json": (
        ["validate", "--in", "{mixed.json}", "--format", "json"], 0,
        "87f750d1ef28727696d4c2a468fd27fd231eadaac8e6a796ffb1176e2c975c76"),
    "validate_cm2_table_json": (
        ["validate", "--in", "{cm2_table.json}", "--format", "json"], 0,
        "3cc023ae592d8b5632e41e02d302e59ed5f1938d7517ec6f65cf27419db0183c"),
    "oracle_cm2_text": (
        ["oracle-check", *CM2], 0,
        "f7ea26a777c177ac5659dcb26cc24b12daa3ab2770d888585ec66410feb83ccc"),
    "oracle_cm2_json": (
        ["oracle-check", *CM2, "--format", "json"], 0,
        "24d8074d688f0e9005f7818f2346b58c97cd8afe06f961617ae42e3fa47faa6d"),
    "oracle_gor3_text": (
        ["oracle-check", *GOR3], 0,
        "78d81296940a269a7fb2652c82f8e7730cc0b366b9d7c894b8ba8c3cba0dc4a2"),
    "oracle_gor3_json": (
        ["oracle-check", *GOR3, "--format", "json"], 0,
        "952d8f4ac5b14b03b251dc9758ba921ecfe4482438072b3d450d339b83accafb"),
    "oracle_list_text": (
        ["oracle-check", "--in", "{matrices.json}"], 0,
        "e0b519d09e0d7a0dcff3e030de0ac795606802557524a95d361897514d774ccb"),
    "oracle_list_json": (
        ["oracle-check", "--in", "{matrices.json}", "--format", "json"], 0,
        "82c19ae4da140cbf013a36dfeb6fb428f3036bce5c27c0c6324aa358f6d66bae"),
    "sweep_cm2_json": (
        [*SWEEP_CM2, "--format", "json"], 0,
        "32fe7db6ebc0228fec6465574fc40957d5652f7f2bad6ab3414df0ac684b4f01"),
    "sweep_cm2_csv": (
        [*SWEEP_CM2, "--format", "csv"], 0,
        "86d8f5074c0e7a1a7c62f5efc3d49340b84e5d45e83b5e134e2bd760ed4cb7fe"),
    "sweep_cm2_csv_out": (
        [*SWEEP_CM2, "--format", "csv", "--out", "{OUT}"], 0,
        "86d8f5074c0e7a1a7c62f5efc3d49340b84e5d45e83b5e134e2bd760ed4cb7fe"),
    "sweep_cm2_prop24_json": (
        [*SWEEP_CM2, "--checks", "prop24", "--format", "json"], 0,
        "48666a9bf4045131695341d490810ebfb5ddee7a3d779a138fc4b0f162f53003"),
    "sweep_cm2_prop24_csv": (
        [*SWEEP_CM2, "--checks", "prop24", "--format", "csv"], 0,
        "86d8f5074c0e7a1a7c62f5efc3d49340b84e5d45e83b5e134e2bd760ed4cb7fe"),
    "sweep_cm2_subset_json": (
        [*SWEEP_CM2, "--checks", "shift_agreement,extension", "--format", "json"], 0,
        "2bdd6a55ae13965ebbe6b4094e2af86b8b20f00414b4066f18844920ce73b1d9"),
    "sweep_gor3_json": (
        [*SWEEP_GOR3, "--format", "json"], 0,
        "d93b2ea34e7a37bfdec2d86d3f6e60102a2c615614b18c6b94b3cf644fee0f6d"),
    "sweep_gor3_csv": (
        [*SWEEP_GOR3, "--format", "csv"], 0,
        "118214177fe16cac1d77e97af2b44032df431f1b1f04f7b593623053a5b918d4"),
    "sweep_gor3_prop24_json": (
        [*SWEEP_GOR3, "--checks", "prop24", "--format", "json"], 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sweep_gor3_prop24_csv": (
        [*SWEEP_GOR3, "--checks", "prop24", "--format", "csv"], 2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "sweep_gor3_subset_csv": (
        [*SWEEP_GOR3, "--checks", "self_duality,gor3_bounds", "--format", "csv"], 0,
        "118214177fe16cac1d77e97af2b44032df431f1b1f04f7b593623053a5b918d4"),
    "hunt_prop24_json": (
        [*HUNT_P24, "--format", "json"], 1,
        "da16b2ca495bed0aa35e11cff514e1952283512fc0e35ecbfa54368629b73399"),
    "hunt_prop24_csv": (
        [*HUNT_P24, "--format", "csv"], 1,
        "efd67da49fef29e10f1210de37f23000ebbb47e426fb45cb7e242eb0f41a0450"),
    "hunt_prop24_hyp_json": (
        [*HUNT_P24, "--require-hypotheses", "--format", "json"], 0,
        "b4ee9704790abfa428b3a7028cec6b46d0e0b2678ecb551114fdc180e737ca50"),
    "hunt_prop24_hyp_csv": (
        [*HUNT_P24, "--require-hypotheses", "--format", "csv"], 0,
        "0785d1812f34d9ab68d5e76640ff98c8b47865b6edaa5805d22d6597e582f5b3"),
    "hunt_srinivasan_json": (
        [*HUNT_SRI, "--format", "json"], 0,
        "4821efc4f5293863caceedcdf8eb44116caeabfe70a1ed8fd68314e2deb4a530"),
    "hunt_srinivasan_csv": (
        [*HUNT_SRI, "--format", "csv"], 0,
        "0785d1812f34d9ab68d5e76640ff98c8b47865b6edaa5805d22d6597e582f5b3"),
    "hunt_srinivasan_hyp_csv": (
        [*HUNT_SRI, "--require-hypotheses", "--format", "csv"], 0,
        "0785d1812f34d9ab68d5e76640ff98c8b47865b6edaa5805d22d6597e582f5b3"),
    "compute_large_cm2_text": (
        ["compute", "--in", "{large_cm2.json}"], 0,
        "5a1740c7f8393fb0d2e7701526859364c024d2e6e4440df4ad43ef6c3d22b767"),
    "compute_large_cm2_json": (
        ["compute", "--in", "{large_cm2.json}", "--format", "json"], 0,
        "2738c5ba67a13554ec9ad720fac9a42f749953dfe3e49c764ef1a0302655f2b1"),
    "compute_large_gor3_text": (
        ["compute", "--in", "{large_gor3.json}"], 0,
        "caa676e0a71eba2e870153d3374675423e363e9d0579f4fb446fdca218766154"),
    "compute_large_gor3_json": (
        ["compute", "--in", "{large_gor3.json}", "--format", "json"], 0,
        "6990b5adeefd5a2ddcb21bdf8b92f076783f28880bacb7e358de2637464fc5d6"),
    "compute_large_cm2_table_text": (
        ["compute", "--in", "{large_cm2_table.json}"], 0,
        "8649ca95344ed47f43f4507c6def1b28e4e94bbd396a311cb2e413929a441e0a"),
    "compute_large_cm2_table_json": (
        ["compute", "--in", "{large_cm2_table.json}", "--format", "json"], 0,
        "98b480f1199cb61671245d32889b0bdadc694d619012319dc9b41878846a7b73"),
    "sweep_gor3_t2_e4_json": (
        ["sweep", "--gor3", "--t-max", "2", "--entry-max", "4", "--format", "json"], 0,
        "9078c3c02ffd416722d55586b61872b80686b44158ab729ca820ab70df46b56a"),
    "sweep_cm2_extension_json": (
        [*EXTENSION_CM2, "--format", "json"], 0,
        "15231178116d41a55d8d37edee0be7e764c74a94cffade2da7c3111004cb7cbd"),
    "sweep_gor3_extension_json": (
        [*EXTENSION_GOR3, "--format", "json"], 0,
        "f5014a513fc7cee189c8b5735fad139d565c1f1365b3cf006f1242109c774c5d"),
    # The benchmark's sweep_cm2 and hunt_prop24_j2 workloads; its
    # sweep_gor3 is acceptance 5's range, pinned by test_acceptance_5_json.
    "sweep_cm2_benchmark_csv": (
        ["sweep", "--cm2", "--t-max", "4", "--entry-max", "5", "--format", "csv"], 0,
        BENCH["sweep_cm2"]["sha256"]),
    "hunt_prop24_benchmark_json": (
        ["hunt", "--target", "prop24_bound", "--t-max", "4", "--entry-max", "7",
         "--format", "json"], 1,
        BENCH["hunt_prop24_j2"]["sha256"]),
}

# Acceptance 4's CSV, for which the benchmark records no digest.
ACCEPTANCE_4_DIGEST = "a3effd99752de0f252fc1b940135476717d0fd78f9966c8b58de9840ebab19f5"
# Every cm2 child in EXTENSION_CM2's range failing its recursion.
FAULTED_EXTENSION_DIGEST = "f00b5672256f1ead3cb38518e85ad4c34c20309d925fd3c3b16f4d70b00e6a9a"

# compute stops at the matrix whose multiplicity passes the int-to-str
# limit; stdout keeps the report before it, ended by a newline.
HUGE_PARTIAL_DIGEST = "caebbb2de64565f983ae8913e321c69c9c3e788dde3ebd97002121d662917a5a"

# Serialized sweep and hunt reports must not depend on --jobs.
PARALLEL = [name for name in GOLDEN if name.startswith(("sweep", "hunt"))]


def _run(argv, tmp_path, capsys):
    for fname, doc in FILES.items():
        (tmp_path / fname).write_text(json.dumps(doc))
    out = tmp_path / "out.bin"
    args = []
    for arg in argv:
        if arg == "{OUT}":
            arg = str(out)
        elif arg.startswith("{"):
            arg = str(tmp_path / arg.strip("{}"))
        args.append(arg)
    code = main(args)
    data = capsys.readouterr().out.encode()
    if "--out" in argv:
        assert data == b""
        data = out.read_bytes()
    return code, hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden(name, tmp_path, capsys):
    argv, exit_code, digest = GOLDEN[name]
    assert _run(argv, tmp_path, capsys) == (exit_code, digest)


@pytest.mark.parametrize("name", sorted(PARALLEL))
def test_golden_jobs_2(name, tmp_path, capsys):
    argv, exit_code, digest = GOLDEN[name]
    assert _run([*argv, "--jobs", "2"], tmp_path, capsys) == (exit_code, digest)


def test_acceptance_4_csv(cm2_sweep, tmp_path, capsys):
    assert cm2_sweep.sha256 == ACCEPTANCE_4_DIGEST
    assert _run([*ACCEPTANCE_4, "--jobs", "2"], tmp_path, capsys) == (0, ACCEPTANCE_4_DIGEST)


def test_acceptance_5_json(gor3_sweep, tmp_path, capsys):
    digest = BENCH["sweep_gor3"]["sha256"]
    assert gor3_sweep.sha256 == digest
    assert _run([*ACCEPTANCE_5, "--jobs", "2"], tmp_path, capsys) == (0, digest)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_faulted_extension(jobs, tmp_path, capsys, monkeypatch):
    """With every cm2 child's own value off by one, the extension-only
    sweep files one anomaly per child, as many as the benchmark's closed
    form counts, and exits 1."""
    real = cm2.multiplicity_from_degrees
    monkeypatch.setattr(cm2, "multiplicity_from_degrees", lambda e, f: real(e, f) + 1)
    argv = [*EXTENSION_CM2, "--format", "json", "--out", "{OUT}", "--jobs", jobs]
    assert _run(argv, tmp_path, capsys) == (1, FAULTED_EXTENSION_DIGEST)
    anomalies = json.loads((tmp_path / "out.bin").read_text())["anomalies"]
    assert len(anomalies) == inputs.range_counts("cm2", 3, 5)[1] == 31_599


@pytest.mark.parametrize("seed", range(4))
def test_compute_large(seed, tmp_path, capsys):
    """The benchmark's compute_large input of each recorded seed, as its
    JSON report."""
    docs = inputs.compute_input(seed, **workloads.SIZES["full"]["compute_large"])
    (tmp_path / "large.json").write_text(json.dumps(docs))
    argv = ["compute", "--in", "{large.json}", "--format", "json", "--out", "{OUT}"]
    digest = BENCH["compute_large"]["sha256_by_seed"][str(seed)]
    assert _run(argv, tmp_path, capsys) == (0, digest)


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
class TestIntStrLimit:
    """A result integer past the int-to-str limit, partway through a list,
    ends the run with exit 2 and one error line; the reports before it
    stay on stdout, ended by a newline, and --out leaves neither the
    file nor a temporary one."""

    ERROR = "error: Exceeds the limit (4300"

    def run(self, tmp_path, capsys, *out):
        for fname, doc in FILES.items():
            (tmp_path / fname).write_text(json.dumps(doc))
        path = tmp_path / "huge_result.json"
        code = main(["compute", "--in", str(path), "--format", "json", *out])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(self.ERROR) and captured.err.count("\n") == 1
        return captured.out

    def test_stdout(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys)
        assert hashlib.sha256(out.encode()).hexdigest() == HUGE_PARTIAL_DIGEST
        assert out.startswith("[\n  {") and out.endswith("\n  }\n")

    def test_out_file(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys, "--out", str(tmp_path / "out.json")) == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FILES)
