"""Command-line front end.

Verbs: validate, compute, sweep, hunt, oracle-check.  Matrices come in
as inline flags (--cm2 --a 2,2,1 --b 2,2,1) or as JSON documents; all
reports leave as text, JSON, or CSV, written to stdout or --out FILE as
they are made.  Exit status 0 means success with no anomalies, 1 means
an anomaly or hunt hit, 2 means invalid input; a multiplicity route that
fails on a valid matrix is an anomaly.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from . import betti, bounds, cm2, gor3, oracle, sweep
from .errors import CharacterizationViolated, DegmultError, InternalMismatch, ParseError

Input = object  # DegreeMatrixCM2 | DegreeMatrixGor3 | MonomialStaircase | BettiTable


_INT = re.compile(r"-?[0-9]+")


def _parse_int(text: str, flag: str) -> int:
    """An integer flag value: ASCII digits with an optional leading minus,
    nothing else (no underscores, spaces, '+' or non-ASCII digits)."""
    if not isinstance(text, str) or not _INT.fullmatch(text):  # argparse reads --x=-- as []
        raise ParseError(f"{flag} expects an integer, got {text!r}")
    return int(text)


def _parse_int_list(text: str, flag: str) -> list[int]:
    if not isinstance(text, str) or not all(map(_INT.fullmatch, text.split(","))):
        raise ParseError(f"{flag} expects comma-separated integers, got {text!r}")
    return [int(part) for part in text.split(",")]


# Each document type: the class it loads into and the only keys it may hold.
_TYPES = {
    "cm2": (cm2.DegreeMatrixCM2, ("type", "a", "b")),
    "gor3": (gor3.DegreeMatrixGor3, ("type", "a", "b", "d")),
    "monomial2": (oracle.MonomialStaircase, ("type", "gens")),
}


def _from_json_obj(obj: object) -> Input:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    if "type" in obj:
        kind = obj["type"]
        # A list or object "type" cannot be a dict key; it is unknown too.
        if not isinstance(kind, str) or kind not in _TYPES:
            raise ParseError(f"unknown input type {kind!r}")
        cls, keys = _TYPES[kind]
    elif "codim" in obj and "steps" in obj:
        kind, cls, keys = "Betti table", betti.BettiTable, ("codim", "steps")
    else:
        raise ParseError("input object needs a 'type' key or 'codim'/'steps' keys")
    for key in obj:
        if key not in keys:
            raise ParseError(f"unexpected key {key!r} in a {kind} document")
    try:
        return cls.from_json_dict(obj)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed input document: {exc}") from exc


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a repeated key is refused, not overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ParseError(f"duplicate key {key!r} in a JSON object")
    return obj


def _load_inputs(args: argparse.Namespace) -> list[Input]:
    inline = args.cm2 or args.gor3
    if args.infile and (inline or (args.a, args.b, args.d) != (None, None, None)):
        raise ParseError("give either inline flags or --in FILE, not both")
    if inline:
        if args.cm2 and args.gor3:
            raise ParseError("choose one of --cm2 and --gor3")
        if args.a is None or args.b is None:
            raise ParseError("inline input needs --a and --b")
        a = _parse_int_list(args.a, "--a")
        b = _parse_int_list(args.b, "--b")
        if args.cm2:
            if args.d is not None:
                raise ParseError("--d only applies to --gor3")
            return [cm2.validate(a, b)]
        if args.d is None:
            raise ParseError("--gor3 needs --d")
        return [gor3.validate(a, b, _parse_int(args.d, "--d"))]
    if args.infile:
        try:
            with open(args.infile) as fh:
                doc = json.load(fh, object_pairs_hook=_json_object)
        except OSError as exc:
            raise ParseError(f"cannot read {args.infile}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {args.infile}: {exc}") from exc
        except RecursionError as exc:
            raise ParseError(f"{args.infile} is nested too deeply to parse") from exc
        objs = doc if isinstance(doc, list) else [doc]
        if not objs:
            raise ParseError(f"{args.infile} holds an empty list")
        return [_from_json_obj(obj) for obj in objs]
    raise ParseError("no input: give --cm2/--gor3 with --a/--b[/--d] or --in FILE")


def _check_out(path: str) -> None:
    """Refuse an --out target that cannot be written, before any work runs."""
    if not path:
        raise ParseError("--out needs a file name")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ParseError(f"--out {path}: directory does not exist")
    if os.path.isdir(path):
        raise ParseError(f"--out {path} is a directory")


@contextlib.contextmanager
def _output(args: argparse.Namespace) -> Iterator[TextIO]:
    """The stream a verb writes its report to, as the report is made.

    That is stdout, or a temporary file next to --out FILE that is
    renamed over FILE once the whole report is written, so FILE is never
    left half written; the temporary file is removed whatever happens.
    """
    if not getattr(args, "out", None):
        yield sys.stdout
        return
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, args.out)
    except OSError as exc:
        raise ParseError(f"cannot write {args.out}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_joined(
    out: TextIO, pieces: Iterable[str], sep: str, head: str = "", tail: str = "\n"
) -> None:
    """Write head, the pieces separated by sep, then tail, one piece at a time.

    When making a piece fails, the partial report is ended with a newline
    before the error goes on, so a diagnostic that follows starts a line.
    """
    out.write(head)
    last = head
    try:
        for i, piece in enumerate(pieces):
            last = sep + piece if i else piece
            out.write(last)
    except Exception:
        if last and not last.endswith("\n"):
            out.write("\n")
        raise
    out.write(tail)


def _json_text(obj: object, nl: str) -> str:
    """``json.dumps(obj, indent=2)`` with ``nl`` (a newline and the indent
    the text sits at) for each newline: json's types in json's order,
    strings through its C escaper, ints through ``int.__repr__``, a list
    of plain ints in one join, and TypeError for any other type."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        ends = "[]"
        ints = set(map(type, obj)) == {int}
        items = map(int.__repr__, obj) if ints else [_json_text(x, inner) for x in obj]
    elif isinstance(obj, dict):
        ends = "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{nl}{ends[1]}" if obj else ends


def _write_json(out: TextIO, docs: Iterable[object], many: bool) -> None:
    """Write the text of ``json.dumps(docs, indent=2)`` and a newline, or of
    the one document when not ``many``, one document at a time, each by
    :func:`_json_text` rather than json's far slower pure-Python indent
    encoder; in the list, a document's text sits two spaces in."""
    texts = (_json_text(doc, "\n  " if many else "\n") for doc in docs)
    if many:
        _write_joined(out, texts, ",\n  ", "[\n  ", "\n]\n")
    else:
        _write_joined(out, texts, "")


def _write_reports(
    args: argparse.Namespace,
    items: list[Input],
    report: Callable[[Input], dict],
    render: Callable[[dict], str],
    sep: str,
    failed: Callable[[dict], bool],
) -> bool:
    """Make, write and drop one report per input, in input order: a JSON
    list (a bare object for one input), or the rendered texts joined by
    ``sep``.  True when ``failed`` holds for any report."""
    any_failed = False

    def reports() -> Iterator[dict]:
        nonlocal any_failed
        for item in items:
            rep = report(item)
            any_failed = any_failed or failed(rep)
            yield rep

    with _output(args) as out:
        if args.format == "json":
            _write_json(out, reports(), len(items) > 1)
        else:
            _write_joined(out, map(render, reports()), sep)
    return any_failed


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _compute_matrix(ev: sweep.Evaluation) -> dict:
    """compute's report of a matrix, read off both tiers of its evaluation:
    each bound as :func:`bounds.shown` makes it of its side function's
    sides, the HHS pair, the sharper pair, then prop24's upper bound
    (cm2) or Srinivasan's pair (gor3).  A route that fails, or sharp
    flags that disagree with purity, end the run as an anomaly."""
    agree = ev.agree()
    s, e, ends, p = ev.shifts, ev.e, ev.ends, ev.codim
    pure, quasi_pure = betti.purity(ends)
    shown = bounds.shown("hhs", bounds.hhs_sides(p, ends, e), (math.factorial(p),) * 2)
    lower, upper = shown[0]["sharp"], shown[1]["sharp"]
    if ev.family == "cm2":
        shown += bounds.shown("cm2", bounds.cm2_sides(*s, e), bounds.FACTORS["cm2"])
        shown += bounds.shown("prop24", bounds.prop24_sides(s, e), bounds.FACTORS["prop24"])
        extra = {"prop24": bounds.prop24_hypotheses(ev.instance, s)}
    else:
        shown += bounds.shown("gor3", bounds.gor3_sides(*s[:3], e), bounds.FACTORS["gor3"])
        shown += bounds.shown("srinivasan", bounds.srinivasan_sides(s, e),
                              bounds.FACTORS["srinivasan"])
        extra = {"srinivasan_quasi_pure": betti.purity(s)[1]}
    if not lower == upper == pure:
        raise CharacterizationViolated(
            f"sharpness/purity flags disagree: lower={lower}, upper={upper}, pure={pure}")
    return {
        "instance": ev.instance.to_json_dict(),
        "shifts": s._asdict(),
        "pure": pure,
        "quasi_pure": quasi_pure,
        "multiplicity": {"value": e, **ev.routes, "agree": agree},
        "bounds": shown,
        **extra,
        "sharpness": {"lower_sharp": lower, "upper_sharp": upper, "pure": pure},
    }


# compute prints a Betti table's K-polynomial densely, one coefficient
# per degree 0..max shift; a table that needs more is refused up front.
K_COEFFS_MAX = 10**6


def _compute_betti(table: betti.BettiTable) -> dict:
    size = table.max_shift() + 1
    if size > K_COEFFS_MAX:
        raise ParseError(
            f"Betti table's K-polynomial would have {size} coefficients; "
            f"compute prints at most {K_COEFFS_MAX}"
        )
    p = table.projective_dimension
    ends = betti.step_ends([(step[0][0], step[-1][0]) for step in table.steps])
    pure, quasi_pure = betti.purity(ends)
    kpoly = betti.k_polynomial(table)
    e, genus = betti.multiplicity_and_genus(table)
    result = {
        "instance": table.to_json_dict(),
        "projective_dimension": p,
        "codim": table.codim,
        "k_polynomial": str(kpoly),
        "k_coeffs": list(kpoly.coeffs),
        "shifts": {"m": list(ends[:p]), "M": list(ends[p:])},
        "pure": pure,
        "quasi_pure": quasi_pure,
        "multiplicity": e,
        "genus_dim2": genus,
    }
    if table.codim == p:
        sides = bounds.hhs_sides(p, ends, e)
        result["bounds"] = bounds.shown("hhs", sides, (math.factorial(p),) * 2)
        if pure:
            result["huneke_miller"] = betti.pure_shifts_multiplicity(ends[:p])
    return result


def _compute_staircase(s: oracle.MonomialStaircase) -> dict:
    return {"instance": s.to_json_dict(), "colength": oracle.colength(s)}


def _compute_result(item: Input) -> dict:
    if isinstance(item, betti.BettiTable):
        return _compute_betti(item)
    if isinstance(item, oracle.MonomialStaircase):
        return _compute_staircase(item)
    return _compute_matrix(sweep.evaluate(item))


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _bound_line(v: dict) -> str:
    return (
        f"  {v['name']}: {v['factor']}*e = {v['lhs']} {v['relation']} {v['rhs']}"
        f"  holds={_flag(v['holds'])} sharp={_flag(v['sharp'])}"
    )


def _render_compute_text(result: dict) -> str:
    inst = result["instance"]
    lines: list[str] = []
    if "colength" in result:
        gens = " ".join(f"({p},{q})" for p, q in inst["gens"])
        return f"family: monomial2\nminimal generators: {gens}\ncolength: {result['colength']}"
    if "k_polynomial" in result:
        lines.append("family: betti")
        lines.append(f"projective dimension: {result['projective_dimension']}")
        lines.append(f"codim: {result['codim']}")
        lines.append(f"k_polynomial: {result['k_polynomial']}")
        lines.append("m: " + " ".join(map(str, result["shifts"]["m"])))
        lines.append("M: " + " ".join(map(str, result["shifts"]["M"])))
        lines.append(f"pure: {_flag(result['pure'])}  quasi_pure: {_flag(result['quasi_pure'])}")
        lines.append(f"multiplicity: {result['multiplicity']}")
        lines.append(f"genus_dim2: {result['genus_dim2']}")
        if "huneke_miller" in result:
            lines.append(f"huneke_miller: {result['huneke_miller']}")
        lines.extend(_bound_line(v) for v in result.get("bounds", []))
        return "\n".join(lines)
    family = inst["type"]
    lines.append(f"family: {family}")
    lines.append(f"t: {len(inst['a'])}")
    lines.append("a: " + " ".join(map(str, inst["a"])))
    lines.append("b: " + " ".join(map(str, inst["b"])))
    if family == "gor3":
        lines.append(f"d: {inst['d']}")
    for letter in "mM":
        lines.append("  ".join(f"{k}: {v}" for k, v in result["shifts"].items() if k[0] == letter))
    lines.append(f"pure: {_flag(result['pure'])}  quasi_pure: {_flag(result['quasi_pure'])}")
    mult = result["multiplicity"]
    lines.append(f"multiplicity: {mult['value']}")
    for route in list(mult)[1:-1]:  # the routes, between value and agree
        lines.append(f"  {route}: {mult[route]}")
    lines.append(f"  agree: {'yes' if mult['agree'] else 'NO'}")
    lines.append("bounds:")
    lines.extend(_bound_line(v) for v in result["bounds"])
    if "prop24" in result:
        p24 = result["prop24"]
        margin = p24["hyp_ii_margin"]
        margin_txt = "n/a" if margin is None else str(margin)
        lines.append(
            f"prop24 hypotheses: hyp_i={_flag(p24['hyp_i'])} "
            f"hyp_ii={_flag(p24['hyp_ii'])} (margin a1-2d+1 = {margin_txt})"
        )
    if "srinivasan_quasi_pure" in result:
        lines.append(f"srinivasan quasi_pure: {_flag(result['srinivasan_quasi_pure'])}")
    sharp = result["sharpness"]
    lines.append(
        f"sharpness: lower={_flag(sharp['lower_sharp'])} "
        f"upper={_flag(sharp['upper_sharp'])} pure={_flag(sharp['pure'])}"
    )
    return "\n".join(lines)


def _disagrees(result: dict) -> bool:
    mult = result.get("multiplicity")
    return isinstance(mult, dict) and not mult["agree"]


def _cmd_compute(args: argparse.Namespace) -> int:
    items = _load_inputs(args)
    disagree = _write_reports(
        args, items, _compute_result, _render_compute_text, "\n\n", _disagrees
    )
    return 1 if disagree else 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _matrix_text(inst: dict) -> str:
    """``a=.. b=..``, and `` d=..`` for gor3, of a matrix's JSON form."""
    text = f"a={','.join(map(str, inst['a']))} b={','.join(map(str, inst['b']))}"
    return text + (f" d={inst['d']}" if inst["type"] == "gor3" else "")


def _validate_text(doc: dict) -> str:
    if "codim" in doc:
        return f"valid betti table: p={len(doc['steps'])} codim={doc['codim']}"
    if doc["type"] == "monomial2":
        return f"valid monomial2: {len(doc['gens'])} minimal generators"
    return f"valid {doc['type']}: {_matrix_text(doc)}"


def _cmd_validate(args: argparse.Namespace) -> int:
    items = _load_inputs(args)
    _write_reports(
        args, items, lambda item: item.to_json_dict(), _validate_text, "\n", lambda doc: False
    )
    return 0


# ---------------------------------------------------------------------------
# oracle-check
# ---------------------------------------------------------------------------

def _oracle_report(item: Input) -> dict:
    if not isinstance(item, (cm2.DegreeMatrixCM2, gor3.DegreeMatrixGor3)):
        raise ParseError("oracle-check needs cm2 or gor3 matrices")
    ev = sweep.evaluate(item)
    agree = ev.agree()
    return {"instance": item.to_json_dict(), "routes": ev.routes, "agree": agree}


def _oracle_line(rep: dict) -> str:
    inst = rep["instance"]
    routes = " ".join(f"{k}={v}" for k, v in rep["routes"].items())
    agree = "yes" if rep["agree"] else "NO"
    return f"{inst['type']} {_matrix_text(inst)}: {routes} agree={agree}"


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    items = _load_inputs(args)
    disagree = _write_reports(
        args, items, _oracle_report, _oracle_line, "\n", lambda rep: not rep["agree"]
    )
    return 1 if disagree else 0


# ---------------------------------------------------------------------------
# sweep / hunt
# ---------------------------------------------------------------------------

def _sweep_family(args: argparse.Namespace) -> str:
    if args.cm2 and args.gor3:
        raise ParseError("choose one of --cm2 and --gor3")
    if args.cm2:
        return "cm2"
    if args.gor3:
        return "gor3"
    raise ParseError("sweep needs --cm2 or --gor3")


def _range_config(
    args: argparse.Namespace, family: str, checks: tuple[str, ...] | None = None
) -> sweep.SweepConfig:
    return sweep.SweepConfig(
        family=family,
        t_max=_parse_int(args.t_max, "--t-max"),
        entry_max=_parse_int(args.entry_max, "--entry-max"),
        checks=checks,
        jobs=_parse_int(args.jobs, "--jobs"),
    )


def _summary_text(report: sweep.SweepReport | sweep.HuntReport) -> str:
    """The text form of a sweep or hunt report: its counts, one line per
    anomaly (its check, kind and matrix, then its other fields as one
    JSON object) or per candidate, and the runtime."""
    if isinstance(report, sweep.HuntReport):
        lines = [
            f"hunt {report.target}: t <= {report.t_max}, entries <= {report.entry_max}"
            + (" (hypothesis-satisfying instances only)" if report.require_hypotheses else ""),
            f"instances checked: {report.instances_checked}",
            f"candidates: {len(report.candidates)}",
        ]
        for c in report.candidates:
            lines.append(f"  CANDIDATE {_matrix_text(c['instance'])}: {c['lhs']} vs {c['rhs']}")
    else:
        lines = [
            f"sweep {report.family}: t <= {report.t_max}, entries <= {report.entry_max}",
            f"instances checked: {report.instances_checked}",
            f"anomalies: {len(report.anomalies)}",
            f"sharp (pure) cases: {len(report.sharp_cases)}",
        ]
        if report.family == "cm2":
            lines.append(f"prop24 bound failures: {len(report.prop24_findings)}")
        for a in report.anomalies:
            fields = {k: v for k, v in a.items() if k not in ("check", "kind", "instance")}
            lines.append(f"  ANOMALY {a['check']} {a['kind']} on {_matrix_text(a['instance'])}: "
                         f"{json.dumps(fields)}")
    lines.append(f"runtime: {report.runtime_seconds:.2f}s")
    return "\n".join(lines)


def _write_summary(
    out: TextIO, report: sweep.SweepReport | sweep.HuntReport, fmt: str
) -> None:
    if fmt == "json":
        _write_json(out, [report.to_json_dict()], many=False)
    else:
        out.write(_summary_text(report) + "\n")


def _cmd_sweep(args: argparse.Namespace) -> int:
    checks = None if args.checks is None else tuple(args.checks.split(","))
    config = _range_config(args, _sweep_family(args), checks)
    with _output(args) as out:
        if args.format == "csv":
            report = sweep.write_sweep_csv(config, out)
        else:
            report = sweep.verify_all(config)
            _write_summary(out, report, args.format)
    return 0 if report.ok else 1


def _cmd_hunt(args: argparse.Namespace) -> int:
    config = _range_config(args, sweep.target_family(args.target))
    report = sweep.hunt(args.target, config, require_hypotheses=args.require_hypotheses)
    with _output(args) as out:
        if args.format == "csv":
            out.write(sweep.hunt_csv(report))
        else:
            _write_summary(out, report, args.format)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_matrix_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--cm2", action="store_true", help="codimension-2 matrix from --a/--b")
    sp.add_argument("--gor3", action="store_true", help="codimension-3 matrix from --a/--b/--d")
    sp.add_argument("--a", help="comma-separated diagonal entries a_1..a_t")
    sp.add_argument("--b", help="comma-separated superdiagonal entries b_1..b_t")
    sp.add_argument("--d", help="center entry (gor3 only)")
    sp.add_argument("--in", dest="infile", metavar="FILE",
                    help="JSON file holding one input object or a list of them")


def _add_output_flags(sp: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    sp.add_argument("--format", choices=formats, default="text")
    sp.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")


def _add_range_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--t-max", required=True)
    sp.add_argument("--entry-max", required=True)
    sp.add_argument("--jobs", default="1")
    _add_output_flags(sp, ("text", "json", "csv"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degmult",
        description=(
            "Exact multiplicities, bounds, sweeps, and counterexample hunts "
            "for codimension-2 Cohen-Macaulay and codimension-3 Gorenstein "
            "degree matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
        ("validate", "check inputs and print their canonical form", _cmd_validate),
        ("compute", "shifts, multiplicities, and all bound verdicts", _cmd_compute),
        ("oracle-check", "compare all multiplicity routes per matrix", _cmd_oracle_check),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_matrix_flags(sp)
        _add_output_flags(sp, ("text", "json"))
        sp.set_defaults(func=func)

    sp = sub.add_parser("sweep", help="verify every invariant over a bounded range")
    sp.add_argument("--cm2", action="store_true")
    sp.add_argument("--gor3", action="store_true")
    sp.add_argument("--checks", help="comma-separated subset of check names")
    _add_range_flags(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("hunt", help="search a range for counterexamples to one target")
    sp.add_argument("--target", required=True)
    sp.add_argument("--require-hypotheses", action="store_true",
                    help="only consider instances satisfying the target's hypotheses")
    _add_range_flags(sp)
    sp.set_defaults(func=_cmd_hunt)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.func(args)
    except (InternalMismatch, CharacterizationViolated) as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return 1
    except (DegmultError, ValueError) as exc:  # every other error is bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
    except BrokenPipeError:
        # The reader of the streamed report went away (``... | head``).
        # Stop quietly, and point stdout at /dev/null so the interpreter's
        # final flush of it cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
