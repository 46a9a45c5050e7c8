"""Fuzz of the command line's loaders and flags: whatever the input,
``cli.main`` returns 0, 1 or 2 and lets no exception escape.

Everything runs in-process.  Integers stay within |x| <= 10^4, so no
Betti table can ask for a huge K-polynomial here, and sweeps and hunts
enumerate nothing and start no worker pool.
"""
import contextlib
import io
import json
import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from degmult import cli, sweep

from strategies import betti_tables, cm2_matrices, gor3_matrices, staircases

BOUND = 10**4
SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ints = st.integers(-3, 12) | st.integers(-BOUND, BOUND)
scalars = (
    st.none() | st.booleans() | ints | st.text(max_size=6)
    | st.floats(allow_nan=True, allow_infinity=True)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
int_lists = st.lists(ints, min_size=0, max_size=5)
near_valid = st.one_of(
    st.fixed_dictionaries({"type": st.just("cm2"), "a": int_lists, "b": int_lists}),
    st.fixed_dictionaries(
        {"type": st.just("gor3"), "a": int_lists, "b": int_lists, "d": ints | json_values}
    ),
    st.fixed_dictionaries({
        "type": st.just("monomial2"),
        "gens": st.lists(st.lists(ints, min_size=1, max_size=3), max_size=5),
    }),
    st.fixed_dictionaries({
        "codim": ints | json_values,
        "steps": st.lists(
            st.lists(st.lists(ints, min_size=1, max_size=3), max_size=4), max_size=4
        ),
    }),
    st.dictionaries(
        st.sampled_from(["type", "a", "b", "d", "gens", "codim", "steps"]),
        json_values,
        max_size=4,
    ),
)
valid = st.one_of(cm2_matrices(), gor3_matrices(), staircases(), betti_tables()).map(
    lambda item: item.to_json_dict()
)


@st.composite
def mutated(draw):
    """A valid document with one key dropped or given another value."""
    doc = draw(valid)
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(ints | json_values)
    return doc


shapes = valid | mutated() | near_valid | json_values
documents = shapes | st.lists(shapes, max_size=4)

int_text = st.one_of(
    ints.map(str),
    st.text(alphabet="0123456789-+_ ,\n٣x", max_size=8),
    st.text(max_size=6),
)


def _joined(xs):
    return ",".join(map(str, xs))


int_list_text = int_text | st.lists(ints, min_size=1, max_size=5).map(_joined)


def run_main(argv):
    """cli.main's exit code, with stdout and stderr captured."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def no_enumeration():
    """Sweeps and hunts enumerate nothing, and a worker pool is an error."""
    def no_pool(*args, **kwargs):
        raise AssertionError("the fuzz must start no worker pool")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_ordered", lambda fn, config: iter(()))
        mp.setattr(multiprocessing, "Pool", no_pool)
        yield


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@SETTINGS
@given(
    st.sampled_from(["validate", "compute", "oracle-check"]),
    documents,
    st.sampled_from(["text", "json"]),
)
def test_input_files(doc_path, verb, doc, fmt):
    doc_path.write_text(json.dumps(doc))
    assert run_main([verb, "--in", str(doc_path), "--format", fmt]) in (0, 1, 2)


@st.composite
def inline_flags(draw):
    """--a/--b/--d strings, from a valid matrix some of the time."""
    family = draw(st.sampled_from([["--cm2"], ["--gor3"], ["--cm2", "--gor3"], []]))
    if draw(st.booleans()):
        G = draw(gor3_matrices())
        values = [_joined(G.base.a), _joined(G.base.b), str(G.d) if "--gor3" in family else None]
        if draw(st.booleans()):
            values[draw(st.integers(0, 2))] = draw(st.none() | int_text)
    else:
        values = [draw(st.none() | int_list_text) for _ in range(2)]
        values.append(draw(st.none() | int_text))
    flags = [f"{flag}={v}" for flag, v in zip(("--a", "--b", "--d"), values) if v is not None]
    return family + flags


@SETTINGS
@given(st.sampled_from(["validate", "compute", "oracle-check"]), inline_flags())
def test_inline_flags(verb, flags):
    assert run_main([verb, *flags]) in (0, 1, 2)


@SETTINGS
@given(
    st.sampled_from(
        [["sweep", "--cm2"], ["sweep", "--gor3"], ["sweep"],
         ["hunt", "--target", "prop24_bound"], ["hunt", "--target", "srinivasan_upper_gor3"],
         ["hunt", "--target", "nonsense"]]
    ),
    int_text,
    int_text,
    st.none() | int_text,
    st.none() | st.text(alphabet="abcdehilmnorstuvxy_,", max_size=30),
    st.sampled_from(["text", "json", "csv"]),
)
def test_range_flags(no_enumeration, verb, t_max, entry_max, jobs, checks, fmt):
    argv = [*verb, f"--t-max={t_max}", f"--entry-max={entry_max}", "--format", fmt]
    if jobs is not None:
        argv.append(f"--jobs={jobs}")
    if checks is not None and verb[0] == "sweep":
        argv.append(f"--checks={checks}")
    assert run_main(argv) in (0, 1, 2)
