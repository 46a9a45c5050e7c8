"""Fixed reference work in a fresh interpreter, to gauge the host's speed.

    python3 benchmarks/hostref.py

``run.py`` times this script from launch to exit many times in a run,
next to the set-up probes.  It starts the interpreter, imports a fixed
set of stdlib modules and does fixed pure-Python work with small tuples,
dicts and a pickle round trip, the kind of work the program does.  It
uses nothing of the program, so its time depends on the host alone; see
``run.py`` for how it scales the time metrics.
"""
import fractions  # noqa: F401
import itertools
import json
import pickle
import statistics  # noqa: F401


def main() -> int:
    seen = {}
    acc = 0
    for i, j in itertools.product(range(300), range(100)):
        key = (i % 97, j, (i * j) % 13)
        acc += sum(key) % 11
        seen[key] = acc
    rows = [(i, i + 1, (i * 7) % 13, i // 3) for i in range(20_000)]
    blob = pickle.dumps(rows)
    return 0 if len(pickle.loads(blob)) + len(json.dumps(rows[:100])) > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
