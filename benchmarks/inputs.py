"""Benchmark inputs that do not come from the program under test.

``compute_input`` builds the seeded matrix list for the compute workload.
``range_counts`` counts a sweep range in closed form, without calling
``enumerate_cm2``, so the instance counts the program reports can be
cross-checked.  ``reference_multiplicity`` re-derives ``e`` from the
staircase of the witness monomial ideal (cm2) and from the Pfaffian
entry-degree formula (gor3), written here from the formulas alone.
"""
from __future__ import annotations

import random


def compute_input(seed: int, n: int, t_lo: int, t_hi: int, entry_max: int) -> list[dict]:
    """``n`` valid matrices, the first half cm2 and the rest gor3.

    Valid by construction: a_i in [1, entry_max], b_i drawn from
    [max(a_i, a_{i+1}), entry_max], and the gor3 center d from
    [a_1, entry_max].
    """
    rng = random.Random(seed)
    docs = []
    for k in range(n):
        t = rng.randint(t_lo, t_hi)
        a = [rng.randint(1, entry_max) for _ in range(t)]
        b = [
            rng.randint(max(a[i], a[i + 1]) if i + 1 < t else a[i], entry_max)
            for i in range(t)
        ]
        if k < n // 2:
            docs.append({"type": "cm2", "a": a, "b": b})
        else:
            docs.append({"type": "gor3", "a": a, "b": b, "d": rng.randint(a[0], entry_max)})
    return docs


def reference_multiplicity(doc: dict) -> int:
    """Multiplicity of one input document, independent of the program.

    cm2: the witness staircase x^(a_1+..+a_j) y^(b_{j+1}+..+b_t) has
    colength sum_j (a_1+..+a_j) b_j.  gor3: sum_j b_j (a_1+..+a_j)
    (d + sum_{i<j} (2 b_i - a_i) + b_j - a_j).
    """
    total = prefix = 0
    acc = doc.get("d", 0)
    for aj, bj in zip(doc["a"], doc["b"]):
        prefix += aj
        if doc["type"] == "cm2":
            total += prefix * bj
        else:
            total += bj * prefix * (acc + bj - aj)
            acc += 2 * bj - aj
    return total


def range_counts(family: str, t_max: int, entry_max: int) -> tuple[int, int]:
    """(instances, extension children) of a sweep range, in closed form.

    A cm2 instance is a chain a_1..a_t in [1, E] with b_i ranging over
    [max(a_i, a_{i+1}), E] (b_t over [a_t, E]); a gor3 instance adds a
    center d in [a_1, E].  The extension check appends every pair
    (a, b) with 1 <= a <= min(b, b_t), b <= E, so an instance with
    trailing entry b_t has sum_{b=1..E} min(b, b_t) children.  Both
    sums are a dynamic programme over a_i with the b-range sizes as
    transition weights.
    """
    E = entry_max
    values = range(1, E + 1)
    start = {a: (E - a + 1 if family == "gor3" else 1) for a in values}
    children_of = {bt: sum(min(b, bt) for b in values) for bt in values}
    end_count = {a: E - a + 1 for a in values}
    end_children = {a: sum(children_of[bt] for bt in range(a, E + 1)) for a in values}
    instances = children = 0
    ways = dict(start)
    for _ in range(t_max):
        instances += sum(ways[a] * end_count[a] for a in values)
        children += sum(ways[a] * end_children[a] for a in values)
        ways = {
            nxt: sum(ways[a] * (E - max(a, nxt) + 1) for a in values)
            for nxt in values
        }
    return instances, children
