"""Output checks that share no code with the program under test.

The cover count of a graph is the product over its components of a
plain scan of all vertex subsets of the component, times 2^isolated.
A ``count`` output must equal it. A ``delta`` output must satisfy

    sum O + sum E = 2^m - 1,   O_k - E_k = delta_k,   sum delta = 1 (0 if m = 0),
    2^n - sum_k delta_k 2^(n-k) = cover count,

where the first two apply only when the engine reports the parity split.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from contextlib import contextmanager

from workloads import Graph


def cover_count(g: Graph) -> int:
    """Exact number of vertex covers, by brute force per component."""
    total = 1
    for comp in g.components:
        index = {v: i for i, v in enumerate(comp)}
        masks = [(1 << index[u]) | (1 << index[v]) for u, v in g.edges if u in index]
        count = 0
        for s in range(1 << len(comp)):
            for em in masks:
                if not s & em:
                    break
            else:
                count += 1
        total *= count
    return total << g.isolated


@contextmanager
def unlimited_int_digits():
    """Let the checker parse answers longer than the default 4300-digit limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _parse_delta(text: str, fmt: str) -> tuple[int, list | None, list | None, list]:
    if fmt == "json":
        obj = json.loads(text)
        as_ints = lambda xs: None if xs is None else [int(x) for x in xs]
        return obj["n"], as_ints(obj["O"]), as_ints(obj["E"]), as_ints(obj["delta"])
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["k", "odd", "even", "delta"]:
        raise ValueError(f"bad CSV header {rows[0]}")
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(len(body))):
        raise ValueError("CSV rows are not k = 0..n in order")
    odd = None if body[0][1] == "" else [int(r[1]) for r in body]
    even = None if body[0][2] == "" else [int(r[2]) for r in body]
    return len(body) - 1, odd, even, [int(r[3]) for r in body]


def check(command: str, fmt: str, g: Graph, covers: int, stdout: str) -> str | None:
    """Return None when ``stdout`` is a correct answer for ``g``, else the reason."""
    try:
        with unlimited_int_digits():
            if command == "count":
                obj = json.loads(stdout)
                if int(obj["count"]) != covers:
                    return "count differs from the oracle's cover count"
                shape = (obj["n"], obj["m"], obj["isolated"])
                want = (g.n, g.m, g.isolated)
                return None if shape == want else f"count output n, m, isolated {shape} != {want}"
            n, odd, even, delta = _parse_delta(stdout, fmt)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {exc}"
    if n != g.n or len(delta) != n + 1:
        return f"delta has n={n}, length {len(delta)}; graph has n={g.n}"
    if (odd is None) != (even is None):
        return "only one of O and E is present"
    if odd is not None:
        if len(odd) != n + 1 or len(even) != n + 1:
            return "O or E has the wrong length"
        if sum(odd) + sum(even) != (1 << g.m) - 1:
            return "sum O + sum E != 2^m - 1"
        if any(o - e != d for o, e, d in zip(odd, even, delta)):
            return "O - E != delta"
    if sum(delta) != (1 if g.m else 0):
        return "sum delta != 1"
    if (1 << n) - sum(d << (n - k) for k, d in enumerate(delta)) != covers:
        return "2^n - sum delta_k 2^(n-k) != cover count"
    return None
