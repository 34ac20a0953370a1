"""Seeded inputs and call lists for the three workloads.

Every graph is generated here from the workload seed and written to a
file; the program under test only ever sees those files. A workload is a
list of ``Call``s that make up one pass; the runner repeats passes.

Graph shapes (vertex count, edge count, component sizes, isolated count)
are fixed per workload and only the wiring and labels depend on the
seed. The cost of a census call grows as 2^m, so letting m vary with the
seed would make a seed change look like a program change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Largest edge count whose census an enumeration engine can represent;
# calls above it (the component engine on wide graphs) have no 2^m - 1
# census size in the rate metrics.
ENUMERABLE_EDGE_CAP = 62


@dataclass
class Graph:
    """Edge list plus the shape facts the oracle and the counters need."""

    n: int
    edges: list[tuple[int, int]]
    name: str
    components: list[list[int]] = field(default_factory=list)
    isolated: int = 0

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass
class Call:
    """One CLI invocation: ``oed <argv...>`` on one generated graph.

    ``probe`` marks a call kept to show a known defect; it runs in every
    pass but is accounted apart from the workload's own calls.
    """

    argv: list[str]
    graph: Graph
    command: str
    fmt: str = "json"
    probe: bool = False


def _finish(name: str, n: int, edges: list[tuple[int, int]], rng: random.Random) -> Graph:
    """Relabel vertices by a seeded permutation, shuffle edge order, record shape."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    rng.shuffle(edges)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    comps = [g for g in groups.values() if len(g) > 1]
    isolated = sum(1 for g in groups.values() if len(g) == 1)
    return Graph(n=n, edges=edges, name=name, components=comps, isolated=isolated)


def _connected(k: int, e: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random connected simple graph on vertices 0..k-1 with exactly e edges."""
    if not k - 1 <= e <= k * (k - 1) // 2:
        raise ValueError(f"no connected simple graph with {k} vertices and {e} edges")
    edges = {(rng.randrange(v), v) for v in range(1, k)}
    while len(edges) < e:
        u, v = sorted(rng.sample(range(k), 2))
        edges.add((u, v))
    return sorted(edges)


def _union(parts: list[list[tuple[int, int]]], sizes: list[int], isolated: int):
    """Disjoint union of edge lists (each on 0..size-1) plus isolated vertices."""
    edges, base = [], 0
    for part, size in zip(parts, sizes):
        edges.extend((u + base, v + base) for u, v in part)
        base += size
    return base + isolated, edges


def prism(s: int) -> tuple[int, list[tuple[int, int]]]:
    edges = [(i, (i + 1) % s) for i in range(s)]
    edges += [(s + i, s + (i + 1) % s) for i in range(s)]
    edges += [(i, s + i) for i in range(s)]
    return 2 * s, edges


def complete(s: int) -> tuple[int, list[tuple[int, int]]]:
    return s, [(i, j) for i in range(s) for j in range(i + 1, s)]


def cube_q3() -> tuple[int, list[tuple[int, int]]]:
    return 8, [(a, a ^ b) for a in range(8) for b in (1, 2, 4) if a < a ^ b]


def gnp_exact(n: int, p: float, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p) redrawn until it has exactly m edges."""
    while True:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if len(edges) == m:
            return edges


def dense_sweep(rng: random.Random) -> list[tuple[Graph, list[list[str]]]]:
    """Census-bound graphs: the enumeration core takes >95% of each call.

    G(16, p) is held at exactly 22 edges (the middle of 20..24) so that
    every seed asks for the same census size. prism 8 (2^24 subsets) runs
    delta only, to keep a pass near ten seconds. The component engine runs
    once on cube_q3 so its fixed cost is traced here too.
    """
    g16 = _finish("gnp16_m22", 16, gnp_exact(16, 22 / 120, 22, rng), rng)
    return [
        (_finish("prism8", *prism(8), rng), [["delta"]]),
        (_finish("complete7", *complete(7), rng), [["delta"], ["count"]]),
        (_finish("cube_q3", *cube_q3(), rng),
         [["delta"], ["count"], ["delta", "--engine", "components"]]),
        (g16, [["delta"], ["count"]]),
    ]


# Per graph: (vertices, edges) of each component, then isolated vertices.
# Slot i is connected (i % 4 == 0), two components (1), connected with
# isolated vertices (2), or two components with isolated vertices (3);
# every graph has n <= 12 and m <= 14.
SMALL_SHAPES = [
    ([(6, 8)], 0), ([(4, 5), (5, 6)], 0), ([(7, 10)], 3), ([(3, 3), (4, 4)], 2),
    ([(8, 12)], 0), ([(5, 7), (3, 2)], 0), ([(6, 9)], 4), ([(4, 6), (4, 3)], 1),
    ([(9, 13)], 0), ([(6, 7), (5, 5)], 0), ([(8, 11)], 2), ([(5, 4), (3, 3)], 3),
    ([(10, 14)], 0), ([(6, 10), (4, 4)], 0), ([(9, 12)], 1), ([(4, 4), (5, 7)], 2),
    ([(7, 9)], 0), ([(3, 2), (6, 8)], 0), ([(10, 13)], 2), ([(5, 6), (5, 5)], 2),
]


def small_batch(rng: random.Random) -> list[tuple[Graph, list[list[str]]]]:
    """Start-up-bound calls: 20 small graphs, each through delta then count.

    Every third delta writes CSV; delta on a disconnected graph uses the
    component engine.
    """
    out = []
    for i, (parts, isolated) in enumerate(SMALL_SHAPES):
        sizes = [k for k, _ in parts]
        n, edges = _union([_connected(k, e, rng) for k, e in parts], sizes, isolated)
        delta = ["delta"]
        if len(parts) > 1:
            delta += ["--engine", "components"]
        if i % 3 == 1:
            delta += ["--format", "csv"]
        out.append((_finish(f"small{i}", n, edges, rng), [delta, ["count"]]))
    return out


def sparse_wide(rng: random.Random) -> list[tuple[Graph, list[list[str]]]]:
    """Wide graphs of many small components: polynomial products and scans.

    The probe has one edge and 14,998 isolated vertices; its exact cover
    count, 3 * 2^14998, has 4,516 decimal digits, past the interpreter's
    default 4,300-digit int-to-str limit.
    """
    wide = _union([_connected(8, 12, rng) for _ in range(200)], [8] * 200, 1200)
    tiny = _union([_connected(5, 6, rng) for _ in range(400)], [5] * 400, 1500)
    core = _union([_connected(16, 20, rng)], [16], 3000)
    probe = _finish("probe_n15000", 15000, [(0, 1)], rng)
    return [
        (_finish("wide200x8", *wide, rng), [["delta", "--engine", "components"]]),
        (_finish("tiny400x5", *tiny, rng), [["delta", "--engine", "components"]]),
        (_finish("core20_pad3000", *core, rng), [["count"]]),
        (probe, [["count"]]),
    ]


WORKLOADS = {"dense_sweep": dense_sweep, "small_batch": small_batch, "sparse_wide": sparse_wide}


def write_graph(g: Graph, path: Path, dimacs: bool) -> None:
    if dimacs:
        lines = [f"c generated {g.name}", f"p edge {g.n} {g.m}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in g.edges]
    else:
        lines = [f"# generated {g.name}", f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build(workload: str, seed: int, workdir: Path) -> list[Call]:
    """Generate the workload's graphs into ``workdir`` and return one pass of calls.

    In small_batch every fourth file is in DIMACS format.
    """
    rng = random.Random(f"{workload}:{seed}")
    calls = []
    for i, (g, commands) in enumerate(WORKLOADS[workload](rng)):
        dimacs = workload == "small_batch" and i % 4 == 3
        path = workdir / f"{g.name}.{'dimacs' if dimacs else 'txt'}"
        write_graph(g, path, dimacs)
        for cmd in commands:
            fmt = cmd[cmd.index("--format") + 1] if "--format" in cmd else "json"
            argv = [cmd[0], "--input", str(path), *cmd[1:]]
            calls.append(Call(argv=argv, graph=g, command=cmd[0], fmt=fmt,
                              probe=g.name.startswith("probe")))
    return calls
