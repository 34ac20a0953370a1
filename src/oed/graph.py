"""Immutable simple undirected graphs: construction, parsing, generators.

Vertices are dense integer ids in [0, n). Edges are stored in canonical
order (sorted by (min endpoint, max endpoint)) so that every enumeration
over edge subsets is deterministic and subset bitmasks are reproducible:
bit i of a mask always refers to ``graph.edges[i]``.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, NamedTuple

from .errors import CapError, GraphError, ParseError

# Bound on the vertex count of a parsed or generated graph, checked before
# any per-vertex allocation: a ten-byte header must not cost gigabytes.
MAX_VERTICES = 1_000_000

# Bound on the edge count of a generated graph, checked before building it.
MAX_GENERATED_EDGES = 1_000_000

# Longest integer token the parser converts. Every count and id the caps
# admit has at most 12 digits; the rest leaves room for signs, leading
# zeros and underscores.
MAX_TOKEN_CHARS = 32

# Input quoted in an error message is cut after this many characters.
_QUOTE_CHARS = 40


class Edge(NamedTuple):
    """Undirected edge with endpoints normalized so that u < v."""

    u: int
    v: int


class Graph(NamedTuple("Graph", [("n", int), ("edges", tuple[Edge, ...])])):
    """Simple undirected graph on vertices 0..n-1.

    A graph is the named pair (n, edges): its vertex count and its
    canonical edge tuple; nothing is stored per vertex. Equality and hash
    are those of the pair. ``adjacency[v]``, the neighbor set of v (the
    symmetric closure of ``edges``), is derived on first use and cached in
    the instance dict, and every isolated vertex shares one empty set. The
    fields cannot be reassigned, and instances are safe to share between
    threads.
    """

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unordered endpoint pairs, validating simplicity."""
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        seen: set[Edge] = set()
        edges: list[Edge] = []
        for u, v in pairs:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
            e = Edge(u, v) if u < v else Edge(v, u)
            if e in seen:
                raise GraphError(f"duplicate edge ({e.u}, {e.v})")
            seen.add(e)
            edges.append(e)
        edges.sort()
        return cls(n, tuple(edges))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        neighbors: dict[int, set[int]] = {}
        for u, v in self.edges:
            neighbors.setdefault(u, set()).add(v)
            neighbors.setdefault(v, set()).add(u)
        none: frozenset[int] = frozenset()  # frozenset(none) is none itself
        return tuple(frozenset(neighbors.get(v, none)) for v in range(self.n))

    def endpoints(self) -> set[int]:
        """The vertices with an edge, i.e. every vertex that is not isolated."""
        return {x for e in self.edges for x in e}

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class IsolatedSplit(NamedTuple):
    """A graph with its isolated vertices split off.

    ``stripped`` is the graph on the non-isolated vertices, relabeled to
    dense ids via ``relabel_map`` (original id -> new id); a vertex
    missing from ``relabel_map`` is isolated.
    """

    stripped: Graph
    relabel_map: dict[int, int]


# ---------------------------------------------------------------------------
# parsing / serialization


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse edge-list text into a Graph.

    Two formats are autodetected on the first significant line:

    * native: header ``n m``, then exactly m lines ``u v`` with 0-based
      vertex ids; lines starting with ``#`` and blank lines are ignored.
    * DIMACS-like: header ``p edge n m``, edge lines ``e u v`` with
      1-based ids, comment lines starting with ``c``.

    Raises ParseError with the offending line number for malformed
    headers, out-of-range ids, self-loops, duplicate edges, and
    edge-count mismatches. Raises CapError for a header declaring more
    than MAX_VERTICES vertices, or a number token longer than
    MAX_TOKEN_CHARS characters.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    significant: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        significant.append((lineno, line))
    if not significant:
        raise ParseError("no header line found (input is empty or all comments)")
    first = significant[0][1]
    if first[0] in ("p", "c") and (len(first) == 1 or first[1].isspace()):
        return _parse(_DIMACS, significant)
    return _parse(_NATIVE, significant)


# The two input formats, one row each: the tokens before "n m" on the
# header line, the token before "u v" on an edge line ("" for none), the id
# of the first vertex, whether a line whose first token is "c" is a
# comment, the header and edge shapes named in errors, and the valid ids
# (formatted with n).
_NATIVE = ((), "", 0, False, "n m", "u v", "[0, {})")
_DIMACS = (("p", "edge"), "e", 1, True, "p edge n m", "e u v", "[1, {}]")


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise CapError(f"graph has {n} vertices, at most {MAX_VERTICES} are supported")


def _quote(text: str) -> str:
    """repr of input text for an error message, cut short when long."""
    return repr(text) if len(text) <= _QUOTE_CHARS else f"{text[:_QUOTE_CHARS]!r}..."


def _parse_int(token: str, lineno: int, what: str) -> int:
    # int() is quadratic in the length of its input, so refuse long tokens first.
    if len(token) > MAX_TOKEN_CHARS:
        raise CapError(
            f"line {lineno}: {what} {_quote(token)} has {len(token)} characters,"
            f" at most {MAX_TOKEN_CHARS} are supported"
        )
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: {what} {_quote(token)} is not an integer") from None


def _parse(fmt: tuple, lines: list[tuple[int, str]]) -> Graph:
    header_tags, tag, base, c_comments, header_shape, edge_shape, id_range = fmt
    if c_comments:
        lines = [(lineno, line) for lineno, line in lines if line.split()[0] != "c"]
        if not lines:
            raise ParseError("no 'p edge' header line found in DIMACS input")
    lineno, header = lines[0]
    parts = header.split()
    skip = len(header_tags)
    if len(parts) != skip + 2 or parts[:skip] != list(header_tags):
        raise ParseError(
            f"line {lineno}: malformed header {_quote(header)}, expected '{header_shape}'"
        )
    n = _parse_int(parts[skip], lineno, "vertex count")
    m = _parse_int(parts[skip + 1], lineno, "edge count")
    if n < 0 or m < 0:
        raise ParseError(f"line {lineno}: header counts must be nonnegative")
    _check_vertex_count(n)
    body = lines[1:]
    if len(body) < m:
        raise ParseError(f"edge count mismatch: header declares {m} edges, found {len(body)}")
    if len(body) > m:
        raise ParseError(f"line {body[m][0]}: unexpected extra line, header declares {m} edges")
    skip = 1 if tag else 0
    width = skip + 2
    seen: dict[Edge, int] = {}  # edge -> line of its first occurrence
    duplicate = ""
    for lineno, line in body:
        parts = line.split()
        if len(parts) != width or (tag and parts[0] != tag):
            raise ParseError(
                f"line {lineno}: malformed edge line {_quote(line)}, expected '{edge_shape}'"
            )
        try:
            # A line this short holds no token too long for int(); any
            # other line, or a bad token, goes through _parse_int's checks.
            if len(line) > MAX_TOKEN_CHARS:
                raise ValueError
            u = int(parts[skip]) - base
            v = int(parts[skip + 1]) - base
        except ValueError:
            u = _parse_int(parts[skip], lineno, "vertex id") - base
            v = _parse_int(parts[skip + 1], lineno, "vertex id") - base
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: vertex id out of range {id_range.format(n)}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u + base}")
        first = seen.setdefault(Edge(u, v) if u < v else Edge(v, u), lineno)
        if first != lineno and not duplicate:
            duplicate = f"line {lineno}: duplicate edge ({u}, {v}), first seen on line {first}"
    # A malformed line anywhere outranks a duplicate, so it is raised last.
    if duplicate:
        raise ParseError(duplicate)
    return Graph(n, tuple(sorted(seen)))


def to_edge_list(g: Graph) -> str:
    """Serialize a graph in the native edge-list format (canonical edge order)."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{e.u} {e.v}" for e in g.edges)
    return "\n".join(out) + "\n"


def load_graph(path) -> Graph:
    """Read and parse a graph file."""
    with open(path, "rb") as fh:
        return parse_edge_list(fh.read())


# ---------------------------------------------------------------------------
# transformations


def strip_isolated(g: Graph) -> IsolatedSplit:
    """Split off the degree-0 vertices, relabeling the remainder densely."""
    relabel = {v: i for i, v in enumerate(sorted(g.endpoints()))}
    stripped = Graph.from_edges(len(relabel), [(relabel[e.u], relabel[e.v]) for e in g.edges])
    return IsolatedSplit(stripped=stripped, relabel_map=relabel)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; b's vertices are shifted up by a.n."""
    pairs = [(e.u, e.v) for e in a.edges]
    pairs.extend((e.u + a.n, e.v + a.n) for e in b.edges)
    return Graph.from_edges(a.n + b.n, pairs)


def add_isolated(g: Graph, t: int) -> Graph:
    """Append t isolated vertices."""
    if t < 0:
        raise GraphError(f"cannot add {t} vertices")
    return Graph.from_edges(g.n + t, [(e.u, e.v) for e in g.edges])


# ---------------------------------------------------------------------------
# generators


def gen_family(name: str, size: int | None = None) -> Graph:
    """Build a named test-family graph.

    Families: path, cycle, complete, complete_bipartite (K_{s,s}), star
    (on ``size`` vertices), cube_q3 (the 3-dimensional hypercube; ignores
    ``size``), prism (over a cycle of length ``size``; requires ``size``
    even and >= 4 so the result is 3-regular, planar and bipartite).
    Raises CapError before building a graph of more than MAX_VERTICES
    vertices or MAX_GENERATED_EDGES edges.
    """
    if name == "cube_q3":
        return Graph.from_edges(8, [(a, a ^ b) for a in range(8) for b in (1, 2, 4) if a < a ^ b])
    family = _FAMILIES.get(name)
    if family is None:
        raise ValueError(f"unknown family {name!r}; known families: {', '.join(FAMILY_NAMES)}")
    if size is None:
        raise ValueError(f"family {name!r} requires a size")
    smallest, even, shape, pairs = family
    # The caps come first; a size below the minimum is counted as 0 here.
    n, m = shape(max(size, 0))
    _check_vertex_count(n)
    if m > MAX_GENERATED_EDGES:
        raise CapError(f"graph has {m} edges, at most {MAX_GENERATED_EDGES} are supported")
    if size < smallest or (even and size % 2):
        rule = "even and >=" if even else ">="
        raise ValueError(f"{name} size must be {rule} {smallest}, got {size}")
    return Graph.from_edges(n, pairs(size))


# The sized families, one row each: the smallest size, whether the size
# must be even, the vertex and edge counts for a size, and the edge pairs
# for a size. A prism needs an even cycle length: an odd one gives odd
# cycles, breaking bipartiteness.
_FAMILIES = {
    "path": (1, False, lambda s: (s, s - 1), lambda s: [(i, i + 1) for i in range(s - 1)]),
    "cycle": (3, False, lambda s: (s, s), lambda s: [(i, (i + 1) % s) for i in range(s)]),
    "complete": (1, False, lambda s: (s, s * (s - 1) // 2), lambda s: combinations(range(s), 2)),
    "complete_bipartite": (
        1, False, lambda s: (2 * s, s * s), lambda s: product(range(s), range(s, 2 * s))
    ),
    "star": (1, False, lambda s: (s, s - 1), lambda s: [(0, i) for i in range(1, s)]),
    "prism": (
        4,
        True,
        lambda s: (2 * s, 3 * s),
        lambda s: [
            p for i in range(s) for p in ((i, (i + 1) % s), (s + i, s + (i + 1) % s), (i, s + i))
        ],
    ),
}

FAMILY_NAMES: tuple[str, ...] = tuple(sorted(list(_FAMILIES) + ["cube_q3"]))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi style G(n, p) with a deterministic seeded generator.

    The same (n, p, seed) always produces the same edge list: pairs are
    visited in lexicographic order and included when the next draw from
    ``random.Random(seed)`` falls below p.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    import random  # only here, so a cold delta or count does not load it

    rng = random.Random(seed)
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, pairs)


# ---------------------------------------------------------------------------
# structural properties


def connected_components(g: Graph) -> tuple[frozenset[int], ...]:
    """Vertex sets of the connected components, ordered by smallest member."""
    seen = [False] * g.n
    comps: list[frozenset[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        comp = {start}
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return tuple(comps)
