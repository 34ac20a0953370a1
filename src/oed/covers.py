"""Exact vertex cover counting, three independent ways.

A subset S of vertices is a cover when every edge has an endpoint in S.
The count is computed by

* ``brute_force_vc_count``  : scan all 2^n vertex subsets (oracle),
* ``independent_set_count`` : scan counting independent sets, which
  equal covers in number because S covers iff V - S is independent
  (the bijection is asserted in tests, never assumed internally),
* ``vc_count_reduction``    : strip isolated vertices, run a census
  engine on the remainder H, and combine

      |covers| = 2^|I| * (2^|V(H)| - sum_{k>=2} delta_k * 2^(|V(H)|-k))

All arithmetic is integer end to end; counts are exact at any size the
caps admit. The oracles are deliberately plain subset scans, structurally
unrelated to the census pipeline they validate.
"""

from __future__ import annotations

from .delta import ENGINES, DeltaProfile
from .errors import CapError
from .graph import Graph, strip_isolated

VERTEX_CAP = 28


def _check_vertex_cap(g: Graph, what: str) -> None:
    if g.n > VERTEX_CAP:
        raise CapError(f"graph has {g.n} vertices, {what} supports at most {VERTEX_CAP}")


def brute_force_vc_count(g: Graph) -> int:
    """Count vertex covers by scanning all 2^n subsets."""
    _check_vertex_cap(g, "the brute-force cover scan")
    emasks = [(1 << u) | (1 << v) for u, v in g.edges]
    count = 0
    for s in range(1 << g.n):
        for em in emasks:
            if not s & em:
                break
        else:
            count += 1
    return count


def independent_set_count(g: Graph) -> int:
    """Count independent sets by scanning all 2^n subsets."""
    _check_vertex_cap(g, "the independent-set scan")
    emasks = [(1 << u) | (1 << v) for u, v in g.edges]
    count = 0
    for s in range(1 << g.n):
        for em in emasks:
            if s & em == em:
                break
        else:
            count += 1
    return count


def reduced_count_no_isolated(g: Graph, profile: DeltaProfile) -> int:
    """Cover count of an isolated-free graph from its census.

    Evaluates 2^n - sum_{k=2}^{n} delta_k * 2^(n-k) exactly. The profile
    must have been computed from g itself.
    """
    isolated = g.n - len(g.endpoints())
    if isolated:
        raise ValueError(f"graph has isolated vertices ({isolated} of {g.n}); strip them first")
    if profile.n != g.n or len(profile.delta) != g.n + 1:
        raise ValueError(
            f"profile dimension mismatch: profile covers n={profile.n}, graph has n={g.n}"
        )
    n = g.n
    weighted = sum(profile.delta[k] << (n - k) for k in range(2, n + 1))
    return (1 << n) - weighted


def vc_count_reduction(g: Graph, engine: str = "components") -> int:
    """Cover count via the census pipeline.

    Strips isolated vertices, runs the census engine ``engine`` (an id
    from ``oed.delta.ENGINES``) on the remainder, and multiplies back the
    2^|I| factor contributed by the isolated vertices (each can freely be
    in or out of a cover). The count reads only delta, so the default is
    ``components``, which forms no parity split.
    """
    h = strip_isolated(g).stripped
    core = reduced_count_no_isolated(h, ENGINES[engine](h))
    return core << (g.n - h.n)
