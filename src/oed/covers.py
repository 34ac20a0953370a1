"""Cover oracles: three plain subset scans that check the census and its count.

A subset S of vertices is a cover when every edge has an endpoint in S.
The oracles are

* ``brute_force_vc_count``       : scan all 2^n vertex subsets for covers,
* ``independent_set_count``      : scan counting independent sets, which
  equal covers in number because S covers iff V - S is independent
  (the bijection is asserted in tests, never assumed internally),
* ``inclusion_exclusion_direct`` : the direct alternating sum over every
  nonempty edge subset F of (-1)^(|F|+1) 2^(n - |V(F)|), the non-cover
  count, so covers = 2^n - sum_k delta_k 2^(n-k) term by term.

Each 2^n scan admits at most VERTEX_CAP vertices, and is refused before
it starts when priced over DP_SECONDS at SCAN_SECONDS a subset, which is
from 26 vertices on. The direct sum admits at most IE_EDGE_CAP edges; the
cross-check in ``oed.verify`` gives the naive census engine the same
reach, since both cost about IE_SECONDS a subset.

The cover count itself, ``vc_count_reduction``, is computed in
``oed.delta`` from the census DP. All arithmetic is integer end to end.
The oracles are deliberately plain scans, structurally unrelated to the
census pipeline they validate, and this module imports nothing from it.
"""

from __future__ import annotations

from .errors import DP_SECONDS, CapError
from .graph import Graph

VERTEX_CAP = 28
IE_EDGE_CAP = 20

# Seconds per subset, for pricing a scan before it runs: about the slowest
# rates on one core of a 2-CPU x86 box with Python 3.11. Either 2^n scan
# took up to 0.9e-6 s a subset on complete graphs of 22 and 23 vertices,
# its slowest case, and the direct sum 1.2e-6 s at IE_EDGE_CAP edges.
SCAN_SECONDS = 1.0e-6
IE_SECONDS = 1.3e-6


def _check_scan(g: Graph, what: str) -> None:
    """Refuse a scan of 2^n vertex subsets past VERTEX_CAP, or priced at over DP_SECONDS."""
    if g.n > VERTEX_CAP:
        raise CapError(f"graph has {g.n} vertices, {what} supports at most {VERTEX_CAP}")
    estimate = (1 << g.n) * SCAN_SECONDS
    if estimate > DP_SECONDS:
        raise CapError(
            f"{what} of 2^{g.n} vertex subsets estimated at {estimate:.1f} s,"
            f" at most {DP_SECONDS} s is supported"
        )


def brute_force_vc_count(g: Graph) -> int:
    """Count vertex covers by scanning all 2^n subsets."""
    _check_scan(g, "the brute-force cover scan")
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
    _check_scan(g, "the independent-set scan")
    emasks = [(1 << u) | (1 << v) for u, v in g.edges]
    count = 0
    for s in range(1 << g.n):
        for em in emasks:
            if s & em == em:
                break
        else:
            count += 1
    return count


def inclusion_exclusion_direct(g: Graph) -> int:
    """Literal alternating-sum evaluation of the non-cover count.

    Sums (-1)^(|F|+1) * 2^(n - |V(F)|) over every nonempty edge subset F.
    Oracle grade only: capped at 20 edges. Returns 0 for an edgeless
    graph (an empty union).
    """
    n, m = g.n, g.m
    if m == 0:
        return 0
    if m > IE_EDGE_CAP:
        raise CapError(
            f"graph has {m} edges, the direct inclusion-exclusion oracle supports at most {IE_EDGE_CAP}"
        )
    emask = {1 << j: (1 << u) | (1 << v) for j, (u, v) in enumerate(g.edges)}
    total = 0
    for mask in range(1, 1 << m):
        s = mask
        vm = 0
        while s:
            b = s & -s
            vm |= emask[b]
            s ^= b
        term = 1 << (n - vm.bit_count())
        if mask.bit_count() & 1:
            total += term
        else:
            total -= term
    return total
