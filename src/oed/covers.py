"""Exact vertex cover counting, three independent ways.

A subset S of vertices is a cover when every edge has an endpoint in S.
The count is computed by

* ``brute_force_vc_count``  : scan all 2^n vertex subsets (oracle),
* ``independent_set_count`` : scan counting independent sets, which
  equal covers in number because S covers iff V - S is independent
  (the bijection is asserted in tests, never assumed internally),
* ``vc_count_reduction``    : evaluate the census at x = 1/2,

      |covers| = 2^n - sum_k delta_k * 2^(n-k) = 2^n * W(1/2),

  with W(x) = 1 - D(x) the product of the components' polynomials. A
  component's W_c(x) = (1-x)^h_c I_c(x / (1-x)), I_c its independence
  polynomial sum_t B_t x^t on h_c vertices, so W_c(1/2) = 2^-h_c sum_t B_t
  and the count is 2^(isolated) * prod_c sum_t B_t. Each sum_t B_t = I_c(1)
  is the census's own W pass run at slot 0, where it returns the total
  and no coefficient is packed; no product of polynomials is formed. An
  isolated vertex adds no factor to W and one factor of 2 through 2^n.

All arithmetic is integer end to end; counts are exact at any size the
caps admit. The oracles are deliberately plain subset scans, structurally
unrelated to the census pipeline they validate.
"""

from __future__ import annotations

from math import prod

from .delta import _plan, _vertex_sums
from .errors import CapError
from .graph import Graph

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


def vc_count_reduction(g: Graph) -> int:
    """Cover count via the census: 2^n * W(1/2), exactly.

    2^h_c * W_c(1/2) = sum_t B_t, the component's number of independent
    sets, which its W pass returns at slot 0. The count is the product of
    these totals shifted left by n - h, h the vertices with an edge. The
    plan is priced as the graded W pass, so its price bounds this pass.
    """
    plan = _plan(g, False, product=False)
    count = prod(_vertex_sums(steps, 0, False) for _, steps in plan)
    return count << (g.n - sum(len(steps) for _, steps in plan))
