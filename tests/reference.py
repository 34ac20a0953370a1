"""Brute-force reference implementations used only by the tests.

Everything here works on (n, edge pair list) with itertools and Python
sets, no bitmasks (save the DP steps that ``reference_plan`` spells out)
and no shared code with the package, so agreement with the engines is
evidence rather than tautology. Usable only at tiny sizes.
The command line has an oracle too: the standard library's argparse,
configured as the ``oed`` command's parser was before it was table-driven.
"""

import argparse
from itertools import chain, combinations
from math import comb


def subsets(items):
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def reference_census(n, edges):
    """(odd, even) arrays over nonempty edge subsets, indexed by |V(F)|."""
    odd = [0] * (n + 1)
    even = [0] * (n + 1)
    for subset in subsets(edges):
        if not subset:
            continue
        vertices = set()
        for u, v in subset:
            vertices.add(u)
            vertices.add(v)
        if len(subset) % 2:
            odd[len(vertices)] += 1
        else:
            even[len(vertices)] += 1
    return odd, even


def complete_graph_census(n):
    """(odd, even) census of K_n in closed form, for any n.

    For k >= 1, K_k's edge subsets that touch all k vertices number
    sum_j (-1)^j C(k, j) 2^C(k-j, 2) by inclusion-exclusion over the
    untouched vertices; weighting each by (-1)^|F| leaves
    sum_j (-1)^j C(k, j) [k - j <= 1]. K_n has C(n, k) such k-sets.
    """
    odd = [0] * (n + 1)
    even = [0] * (n + 1)
    for k in range(1, n + 1):
        total = sum((-1) ** j * comb(k, j) * 2 ** comb(k - j, 2) for j in range(k + 1))
        signed = sum((-1) ** j * comb(k, j) for j in range(k + 1) if k - j <= 1)
        odd[k] = comb(n, k) * (total - signed) // 2
        even[k] = comb(n, k) * (total + signed) // 2
    return odd, even


def reference_two_colouring(n, edges):
    """Sides (A, B) of a 2-colouring with every edge between them, or None.

    Grows each side from the lowest uncoloured vertex, one ring of
    neighbours at a time, and gives up at an edge inside one side.
    """
    side_a, side_b = set(), set()
    for start in range(n):
        if start in side_a or start in side_b:
            continue
        side_a.add(start)
        ring = {start}
        while ring:
            grown = set()
            for u, v in edges:
                for x, y in ((u, v), (v, u)):
                    if x not in ring:
                        continue
                    own, other = (side_a, side_b) if x in side_a else (side_b, side_a)
                    if y in own:
                        return None
                    if y not in other:
                        other.add(y)
                        grown.add(y)
            ring = grown
    return side_a, side_b


def reference_plan(n, edges):
    """(m_c, steps) per component, in the frontier DP's greedy vertex order.

    A vertex is on the frontier once it is taken while an untaken
    neighbour remains, and until it has none. With the frontier empty the
    lowest untaken id of a vertex with an edge comes next; otherwise every
    untaken neighbour of the frontier is scored by (opens - closes,
    -linked, id) and the smallest score comes next. It opens if it has an
    untaken neighbour, closes each frontier neighbour it is the last
    untaken neighbour of, and is linked to each frontier neighbour. A
    frontier vertex holds the lowest bit position free when it joins. A
    step is (bits of the frontier neighbours, bits of those it closes,
    its own bit or 0).
    """
    near = {v: set() for v in range(n)}
    for u, v in edges:
        near[u].add(v)
        near[v].add(u)
    taken, frontier, plan = set(), {}, []  # frontier: vertex -> bit position

    def untaken(v):
        return {u for u in near[v] if u not in taken}

    def score(v, waiting):
        linked = [u for u in near[v] if u in frontier]
        closes = sum(1 for u in linked if waiting[u] == {v})
        opens = 1 if untaken(v) else 0
        return (opens - closes, -len(linked), v)

    for start in range(n):
        if start in taken or not near[start]:
            continue
        steps, inside, v = [], {start}, start
        while True:
            linked = [u for u in near[v] if u in frontier]
            taken.add(v)
            inside |= near[v]
            closed = [u for u in linked if not untaken(u)]
            inner = sum(1 << frontier[u] for u in linked)
            drop = sum(1 << frontier.pop(u) for u in closed)
            vbit = 0
            if untaken(v):
                bit = min(set(range(len(frontier) + 1)) - set(frontier.values()))
                frontier[v] = bit
                vbit = 1 << bit
            steps.append((inner, drop, vbit))
            if not frontier:
                break
            waiting = {w: untaken(w) for w in frontier}
            v = min(score(u, waiting) for w in frontier for u in waiting[w])[2]
        plan.append((sum(1 for u, w in edges if u in inside), steps))
    return plan


def binomial_expansion(h, counts):
    """Coefficients of sum_t c_t x^t (1 - x)^(h - t), term by term: k gives sum_t c_t (-1)^(k-t) C(h-t, k-t)."""
    return [
        sum(c * (-1) ** (k - t) * comb(h - t, k - t) for t, c in enumerate(counts[: k + 1]))
        for k in range(h + 1)
    ]


def prism_census(s):
    """(odd, even) census of the prism over an s-cycle, s >= 3, by transfer matrices.

    The prism has s rungs {i, s + i} in a ring, rung i joined to rung
    i + 1 (mod s) at both ends. A rung's state is which of its two vertices
    lie in a vertex set T. Going round the ring, each rung's state tau,
    after the state sigma of the rung before it, weighs y^|tau| times, for
    A, 2 to the edges inside tau and between sigma and tau, and for B, 1
    when there are no such edges and 0 otherwise. The coefficient of y^t in
    the trace of the s-th power of the 4 x 4 matrix of weights is A_t, the
    sum of 2^e(T) over the t-vertex sets T, or B_t, the number of
    independent ones (Stanley, Enumerative Combinatorics 1, 4.7). Then
    P(x) = sum_t A_t x^t (1 - x)^(2s - t) counts the edge subsets F by
    x^|V(F)|, the empty one included, W(x) likewise from B_t counts them
    signed by (-1)^|F|, and O_k = (P_k - W_k) / 2, E_k = (P_k + W_k) / 2
    for k >= 1.
    """
    h = 2 * s
    states = [(a, b) for a in (0, 1) for b in (0, 1)]

    def trace(weight):
        total = [0] * (h + 1)
        for start in states:
            row = {state: [0] * (h + 1) for state in states}  # polynomials in y
            row[start][0] = 1
            for _ in range(s):
                after = {state: [0] * (h + 1) for state in states}
                for sigma, poly in row.items():
                    for tau in states:
                        w = weight(tau[0] * tau[1] + sigma[0] * tau[0] + sigma[1] * tau[1])
                        shift = sum(tau)
                        target = after[tau]
                        for t in range(h + 1 - shift):
                            target[t + shift] += w * poly[t]
                row = after
            total = [a + b for a, b in zip(total, row[start])]
        return total

    p = binomial_expansion(h, trace(lambda e: 2**e))
    w = binomial_expansion(h, trace(lambda e: int(e == 0)))
    odd = [0] + [(pk - wk) // 2 for pk, wk in zip(p[1:], w[1:])]
    even = [0] + [(pk + wk) // 2 for pk, wk in zip(p[1:], w[1:])]
    return odd, even


def reference_delta(n, edges):
    odd, even = reference_census(n, edges)
    return [o - e for o, e in zip(odd, even)]


def reference_vc_count(n, edges):
    """Number of vertex subsets containing an endpoint of every edge."""
    count = 0
    for subset in subsets(range(n)):
        s = set(subset)
        if all(u in s or v in s for u, v in edges):
            count += 1
    return count


def reference_independent_count(n, edges):
    """Number of vertex subsets spanning no edge."""
    count = 0
    for subset in subsets(range(n)):
        s = set(subset)
        if all(not (u in s and v in s) for u, v in edges):
            count += 1
    return count


def reference_non_cover_count(n, edges):
    return 2**n - reference_vc_count(n, edges)


def census_cover_count(profile):
    """Covers read off a census by the paper's identity: 2^n - sum_k delta_k 2^(n-k)."""
    n = profile.n
    return 2**n - sum(d * 2 ** (n - k) for k, d in enumerate(profile.delta))


ENGINE_NAMES = ["components", "frontier", "gray", "naive"]
FAMILY_NAMES = ["complete", "complete_bipartite", "cube_q3", "cycle", "path", "prism", "star"]


def reference_parser():
    """argparse reading the ``oed`` command line; ``command`` names the subcommand."""
    parser = argparse.ArgumentParser(prog="oed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_delta = sub.add_parser("delta")
    p_delta.add_argument("--input", required=True)
    p_delta.add_argument("--engine", choices=ENGINE_NAMES, default="frontier")
    p_delta.add_argument("--format", choices=["json", "csv"], default="json")

    p_count = sub.add_parser("count")
    p_count.add_argument("--input", required=True)
    p_count.add_argument(
        "--method", choices=["reduction", "brute", "independent"], default="reduction"
    )

    p_verify = sub.add_parser("verify")
    p_verify.add_argument("--exhaustive-n", type=int, default=0, dest="exhaustive_n")
    p_verify.add_argument("--n-max", type=int, default=0, dest="n_max")
    p_verify.add_argument("--m-max", type=int, default=0, dest="m_max")
    p_verify.add_argument("--trials", type=int, default=0)
    p_verify.add_argument("--seed", type=int, default=0)

    p_gen = sub.add_parser("gen")
    p_gen.add_argument("family", choices=FAMILY_NAMES)
    p_gen.add_argument("size", type=int, nargs="?", default=None)
    p_gen.add_argument("--output")

    p_bench = sub.add_parser("bench")
    p_bench.add_argument("--input", required=True)
    p_bench.add_argument("--engines", default="naive,gray")
    p_bench.add_argument("--repeats", type=int, default=1)
    return parser
