"""Brute-force reference implementations used only by the tests.

Everything here works on (n, edge pair list) with itertools and Python
sets, no bitmasks and no shared code with the package, so agreement with
the engines is evidence rather than tautology. Usable only at tiny sizes.
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
