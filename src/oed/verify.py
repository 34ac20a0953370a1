"""Cross-check harness: every identity the package relies on, run at desk scale.

``run_verification`` checks, per graph, that the four census engines
agree (the frontier DP on the full parity split), that the census is
complete (counts sum to 2^m - 1) with signed sum 1, and that the cover
count comes out identical via the census reduction (2^(isolated) *
prod_c sum_t B_t, each component's independent sets, with no polynomial
product), the census formula on the ``gray`` profile, the brute-force
scan, the independent-set scan, and the direct alternating sum. Each
engine runs once per graph. Graphs come from exhaustive enumeration of
all labeled graphs up to a small n and from seeded random sampling, so a
report is fully reproducible from (seed, parameters).

``run_bench`` times engines on one input and refuses to report numbers
unless every engine produced the identical delta array.
"""

from __future__ import annotations

import random
import sys
import time
from collections import namedtuple
from itertools import combinations

from .covers import (
    VERTEX_CAP,
    brute_force_vc_count,
    independent_set_count,
    vc_count_reduction,
)
from .delta import (
    ENGINES,
    IE_EDGE_CAP,
    delta_by_components,
    delta_frontier,
    delta_graycode,
    delta_naive,
    _plan,
    inclusion_exclusion_direct,
)
from .errors import CapError, EngineDisagreement
from .graph import Graph, random_graph, to_edge_list

# The naive engine joins the per-graph cross-check only below this edge
# count; above it the check would dominate the run for no extra coverage.
NAIVE_CHECK_CAP = 20

EXHAUSTIVE_N_CAP = 5

# ``run_bench`` keeps one record per repeat; this bounds how many.
BENCH_REPEATS_CAP = 1000


class Failure(namedtuple("Failure", "graph_text methods expected got")):
    """One broken identity: which graph, which pair of methods, which values."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_text,
            "methods": list(self.methods),
            "expected": self.expected,
            "got": self.got,
        }


class VerificationReport(namedtuple("VerificationReport", "trials failures seed wall_time")):
    __slots__ = ()

    @property
    def passing(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        failures = [f.to_json_dict() for f in self.failures]
        return {**self._asdict(), "failures": failures, "passing": self.passing}


def check_graph(g: Graph) -> list[Failure]:
    """Run every applicable identity on one graph; return the violations."""
    failures: list[Failure] = []
    text = to_edge_list(g)

    def expect(left_name: str, left, right_name: str, right) -> None:
        if left != right:
            failures.append(
                Failure(
                    graph_text=text,
                    methods=(left_name, right_name),
                    expected=str(right),
                    got=str(left),
                )
            )

    n, m = g.n, g.m
    gray = delta_graycode(g)
    comp = delta_by_components(g)

    if m <= NAIVE_CHECK_CAP:
        naive = delta_naive(g)
        expect("delta_naive", naive.delta, "delta_graycode", gray.delta)
        expect(
            "delta_naive:census_total",
            sum(naive.odd_counts) + sum(naive.even_counts),
            "2^m-1",
            (1 << m) - 1,
        )
    expect("delta_graycode", gray.delta, "delta_by_components", comp.delta)
    expect("delta_frontier", delta_frontier(g), "delta_graycode", gray)
    expect(
        "delta_graycode:census_total",
        sum(gray.odd_counts) + sum(gray.even_counts),
        "2^m-1",
        (1 << m) - 1,
    )
    expect("delta_graycode:delta_sum", sum(gray.delta), "signed_identity", 1 if m else 0)

    reduction = vc_count_reduction(g)
    weighted = sum(gray.delta[k] << (n - k) for k in range(2, n + 1))
    expect("reduction", reduction, "census_formula[gray]", (1 << n) - weighted)
    if n <= VERTEX_CAP:
        brute = brute_force_vc_count(g)
        independent = independent_set_count(g)
        expect("reduction", reduction, "brute_force", brute)
        expect("brute_force", brute, "independent_set", independent)
        if 1 <= m <= IE_EDGE_CAP:
            direct = inclusion_exclusion_direct(g)
            expect("inclusion_exclusion", direct, "delta_weighted_sum", weighted)
            expect("inclusion_exclusion", direct, "non_cover", (1 << n) - brute)
    return failures


def all_labeled_graphs(n: int):
    """Yield every graph on vertices 0..n-1, one per subset of the pair set."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        chosen = [pairs[j] for j in range(len(pairs)) if mask >> j & 1]
        yield Graph.from_edges(n, chosen)


def _draw_trial_graph(rng: random.Random, n_max: int, m_max: int) -> Graph:
    # n uniform in [2, n_max], p uniform in (0, 1), resample until m fits.
    for _ in range(100_000):
        n = rng.randint(2, n_max)
        p = rng.random()
        g = random_graph(n, p, seed=rng.getrandbits(64))
        if g.m <= m_max:
            return g
    raise RuntimeError(f"could not sample a graph with at most {m_max} edges")


def run_verification(
    exhaustive_n: int = 0,
    n_max: int = 0,
    m_max: int = 0,
    trials: int = 0,
    seed: int = 0,
) -> VerificationReport:
    """Exhaustive plus randomized identity checking; see module docstring.

    ``exhaustive_n >= 1`` checks every labeled graph on at most that many
    vertices (0 skips the exhaustive stage entirely); ``trials`` then adds
    seeded random graphs on at most ``n_max <= VERTEX_CAP`` vertices, the
    reach of the cover oracles.
    """
    if exhaustive_n < 0 or exhaustive_n > EXHAUSTIVE_N_CAP:
        raise ValueError(
            f"exhaustive_n must be in [0, {EXHAUSTIVE_N_CAP}], got {exhaustive_n}"
        )
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if trials > 0 and n_max < 2:
        raise ValueError(f"random trials need n_max >= 2, got {n_max}")
    if trials > 0 and n_max > VERTEX_CAP:
        raise ValueError(f"random trials need n_max <= {VERTEX_CAP}, got {n_max}")
    if trials > 0 and m_max < 0:
        raise ValueError(f"random trials need m_max >= 0, got {m_max}")
    start = time.perf_counter()
    failures: list[Failure] = []
    checked = 0
    if exhaustive_n > 0:
        for n in range(exhaustive_n + 1):
            for g in all_labeled_graphs(n):
                failures.extend(check_graph(g))
                checked += 1
    rng = random.Random(seed)
    for _ in range(trials):
        g = _draw_trial_graph(rng, n_max, m_max)
        failures.extend(check_graph(g))
        checked += 1
    wall = time.perf_counter() - start
    return VerificationReport(trials=checked, failures=failures, seed=seed, wall_time=wall)


# ---------------------------------------------------------------------------
# benchmarking


class BenchRecord(
    namedtuple("BenchRecord", "engine edges subsets wall_time subsets_per_second")
):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "subsets": str(self.subsets)}


def subsets_visited(g: Graph, engine: str) -> int:
    """Census size an engine accounts for: 2^m - 1, or the per-component sum.

    These are census sizes, not subsets visited: only ``naive`` and
    ``gray`` enumerate edge subsets. For ``components`` the size is the
    sum of 2^m_c - 1 over the components of the DP's plan, priced as the
    engine's W pass, so a graph the engine refuses raises CapError.
    ``oed bench`` rates every engine in census subsets per second.
    """
    if engine == "components":
        return sum((1 << m) - 1 for m, _ in _plan(g, False))
    return (1 << g.m) - 1


def run_bench(g: Graph, engines: list[str], repeats: int = 1) -> list[BenchRecord]:
    """Time each engine ``repeats`` times; all runs must agree on delta.

    Raises CapError before any run for an engine whose census size is past
    the float range, where no rate in subsets per second can be given.
    """
    if not 1 <= repeats <= BENCH_REPEATS_CAP:
        raise ValueError(f"repeats must be in [1, {BENCH_REPEATS_CAP}], got {repeats}")
    if not engines:
        raise ValueError("no engines given")
    visited = {}
    for name in engines:
        if name not in ENGINES:
            raise ValueError(f"unknown engine {name!r}; known engines: {', '.join(ENGINES)}")
        visited[name] = subsets_visited(g, name)
        if visited[name] > sys.float_info.max:
            raise CapError(f"graph has {g.m} edges, too many to rate engine {name!r} in subsets/s")
    records: list[BenchRecord] = []
    deltas: dict[str, tuple[int, ...]] = {}
    for name in engines:
        fn = ENGINES[name]
        for _ in range(repeats):
            t0 = time.perf_counter()
            profile = fn(g)
            wall = time.perf_counter() - t0
            rate = visited[name] / wall if wall > 0 else 0.0
            records.append(
                BenchRecord(
                    engine=name,
                    edges=g.m,
                    subsets=visited[name],
                    wall_time=wall,
                    subsets_per_second=rate,
                )
            )
            previous = deltas.setdefault(name, profile.delta)
            if previous != profile.delta:
                raise EngineDisagreement(f"engine {name!r} is not deterministic across repeats")
    reference_name = engines[0]
    for name, delta in deltas.items():
        if delta != deltas[reference_name]:
            raise EngineDisagreement(
                f"engines {reference_name!r} and {name!r} disagree on delta"
            )
    return records
