"""Cross-check harness: every identity the package relies on, run at desk scale.

``run_verification`` checks, per graph, that the four census engines
agree (the frontier DP on the full parity split), that the census is
complete (counts sum to 2^m - 1) with signed sum 1, and that the cover
count comes out identical via the census reduction (2^(isolated) *
prod_c sum_t B_t, each component's independent sets, with no polynomial
product), the census formula on the ``gray`` profile, the brute-force
scan, the independent-set scan, and the direct alternating sum. Each
engine runs once per graph. The naive engine and the direct sum, the two
slowest per subset, join the check up to the same IE_EDGE_CAP edges; the
two vertex scans price themselves. Graphs come from exhaustive
enumeration of all labeled graphs up to a small n, then from seeded
random sampling, checked as one stream, so a report is fully
reproducible from (seed, parameters).

``run_bench`` times engines on one input and refuses to report numbers
unless every engine produced the identical delta array. Each engine is
rated by the one census size, the 2^m - 1 nonempty edge subsets, whatever
work it does to count them, so rates compare across engines. This module
uses only the public names of ``oed.delta``.
"""

from __future__ import annotations

import random
import sys
import time
from collections import namedtuple
from itertools import chain, combinations

from .covers import (
    IE_EDGE_CAP,
    IE_SECONDS,
    SCAN_SECONDS,
    VERTEX_CAP,
    brute_force_vc_count,
    inclusion_exclusion_direct,
    independent_set_count,
)
from .delta import (
    ENGINES,
    GRAY_SECONDS,
    delta_by_components,
    delta_frontier,
    delta_graycode,
    delta_naive,
    vc_count_reduction,
)
from .errors import CapError, EngineDisagreement, check_price
from .graph import Graph, random_graph, to_edge_list

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

    def expect(left_name: str, left, right_name: str, right) -> None:
        if left != right:
            failures.append(
                Failure(
                    graph_text=to_edge_list(g),
                    methods=(left_name, right_name),
                    expected=str(right),
                    got=str(left),
                )
            )

    n, m = g.n, g.m
    gray = delta_graycode(g)
    comp = delta_by_components(g)

    if m <= IE_EDGE_CAP:
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
    try:
        brute = brute_force_vc_count(g)
    except CapError:  # past the scans' reach, which oed.covers alone decides
        return failures
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


def _check_trial_price(n_max: int, m_max: int) -> None:
    """Raise CapError when ``check_graph`` on the slowest admitted graph is priced over DP_SECONDS.

    That graph has n_max vertices and as many edges as m_max and n_max
    admit. The price counts its two scans of 2^n vertex subsets, its
    ``gray`` sweep of 2^m - 1 edge subsets, and, up to IE_EDGE_CAP edges,
    the naive sweep and the direct sum at IE_SECONDS a subset each; the DP
    engines price themselves when they run.
    """
    m = min(m_max, n_max * (n_max - 1) // 2)
    estimate = (
        2 * (1 << n_max) * SCAN_SECONDS
        + ((1 << m) - 1) * GRAY_SECONDS
        + 2 * ((1 << min(m, IE_EDGE_CAP)) - 1) * IE_SECONDS
    )
    check_price(
        f"a trial graph of {n_max} vertices and {m} edges is estimated at {estimate:.3g} s", estimate
    )


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
    reach of the cover oracles. Trials are refused with CapError before any
    graph is checked when the slowest graph they admit is priced over
    DP_SECONDS.
    """
    if exhaustive_n < 0 or exhaustive_n > EXHAUSTIVE_N_CAP:
        raise ValueError(
            f"exhaustive_n must be in [0, {EXHAUSTIVE_N_CAP}], got {exhaustive_n}"
        )
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if trials > 0:
        if n_max < 2:
            raise ValueError(f"random trials need n_max >= 2, got {n_max}")
        if n_max > VERTEX_CAP:
            raise ValueError(f"random trials need n_max <= {VERTEX_CAP}, got {n_max}")
        if m_max < 0:
            raise ValueError(f"random trials need m_max >= 0, got {m_max}")
        _check_trial_price(n_max, m_max)
    start = time.perf_counter()
    sizes = range(exhaustive_n + 1) if exhaustive_n > 0 else ()
    exhaustive = chain.from_iterable(map(all_labeled_graphs, sizes))
    rng = random.Random(seed)
    drawn = (_draw_trial_graph(rng, n_max, m_max) for _ in range(trials))
    failures: list[Failure] = []
    checked = 0
    for checked, g in enumerate(chain(exhaustive, drawn), 1):
        failures.extend(check_graph(g))
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


def run_bench(g: Graph, engines: list[str], repeats: int = 1) -> list[BenchRecord]:
    """Time each engine ``repeats`` times; all runs must agree on delta.

    Every engine is rated by the census size, 2^m - 1 nonempty edge
    subsets, so rates compare across engines. Raises CapError before any
    run if that size is past the float range, where no rate in subsets
    per second can be given.
    """
    if not 1 <= repeats <= BENCH_REPEATS_CAP:
        raise ValueError(f"repeats must be in [1, {BENCH_REPEATS_CAP}], got {repeats}")
    if not engines:
        raise ValueError("no engines given")
    subsets = (1 << g.m) - 1
    for name in engines:
        if name not in ENGINES:
            raise ValueError(f"unknown engine {name!r}; known engines: {', '.join(ENGINES)}")
        if subsets > sys.float_info.max:
            raise CapError(f"graph has {g.m} edges, too many to rate engine {name!r} in subsets/s")
    records: list[BenchRecord] = []
    deltas: dict[str, tuple[int, ...]] = {}
    for name in engines:
        fn = ENGINES[name]
        for _ in range(repeats):
            t0 = time.perf_counter()
            profile = fn(g)
            wall = time.perf_counter() - t0
            rate = subsets / wall if wall > 0 else 0.0
            records.append(
                BenchRecord(
                    engine=name,
                    edges=g.m,
                    subsets=subsets,
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
