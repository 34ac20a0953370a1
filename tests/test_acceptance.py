"""Acceptance gate: the end-to-end guarantees the package ships under.

Each test prints one `acceptance N PASS/FAIL` line (run with ``pytest -s``
to see them). Together they pin down: exhaustive cover-count agreement on
every small labeled graph, frozen counts for two reference instances,
census completeness and engine agreement on seeded random samples, the
alternating-sum bridge to the cover count, the isolated-vertex factor,
and the Gray-code engine's performance floor.
"""

import random
import time
from contextlib import contextmanager

import pytest

from oed import (
    Graph,
    add_isolated,
    brute_force_vc_count,
    connected_components,
    delta_by_components,
    delta_graycode,
    delta_naive,
    disjoint_union,
    gen_family,
    inclusion_exclusion_direct,
    independent_set_count,
    random_graph,
    run_bench,
    run_verification,
    strip_isolated,
    vc_count_reduction,
    w_polynomial,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {number} FAIL: {title}")
        raise
    print(f"acceptance {number} PASS: {title}")


def draw_graph(rng: random.Random, n_max: int, m_max: int) -> Graph:
    while True:
        n = rng.randint(2, n_max)
        g = random_graph(n, rng.random(), seed=rng.getrandbits(64))
        if g.m <= m_max:
            return g


def test_1_exhaustive_small_graph_agreement():
    with criterion(1, "reduction = brute force = independent sets on all graphs, n <= 5"):
        start = time.perf_counter()
        report = run_verification(exhaustive_n=5)
        elapsed = time.perf_counter() - start
        assert report.trials == sum(2 ** (n * (n - 1) // 2) for n in range(6))  # 1100
        assert report.failures == []
        assert elapsed < 60, f"exhaustive sweep took {elapsed:.1f}s, budget is 60s"


def test_2_reference_instances():
    with criterion(2, "cube_q3 has 35 covers and prism(6) has 199, by every method"):
        for g, expected in [(gen_family("cube_q3"), 35), (gen_family("prism", 6), 199)]:
            counts = {
                "reduction": vc_count_reduction(g),
                "brute": brute_force_vc_count(g),
                "independent": independent_set_count(g),
            }
            assert counts == {m: expected for m in counts}


def test_3_census_completeness_on_random_sample():
    with criterion(3, "census totals 2^m - 1 with signed sum 1 on 200 seeded graphs"):
        rng = random.Random(300)
        for _ in range(200):
            g = draw_graph(rng, n_max=12, m_max=20)
            profile = delta_graycode(g)
            total = sum(profile.odd_counts) + sum(profile.even_counts)
            assert total == 2**g.m - 1
            assert sum(profile.delta) == (1 if g.m else 0)


def test_4_engine_agreement_and_w_multiplicativity():
    with criterion(4, "three engines agree on 100 seeded graphs; W multiplies over unions"):
        rng = random.Random(400)
        sample = [draw_graph(rng, n_max=12, m_max=20) for _ in range(80)]
        sample.extend(
            disjoint_union(draw_graph(rng, 6, 10), draw_graph(rng, 6, 10)) for _ in range(20)
        )
        disconnected = sum(1 for g in sample if len(connected_components(g)) > 1)
        assert disconnected >= 20
        for g in sample:
            gray = delta_graycode(g).delta
            assert delta_naive(g).delta == gray
            assert delta_by_components(g).delta == gray
        for _ in range(50):
            a = draw_graph(rng, 6, 10)
            b = draw_graph(rng, 6, 10)
            product = w_polynomial(delta_graycode(a)) * w_polynomial(delta_graycode(b))
            assert product.coeffs == w_polynomial(delta_graycode(disjoint_union(a, b))).coeffs


def test_5_alternating_sum_bridge():
    with criterion(5, "direct alternating sum = weighted delta sum = non-covers, 100 graphs"):
        rng = random.Random(500)
        checked = 0
        while checked < 100:
            g = strip_isolated(draw_graph(rng, n_max=12, m_max=18)).stripped
            if not 1 <= g.m <= 18:
                continue
            direct = inclusion_exclusion_direct(g)
            delta = delta_graycode(g).delta
            weighted = sum(delta[k] * 2 ** (g.n - k) for k in range(2, g.n + 1))
            assert direct == weighted
            assert direct == 2**g.n - brute_force_vc_count(g)
            checked += 1


def test_6_isolated_vertex_factor():
    with criterion(6, "t isolated vertices scale the cover count by exactly 2^t, 50 graphs"):
        rng = random.Random(600)
        for _ in range(50):
            base = strip_isolated(draw_graph(rng, n_max=10, m_max=15)).stripped
            t = rng.randint(1, 5)
            augmented = add_isolated(base, t)
            assert vc_count_reduction(augmented) == vc_count_reduction(base) * 2**t


def test_7_graycode_performance_floor():
    with criterion(7, "Gray-code engine sweeps 2^24 - 1 subsets in 30s and beats naive"):
        g = gen_family("prism", 8)
        assert g.m == 24
        records = {r.engine: r for r in run_bench(g, ["naive", "gray"])}
        gray_time = records["gray"].wall_time
        naive_time = records["naive"].wall_time
        assert gray_time <= 30, f"gray took {gray_time:.1f}s, budget is 30s"
        assert naive_time > gray_time * 1.5, (
            f"gray ({gray_time:.1f}s) is not measurably faster than naive ({naive_time:.1f}s)"
        )
