"""Census engines against frozen values and the itertools reference oracle."""

import gc
import json
import random
import sys
import time
from collections import Counter
from math import comb, prod

import pytest
from reference import (
    binomial_expansion,
    census_cover_count,
    complete_graph_census,
    prism_census,
    reference_census,
    reference_delta,
    reference_non_cover_count,
)

import oed.delta
from oed import (
    EDGE_CAP,
    ENGINES,
    CapError,
    DeltaPolynomial,
    DeltaProfile,
    EngineDisagreement,
    Graph,
    add_isolated,
    connected_components,
    delta_by_components,
    delta_frontier,
    delta_graycode,
    delta_naive,
    disjoint_union,
    gen_family,
    inclusion_exclusion_direct,
    random_graph,
    to_edge_list,
    vc_count_reduction,
    w_polynomial,
)
from oed.cli import main
from oed.delta import _binomial_transform, _groups, _neighbours, _plan, _product, _steps, _tree_prod

ENGINE_FNS = [delta_naive, delta_graycode, delta_by_components, delta_frontier]


class TestTreeProduct:
    """``_tree_prod`` multiplies pairwise to the same int as ``math.prod``."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_math_prod(self, seed):
        rng = random.Random(seed)
        for size in (*range(1, 10), 31, 200):
            # 1 + getrandbits(1) is 1 or 2.
            factors = [1 + rng.getrandbits(rng.choice([1, 8, 64, 500, 3000])) for _ in range(size)]
            assert _tree_prod(list(factors)) == prod(factors)
            factors[rng.randrange(size)] = 0
            assert _tree_prod(factors) == 0

    def test_zero_one_and_a_single_factor(self):
        assert _tree_prod([]) == 1
        assert _tree_prod([1]) == 1
        assert _tree_prod([0]) == 0
        assert _tree_prod([3**500]) == 3**500
        assert _tree_prod([3, 1, 5, 0, 7]) == 0
        assert _tree_prod([1] * 9) == 1


@pytest.mark.parametrize("engine", ENGINE_FNS)
class TestFrozenProfiles:
    def test_single_edge(self, engine, k2):
        assert engine(k2).delta == (0, 0, 1)

    def test_triangle(self, engine, k3):
        # 7 nonempty subsets: three odd on 2 vertices, three even and one
        # odd on all 3 vertices.
        assert engine(k3).delta == (0, 0, 3, -2)

    def test_path3(self, engine, p3):
        assert engine(p3).delta == (0, 0, 2, -1)

    def test_two_disjoint_edges(self, engine):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert engine(g).delta == (0, 0, 2, 0, -1)

    def test_edgeless_graph_all_zero(self, engine):
        assert engine(Graph.from_edges(3, [])).delta == (0, 0, 0, 0)

    def test_isolated_vertices_extend_array(self, engine):
        g = Graph.from_edges(4, [(0, 1)])
        assert engine(g).delta == (0, 0, 1, 0, 0)


class TestParityCounts:
    def test_triangle_counts(self, k3):
        profile = delta_naive(k3)
        assert profile.odd_counts == (0, 0, 3, 1)
        assert profile.even_counts == (0, 0, 0, 3)

    def test_census_totals(self, cube):
        profile = delta_graycode(cube)
        total = sum(profile.odd_counts) + sum(profile.even_counts)
        assert total == 2**12 - 1

    def test_components_engine_omits_counts(self, k3):
        profile = delta_by_components(k3)
        assert profile.odd_counts is None
        assert profile.even_counts is None

    def test_matches_reference_census(self):
        g = random_graph(7, 0.4, seed=11)
        odd, even = reference_census(g.n, [(u, v) for u, v in g.edges])
        profile = delta_naive(g)
        assert profile.odd_counts == tuple(odd)
        assert profile.even_counts == tuple(even)


class TestFrontierEngine:
    @pytest.mark.parametrize(
        "g",
        [
            gen_family("cube_q3"),
            gen_family("complete", 5),
            random_graph(8, 0.4, seed=3),
            disjoint_union(gen_family("complete", 3), gen_family("path", 4)),
            add_isolated(gen_family("cycle", 5), 3),
            Graph.from_edges(5, [(3, 4), (0, 2)]),
            Graph.from_edges(4, []),
            Graph.from_edges(1, []),
            Graph.from_edges(0, []),
        ],
        ids=["cube", "k5", "gnp8", "k3+p4", "c5+3iso", "split-iso", "edgeless", "n1", "n0"],
    )
    def test_parity_split_matches_reference(self, g):
        odd, even = reference_census(g.n, [(u, v) for u, v in g.edges])
        profile = delta_frontier(g)
        assert profile.odd_counts == tuple(odd)
        assert profile.even_counts == tuple(even)
        assert profile == delta_graycode(g)

    def test_reach_k2_30(self):
        # 60 edges: 2^60 - 1 subsets for an enumeration engine.
        g = Graph.from_edges(32, [(i, j) for i in range(2) for j in range(2, 32)])
        start = time.perf_counter()
        profile = delta_frontier(g)
        elapsed = time.perf_counter() - start
        assert sum(profile.odd_counts) + sum(profile.even_counts) == 2**60 - 1
        assert sum(profile.delta) == 1
        assert elapsed < 1.0, f"K_2,30 took {elapsed:.2f}s"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete_graph_oracle(self, n):
        g = gen_family("complete", n)
        assert complete_graph_census(n) == reference_census(n, list(g.edges))

    @pytest.mark.parametrize("n", [12, 14])
    def test_complete_graph_past_edge_cap(self, n):
        # 66 and 91 edges: past the enumeration engines' 62.
        g = gen_family("complete", n)
        odd, even = complete_graph_census(n)
        profile = delta_frontier(g)
        assert profile.odd_counts == tuple(odd)
        assert profile.even_counts == tuple(even)
        assert delta_by_components(g).delta == profile.delta


class TestEngineAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        g = random_graph(8, 0.4, seed=seed)
        reference = reference_delta(g.n, [(u, v) for u, v in g.edges])
        assert list(delta_naive(g).delta) == reference
        assert delta_graycode(g).delta == delta_naive(g).delta
        assert delta_by_components(g).delta == delta_naive(g).delta

    def test_cube(self, cube):
        assert delta_graycode(cube).delta == delta_naive(cube).delta

    def test_disconnected(self, k3):
        g = disjoint_union(k3, gen_family("path", 4))
        assert delta_by_components(g).delta == delta_naive(g).delta


class TestComponentEngine:
    @pytest.mark.parametrize("seed", [5, 6, 11])
    def test_union_of_small_graphs_matches_graycode(self, seed):
        # 32 random pieces on 1-4 vertices, many edgeless, under a shuffled
        # labelling so components interleave; gray sweeps the whole union.
        rng = random.Random(seed)
        pairs, n = [], 0
        for _ in range(32):
            piece = random_graph(rng.randint(1, 4), 0.2, seed=rng.getrandbits(32))
            pairs += [(u + n, v + n) for u, v in piece.edges]
            n += piece.n
        labels = list(range(n))
        rng.shuffle(labels)
        g = Graph.from_edges(n, [(labels[u], labels[v]) for u, v in pairs])
        comps = connected_components(g)
        assert g.m <= 20 and len(comps) > 32
        assert any(len(c) == 1 for c in comps) and any(len(c) >= 3 for c in comps)
        assert delta_by_components(g).delta == delta_graycode(g).delta


class TestCaps:
    def test_edge_cap_enforced(self):
        g = gen_family("complete", 12)  # 66 edges
        with pytest.raises(CapError, match="at most 62"):
            delta_naive(g)
        with pytest.raises(CapError, match="at most 62"):
            delta_graycode(g)
        # The DP engines are capped by their estimated work, not by edges.
        assert delta_by_components(g).delta == delta_frontier(g).delta
        huge = gen_family("complete", 40)
        for engine in (delta_frontier, delta_by_components):
            with pytest.raises(CapError, match="census DP estimated at"):
                engine(huge)

    def test_w_pass_priced_at_its_own_slot(self):
        # prism 1600: the W pass's slot of h + 1 bits fits the caps, the
        # A pass's slot of h + m + 1 bits does not. Planning alone decides.
        g = gen_family("prism", 1600)
        assert [m for m, _ in _plan(g, "W")] == [g.m]
        with pytest.raises(CapError, match="census DP estimated at"):
            _plan(g, "A")

    def test_component_cap_is_per_component(self):
        # 64 edges in all, past the enumeration engines' cap, in four
        # components of 16; the component engine must accept it.
        piece = gen_family("cycle", 16)
        g = piece
        for _ in range(3):
            g = disjoint_union(g, piece)
        assert g.m == 64
        profile = delta_by_components(g)
        assert sum(profile.delta) == 1

    @pytest.mark.parametrize(
        "engine,census,admitted",
        [(delta_naive, "_naive_census", 25), (delta_graycode, "_gray_census", 28)],
        ids=["naive", "gray"],
    )
    def test_sweep_priced_at_its_engines_rate(self, monkeypatch, engine, census, admitted):
        # Stars of m edges, the sweep stubbed out: each engine's rate per
        # subset admits 2^m - 1 subsets up to its m, prism 8's 24 included.
        monkeypatch.setattr(oed.delta, census, lambda g: ([0], [0]))
        for m in (24, admitted):
            engine(gen_family("star", m + 1))
        with pytest.raises(CapError, match=f"sweep of 2\\^{admitted + 1} - 1 edge subsets"):
            engine(gen_family("star", admitted + 2))

    def test_inclusion_exclusion_cap(self):
        g = gen_family("prism", 8)  # 24 edges
        with pytest.raises(CapError, match="at most 20"):
            inclusion_exclusion_direct(g)


class TestInclusionExclusionDirect:
    def test_single_edge(self, k2):
        assert inclusion_exclusion_direct(k2) == 1

    def test_triangle(self, k3):
        assert inclusion_exclusion_direct(k3) == 4

    def test_path3(self, p3):
        assert inclusion_exclusion_direct(p3) == 3

    def test_edgeless(self):
        assert inclusion_exclusion_direct(Graph.from_edges(4, [])) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_non_cover(self, seed):
        g = random_graph(7, 0.35, seed=seed)
        edges = [(u, v) for u, v in g.edges]
        assert inclusion_exclusion_direct(g) == reference_non_cover_count(g.n, edges)

    def test_equals_delta_weighted_sum(self, cube):
        profile = delta_graycode(cube)
        weighted = sum(profile.delta[k] * 2 ** (cube.n - k) for k in range(2, cube.n + 1))
        assert inclusion_exclusion_direct(cube) == weighted


def count_transforms(monkeypatch) -> list[tuple[int, ...]]:
    """The count vectors that ``_binomial_transform`` is called on from now."""
    calls = []

    def counted(c):
        calls.append(c)
        return _binomial_transform(c)

    monkeypatch.setattr(oed.delta, "_binomial_transform", counted)
    return calls


class TestRepeatedComponents:
    def test_perfect_matching_closed_form(self):
        # Each edge is a component with P_c = 1 + x^2 and W_c = 1 - x^2.
        m = 1000
        g = Graph.from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
        odd, even, delta = ([0] * (2 * m + 1) for _ in range(3))
        for j in range(1, m + 1):
            (odd if j % 2 else even)[2 * j] = comb(m, j)
            delta[2 * j] = (-1) ** (j + 1) * comb(m, j)
        profile = delta_frontier(g)
        assert (profile.odd_counts, profile.even_counts) == (tuple(odd), tuple(even))
        assert delta_by_components(g).delta == tuple(delta)

    def test_w_multiplies_over_a_union_past_the_edge_cap(self, cube, k3):
        prism = gen_family("prism", 6)
        g = disjoint_union(cube, k3)
        for _ in range(30):
            g = disjoint_union(g, prism)
        assert g.m > EDGE_CAP
        w = w_polynomial(delta_graycode(cube)) * w_polynomial(delta_graycode(k3))
        w_prism = w_polynomial(delta_graycode(prism))
        for _ in range(30):
            w = w * w_prism
        assert w_polynomial(delta_frontier(g)) == w

    def test_repeated_components_take_few_products(self, monkeypatch):
        calls = []
        plain = DeltaPolynomial.__mul__

        def counted(a, b):
            calls.append(1)
            return plain(a, b)

        # Each copy's vertices are shuffled, so the copies' step lists differ
        # and only their counts agree.
        piece = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]
        edges = []
        for c in range(400):
            label = random.Random(c).sample(range(5 * c, 5 * c + 5), 5)
            edges += [(label[u], label[v]) for u, v in piece]
        g = Graph.from_edges(2000, edges)
        assert len({tuple(steps) for _, steps in _plan(g, "W")}) > 1
        w_piece = w_polynomial(delta_graycode(Graph.from_edges(5, piece)))
        w = DeltaPolynomial((1,))
        for _ in range(400):
            w = w * w_piece
        monkeypatch.setattr(DeltaPolynomial, "__mul__", counted)
        transforms = count_transforms(monkeypatch)
        assert delta_by_components(g).delta == (0, *(-x for x in w.coeffs[1:]))
        assert len(calls) <= 10  # a fold over the components takes 400
        assert len(transforms) == 1  # the 400 copies share one count vector


def triangles(count: int) -> Graph:
    return Graph.from_edges(
        3 * count, [e for i in range(0, 3 * count, 3) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))]
    )


def triangles_w(count: int) -> DeltaPolynomial:
    """W of ``count`` disjoint triangles: W_K3 = (1-x)^2 (1+2x), raised to the count."""
    a = [comb(count, j) << j for j in range(count + 1)]  # (1+2x)^count
    b = [(-1) ** i * comb(2 * count, i) for i in range(2 * count + 1)]  # (1-x)^(2 count)
    return DeltaPolynomial(
        tuple(
            sum(a[j] * b[k - j] for j in range(max(0, k - 2 * count), min(k, count) + 1))
            for k in range(3 * count + 1)
        )
    )


def trinomial_power(count: int, a: int, b: int) -> DeltaPolynomial:
    """(1 + a x + b x^2)^count, by the multinomial theorem."""
    coeffs = [0] * (2 * count + 1)
    for i in range(count + 1):
        for j in range(count - i + 1):
            coeffs[i + 2 * j] += comb(count, i) * comb(count - i, j) * a**i * b**j
    return DeltaPolynomial(tuple(coeffs))


class TestPooledPowers:
    """Closed forms past the enumeration oracles, where ``_product`` pools (1 - x)."""

    def test_disjoint_triangles(self):
        w = triangles_w(300).coeffs
        assert delta_by_components(triangles(300)).delta == (0, *(-x for x in w[1:]))

    def test_three_repeated_bases_and_a_pooled_power(self):
        # W_K3 = (1-x)^2 (1+2x), W_C4 = (1-x)^2 (1+2x-x^2), W_P3 = (1-x)(1+x-x^2).
        count = 200
        pieces = [[(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 1), (1, 2)]]
        edges, base = [], 0
        for piece in pieces:
            size = 1 + max(v for e in piece for v in e)
            for _ in range(count):
                edges += [(u + base, v + base) for u, v in piece]
                base += size
        g = Graph.from_edges(base, edges)
        w = DeltaPolynomial(tuple((-1) ** i * comb(5 * count, i) for i in range(5 * count + 1)))
        w = w * DeltaPolynomial(tuple(comb(count, j) << j for j in range(count + 1)))
        w = w * trinomial_power(count, 2, -1) * trinomial_power(count, 1, -1)
        assert len(w.coeffs) == g.n + 1
        assert delta_by_components(g).delta == (0, *(-x for x in w.coeffs[1:]))

    def test_singleton_folded_onto_a_pooled_power(self, monkeypatch):
        prism = gen_family("prism", 6)
        g = disjoint_union(triangles(300), prism)
        w = triangles_w(300) * w_polynomial(delta_graycode(prism))
        transforms = count_transforms(monkeypatch)
        assert delta_by_components(g).delta == (0, *(-x for x in w.coeffs[1:]))
        assert len(transforms) == 2  # the triangles' counts without zeros, and the prism's

    def test_long_singleton_folded_whole(self, monkeypatch):
        # The path's W has 101 leading counts and 100 zeros; the triangles'
        # product has 10 coefficients. Pooling the zeros would fold a
        # 102-coefficient quotient onto 110 coefficients instead.
        path = gen_family("path", 201)
        g = disjoint_union(path, triangles(3))
        independent = [comb(202 - t, t) for t in range(102)]
        w = DeltaPolynomial(tuple(binomial_expansion(201, independent))) * triangles_w(3)
        lengths = []
        plain = DeltaPolynomial.__mul__

        def recorded(a, b):
            lengths.append((len(a.coeffs), len(b.coeffs)))
            return plain(a, b)

        monkeypatch.setattr(DeltaPolynomial, "__mul__", recorded)
        assert delta_by_components(g).delta == (0, *(-x for x in w.coeffs[1:]))
        assert (10, 202) in lengths  # the path's whole W, folded onto the triangles'
        assert all(min(pair) <= 10 for pair in lengths)


def int_bytes(*arrays) -> int:
    return sum(sys.getsizeof(x) for values in arrays for x in values)


class TestEngineCopies:
    """On 1,000 disjoint triangles the engines hold about one copy of the arrays they return."""

    def test_components_negates_w_in_place(self, traced_peak):
        profile, peak = traced_peak(delta_by_components, triangles(1000))
        # Holding W beside delta would peak at about 2.2 times delta's ints.
        assert peak < 1.5 * int_bytes(profile.delta)

    def test_frontier_drops_p_and_w(self, traced_peak):
        profile, peak = traced_peak(delta_frontier, triangles(1000))
        # Holding P and W beside the three arrays would peak at about 1.8 times their ints.
        assert peak < 1.4 * int_bytes(profile.odd_counts, profile.even_counts, profile.delta)

    def test_product_folds_hold_f_and_one_output(self, traced_peak):
        groups = wide_groups(1)
        once = sum(e == 1 for e in groups.values())
        repeated = sum(e >= 3 for e in groups.values())
        assert once >= 8 and repeated >= 3
        product, peak = traced_peak(_product, groups)
        # Folds that build each new slice beside the old one and F peak at
        # about 4.2 times the product's ints.
        assert peak < 2.3 * int_bytes(product.coeffs)


class TestPlanCollector:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_paused_and_restored(self, monkeypatch, enabled):
        # _plan's tables hold no reference cycles, so it pauses the cyclic
        # collector while it builds them, and hands back the caller's setting.
        seen = []
        neighbours = oed.delta._neighbours

        def recorded(g):
            seen.append(gc.isenabled())
            return neighbours(g)

        monkeypatch.setattr(oed.delta, "_neighbours", recorded)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert sum(_plan(triangles(3), "W").values()) == 3
            assert gc.isenabled() is enabled
            with pytest.raises(CapError):
                _plan(gen_family("complete", 40), "A")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]


class TestPlanTables:
    def test_tables_are_lists_by_rank(self, traced_peak):
        # 10,000 disjoint triangles. The planner holds lists indexed by
        # endpoint rank, walked once over all the components: about 134
        # bytes a vertex, the plan it returns included. Lists by local id
        # for one component at a time, beside a table of those ids, traced
        # about 219, and dicts of neighbour lists and of counts and a set
        # of the vertices 325.
        g = Graph.from_edges(30000, [e for i in range(0, 30000, 3) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))])
        plan, peak = traced_peak(lambda: _plan(g, "count"))
        assert sum(plan.values()) == 10000
        assert peak < 270 * g.n

    def test_equal_steps_are_one_tuple(self, traced_peak):
        # A 20,000-edge perfect matching: every component takes the same
        # two steps, (0, 0, 1) and (1, 1, 0), so the plan is one key. Its
        # peak is the walk's tables, about 117 bytes a vertex. A list of a
        # step list per component traced about 187, and a new tuple for
        # each step about 254.
        g = Graph.from_edges(40000, [(2 * i, 2 * i + 1) for i in range(20000)])
        plan, peak = traced_peak(_plan, g, "count")
        assert plan == Counter({(1, ((0, 0, 1), (1, 1, 0))): 20000})
        assert peak < 150 * g.n

    def test_walk_keeps_one_key_per_vertex(self, traced_peak):
        # Prism 20000, one component of the paper's class, walked whole.
        # Each vertex's greedy key is one int in its bit slot, and the heap
        # holds ints: about 163 bytes a vertex, the neighbour lists and the
        # steps included. A third table of the keys' closes and a heap of
        # tuple keys traced about 203.
        g = gen_family("prism", 20000)
        steps, peak = traced_peak(lambda: list(_steps(_neighbours(g))))
        assert len(steps) == g.n
        assert peak < 180 * g.n

    def test_tables_are_sized_by_endpoints_not_the_largest_id(self, traced_peak):
        # One edge among a million vertices. Tables indexed by vertex id up
        # to the largest endpoint traced 17.6 MB for the edge (0, 999999),
        # against 0.13 MB for (0, 1), most of it the count's own int.
        _, far = traced_peak(vc_count_reduction, Graph(1000000, ((0, 999999),)))
        _, near = traced_peak(vc_count_reduction, Graph(1000000, ((0, 1),)))
        assert far < near + (1 << 20)

    def test_rank_dict_is_freed_before_the_components_are_found(self, traced_peak):
        # 10,000 triangles on shuffled ids, and the same with every id one
        # higher, so that vertex 0 is isolated and the endpoints are ranked
        # through a list by id. The rank ints held by the neighbour lists
        # cost about 36 bytes a vertex; a rank dict, if it were still held
        # beside the component tables, about 44 more. With a rank dict held
        # while the neighbour lists were built, the ranked graph traced
        # about 76 more.
        perm = list(range(30000))
        random.Random(1).shuffle(perm)
        edges = [(perm[a], perm[b]) for i in range(0, 30000, 3) for a, b in ((i, i + 1), (i + 1, i + 2), (i, i + 2))]
        _, dense = traced_peak(_plan, Graph.from_edges(30000, edges), "count")
        _, ranked = traced_peak(_plan, Graph.from_edges(30001, [(u + 1, v + 1) for u, v in edges]), "count")
        assert ranked < dense + 55 * 30000


def count_passes(monkeypatch) -> list[tuple]:
    """The step lists that ``_vertex_sums`` runs on from now, one per pass."""
    calls = []
    vertex_sums = oed.delta._vertex_sums

    def counted(steps, slot, edges):
        calls.append(steps)
        return vertex_sums(steps, slot, edges)

    monkeypatch.setattr(oed.delta, "_vertex_sums", counted)
    return calls


class TestDistinctStepLists:
    """Components that walk to equal steps share one pass of ``_vertex_sums``."""

    @pytest.mark.parametrize(
        "engine,passes",
        [(delta_by_components, 1), (vc_count_reduction, 1), (delta_frontier, 2)],
        ids=["components", "count", "frontier"],
    )
    def test_one_pass_per_distinct_step_list(self, monkeypatch, engine, passes):
        # 1,000 disjoint triangles on consecutive ids: one step list, so
        # one pass per polynomial, where a pass per component made 1,000.
        g = triangles(1000)
        expected = engine(g)
        calls = count_passes(monkeypatch)
        assert engine(g) == expected
        assert len(calls) == passes

    def test_count_raises_one_total_to_its_power(self, monkeypatch):
        # A 200,000-edge perfect matching: each edge has 3 covers, and one
        # pass gives the total that the product raises to the 200,000th.
        g = Graph.from_edges(400000, [(2 * i, 2 * i + 1) for i in range(200000)])
        calls = count_passes(monkeypatch)
        assert vc_count_reduction(g) == 3**200000
        assert calls == [((0, 0, 1), (1, 1, 0))]


def wide_groups(seed: int) -> Counter[tuple[int, ...]]:
    """The W-pass counts of 200 seeded random connected graphs of 8 vertices and 12 edges.

    The shape of the benchmark's many-component graph: a few count vectors
    that many components share, and several seen once.
    """
    rng = random.Random(seed)
    groups: Counter[tuple[int, ...]] = Counter()
    for _ in range(200):
        edges = {(rng.randrange(v), v) for v in range(1, 8)}  # a random spanning tree
        while len(edges) < 12:
            edges.add(tuple(sorted(rng.sample(range(8), 2))))
        groups.update(_groups(_plan(Graph.from_edges(8, sorted(edges)), "W"), False))
    return groups


class TestTrueDegree:
    def test_transform_drops_a_vanishing_top_coefficient(self):
        # 1 (1-x)^2 + 5x (1-x) + 4x^2 = 1 + 3x: a component's W_c loses its
        # top coefficient where its independence polynomial vanishes at -1.
        assert _binomial_transform((1, 5, 4)) == DeltaPolynomial((1, 3))
        assert _binomial_transform((1, 4, 3)) == DeltaPolynomial((1, 2))
        assert _binomial_transform((1, 2, 1)) == DeltaPolynomial((1,))


class TestPrismTransferMatrix:
    """The transfer-matrix oracle of ``tests/reference.py`` on the paper's own class.

    A prism over an even cycle is 3-regular, bipartite and planar. Past
    prism 8, the largest ``gray`` sweeps here, the oracle checks the P
    product that no other test checks at these sizes.
    """

    @pytest.mark.parametrize("s", [4, 6, 8])
    def test_oracle_is_grays_census(self, s):
        profile = delta_graycode(gen_family("prism", s))
        assert prism_census(s) == (list(profile.odd_counts), list(profile.even_counts))

    @pytest.mark.parametrize("s", [4, 6, 10, 16, 26, 50, 76, 100])
    def test_dp_engines_match_the_oracle(self, s, tmp_path, capsys):
        odd, even = prism_census(s)
        delta = [o - e for o, e in zip(odd, even)]
        g = gen_family("prism", s)
        frontier = delta_json(g, "frontier", tmp_path, capsys)
        assert [[int(x) for x in frontier[key]] for key in ("O", "E", "delta")] == [odd, even, delta]
        components = delta_json(g, "components", tmp_path, capsys)
        assert [int(x) for x in components["delta"]] == delta


class TestProductExactnessChecks:
    def test_fractional_power_coefficient_raises(self):
        # A repeated base whose constant term is not 1 breaks the recurrence's
        # division by k: (1, 3) and (3, 4) are the counts of 1 + 2x and 3 + x.
        with pytest.raises(EngineDisagreement, match="fractional coefficient"):
            _product(Counter({(1, 3): 4, (3, 4): 3}))


# Graphs of 100 to 499 edges, past every enumeration oracle, whose independence
# polynomials have closed forms: 1 + n x on K_n, 2(1+x)^s - 1 on K_{s,s} and
# (1+x)^(n-1) + x on the star on n vertices. The last column is the cover count.
CLOSED_FORMS = [
    (gen_family("complete", 19), [1, 19], 20),
    (gen_family("complete_bipartite", 10), [1] + [2 * comb(10, t) for t in range(1, 11)], 2**11 - 1),
    (gen_family("star", 500), [comb(499, t) + (t == 1) for t in range(500)], 2**499 + 1),
]


@pytest.mark.parametrize("g,independent,covers", CLOSED_FORMS, ids=["k19", "k10,10", "star500"])
class TestIndependencePolynomialClosedForms:
    @pytest.mark.parametrize("engine", [delta_frontier, delta_by_components])
    def test_delta_is_minus_w(self, g, independent, covers, engine):
        w = binomial_expansion(g.n, independent)
        assert w[0] == 1
        assert engine(g).delta == (0, *(-x for x in w[1:]))

    @pytest.mark.parametrize("engine", ["frontier", "components"])
    def test_cover_count(self, g, independent, covers, engine):
        assert census_cover_count(ENGINES[engine](g)) == covers
        assert vc_count_reduction(g) == covers


class TestPolynomials:
    def test_w_of_single_edge(self, k2):
        assert w_polynomial(delta_graycode(k2)).coeffs == (1, 0, -1)

    def test_w_of_triangle(self, k3):
        assert w_polynomial(delta_graycode(k3)).coeffs == (1, 0, -3, 2)

    def test_w_of_edgeless(self):
        profile = delta_graycode(Graph.from_edges(2, []))
        assert w_polynomial(profile).coeffs == (1, 0, 0)

    def test_d_plus_w_is_one(self, cube):
        profile = delta_graycode(cube)
        d = profile.delta
        w = w_polynomial(profile).coeffs
        combined = [a + b for a, b in zip(d, w)]
        assert combined == [1] + [0] * cube.n

    def test_multiplicativity_two_k2(self, k2):
        w = w_polynomial(delta_graycode(k2))
        product = w * w
        g = disjoint_union(k2, k2)
        assert product.coeffs == w_polynomial(delta_graycode(g)).coeffs

    def test_multiplication_is_plain_convolution(self):
        a = DeltaPolynomial((1, 2))
        b = DeltaPolynomial((3, 0, 1))
        assert (a * b).coeffs == (3, 6, 1, 2)


def delta_json(g, engine, tmp_path, capsys):
    """The JSON that ``oed delta`` prints for g."""
    path = tmp_path / "g.txt"
    path.write_text(to_edge_list(g))
    assert main(["delta", "--input", str(path), "--engine", engine]) == 0
    return json.loads(capsys.readouterr().out)


class TestProfileValidation:
    def test_delta_must_match_counts(self):
        with pytest.raises(ValueError, match="elementwise"):
            DeltaProfile(n=2, odd_counts=(0, 0, 1), even_counts=(0, 0, 0), delta=(0, 0, 2))

    def test_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            DeltaProfile(n=3, odd_counts=None, even_counts=None, delta=(0, 0, 1))

    def test_negative_n_checked(self):
        with pytest.raises(ValueError, match="at least 0"):
            DeltaProfile(-1, None, None, ())

    def test_low_k_must_vanish(self):
        with pytest.raises(ValueError, match="k < 2"):
            DeltaProfile(n=2, odd_counts=None, even_counts=None, delta=(0, 1, 0))

    def test_json_dict_uses_strings(self, k3, tmp_path, capsys):
        d = delta_json(k3, "gray", tmp_path, capsys)
        assert d == {
            "n": 3,
            "O": ["0", "0", "3", "1"],
            "E": ["0", "0", "0", "3"],
            "delta": ["0", "0", "3", "-2"],
        }

    def test_json_dict_components(self, k3, tmp_path, capsys):
        d = delta_json(k3, "components", tmp_path, capsys)
        assert d["O"] is None
        assert d["E"] is None
        assert d["delta"] == ["0", "0", "3", "-2"]
