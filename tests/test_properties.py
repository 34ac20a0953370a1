"""Property-based invariants over randomly drawn small graphs."""

import random
from collections import Counter
from itertools import product
from math import comb
from operator import ge

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import binomial_expansion, census_cover_count, reference_census, reference_delta, reference_plan

import oed.delta
from oed import (
    CapError,
    DeltaPolynomial,
    Graph,
    ParseError,
    add_isolated,
    brute_force_vc_count,
    delta_by_components,
    delta_frontier,
    delta_graycode,
    delta_naive,
    disjoint_union,
    gen_family,
    inclusion_exclusion_direct,
    independent_set_count,
    parse_edge_list,
    to_edge_list,
    vc_count_reduction,
    w_polynomial,
)
from oed.delta import _groups, _neighbours, _plan, _price, _product, _slot, _steps, _vertex_sums


@st.composite
def graphs(draw, n_min=0, n_max=6, m_max=None):
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph.from_edges(n, [])
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=m_max))
    return Graph.from_edges(n, chosen)


@st.composite
def scattered_graphs(draw, m_max=14):
    """Disjoint small pieces plus isolated vertices, under shuffled labels.

    The shuffle interleaves the components' labels, so no component is a
    run of consecutive ids and the isolated vertices fall anywhere. Edges
    past the first m_max are dropped, keeping the 2^m reference census
    cheap.
    """
    pairs: list[tuple[int, int]] = []
    n = 0
    for piece in draw(st.lists(graphs(n_min=1, n_max=5), max_size=3)):
        pairs.extend((u + n, v + n) for u, v in piece.edges)
        n += piece.n
    n += draw(st.integers(min_value=0, max_value=3))
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in pairs[:m_max]])


@st.composite
def connected_pieces(draw, max_size=10):
    """(size, edges): a random tree on 2 to max_size vertices plus up to size other edges."""
    size = draw(st.integers(min_value=2, max_value=max_size))
    piece = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, size)]
    others = [(u, v) for v in range(size) for u in range(v) if (u, v) not in piece]
    if others:
        piece += draw(st.lists(st.sampled_from(others), unique=True, max_size=size))
    return size, piece


def side_by_side(pieces, n=0):
    """(size, edges) pieces on consecutive ids from n: the vertex count and the edges."""
    pairs: list[tuple[int, int]] = []
    for size, piece in pieces:
        pairs.extend((u + n, v + n) for u, v in piece)
        n += size
    return n, pairs


@st.composite
def connected_unions(draw, m_max=80):
    """Random connected pieces side by side, then isolated vertices.

    Each piece is from ``connected_pieces``; pieces stop before the edges
    pass m_max, far past the 2^m reference census.
    """
    pieces, m = [], 0
    for size, piece in draw(st.lists(connected_pieces(), max_size=10)):
        if m + len(piece) > m_max:
            break
        pieces.append((size, piece))
        m += len(piece)
    n, pairs = side_by_side(pieces)
    n += draw(st.integers(min_value=0, max_value=5))
    return Graph.from_edges(n, pairs)


@st.composite
def wide_unions(draw):
    """20-60 small pieces, some repeated, beside a prism or path, under shuffled labels.

    The pieces are drawn from a pool of at most six, so at least one
    occurs four times or more; the prism (60-100 rungs) or path (200-400
    vertices) takes the union a few hundred edges past gray's reach.
    """
    pool = draw(st.lists(connected_pieces(max_size=6), min_size=1, max_size=6))
    pieces = draw(st.lists(st.sampled_from(pool), min_size=20, max_size=60))
    prisms = st.integers(min_value=30, max_value=50).map(lambda r: gen_family("prism", 2 * r))
    paths = st.integers(min_value=200, max_value=400).map(lambda s: gen_family("path", s))
    big = draw(st.one_of(prisms, paths))
    n, pairs = side_by_side(pieces, big.n)
    g = Graph.from_edges(n + draw(st.integers(min_value=0, max_value=3)), [*big.edges, *pairs])
    return relabelled(g, draw(st.integers()))


def relabelled(g, seed):
    """``g`` with its vertex ids permuted by a seeded shuffle."""
    label = list(range(g.n))
    random.Random(seed).shuffle(label)
    return Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges])


def random_union(count, size, m, seed):
    """``count`` random connected (size, m) pieces side by side, relabelled."""
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    for c in range(count):
        tree = [(rng.randrange(v), v) for v in range(1, size)]
        others = [(u, v) for v in range(size) for u in range(v) if (u, v) not in tree]
        piece = tree + rng.sample(others, m - len(tree))
        pairs.extend((u + c * size, v + c * size) for u, v in piece)
    return relabelled(Graph.from_edges(count * size, pairs), seed)


def sparse_ids(n, k, m, seed):
    """m random edges among k seeded ids of 0..n-1, the other ids isolated."""
    rng = random.Random(seed)
    ids = rng.sample(range(n), k)
    pairs = set()
    while len(pairs) < m:
        pairs.add(tuple(sorted(rng.sample(ids, 2))))
    return Graph.from_edges(n, sorted(pairs))


def states_read(steps, slot, edges):
    """``_vertex_sums``, counting the states that each step reads: (its int, the counts)."""
    states, read = {0: 1}, []
    for inner, drop, vbit in steps:
        read.append(len(states))
        nxt = {}
        for mask, a in states.items():
            c = mask & inner
            out = mask & ~drop
            nxt[out] = nxt.get(out, 0) + a
            if c and not edges:
                continue
            key = out | vbit
            nxt[key] = nxt.get(key, 0) + (a << slot + c.bit_count())
        states = nxt
    return states[0], read


def dp_work(steps, m, edges):
    """(reads, coeffs, table) of a component's pass of ``states_read``, as ``_price`` records them.

    reads and coeffs sum the states that the i-th step reads and i times
    them, table is those of the last step. The pass runs at the slot of
    ``_groups`` and must return the int of ``_vertex_sums``.
    """
    slot = _slot(len(steps), m, edges)
    total, read = states_read(steps, slot, edges)
    assert total == _vertex_sums(tuple(steps), slot, edges)
    return sum(read), sum(i * r for i, r in enumerate(read, 1)), read[-1]


def independent_frontier(steps):
    """Whether no step leaves a vertex on the frontier beside a frontier neighbour."""
    return not any(vbit and inner & ~drop for inner, drop, vbit in steps)


class TestGraphInvariants:
    @given(graphs())
    def test_edge_list_round_trip(self, g):
        assert parse_edge_list(to_edge_list(g)) == g

    @settings(deadline=None)
    @given(st.binary(max_size=200))
    @example(b"p edge 2 1\ne 1 1\n")
    @example(b"1 1\n0 " + b"7" * 100 + b"\n")
    def test_parser_raises_only_parse_or_cap_errors(self, data):
        try:
            parse_edge_list(data)
        except (ParseError, CapError):
            pass


class TestCensusInvariants:
    @given(graphs(n_max=5))
    def test_engines_agree_with_reference(self, g):
        expected = tuple(reference_delta(g.n, [(u, v) for u, v in g.edges]))
        assert delta_naive(g).delta == expected
        assert delta_graycode(g).delta == expected
        assert delta_by_components(g).delta == expected

    @given(graphs(n_max=6))
    def test_frontier_matches_graycode(self, g):
        assert delta_frontier(g) == delta_graycode(g)

    @given(scattered_graphs())
    # Two K4s and a path, interleaved, with an isolated vertex: 14 edges.
    @example(
        Graph.from_edges(
            12,
            [(3 * i + r, 3 * j + r) for r in (0, 1) for i in range(4) for j in range(i)]
            + [(2, 5), (5, 8)],
        )
    )
    @settings(deadline=None)
    def test_dp_engines_match_reference_on_scattered_graphs(self, g):
        edges = [(u, v) for u, v in g.edges]
        odd, even = reference_census(g.n, edges)
        profile = delta_frontier(g)
        assert (profile.odd_counts, profile.even_counts) == (tuple(odd), tuple(even))
        assert delta_by_components(g).delta == tuple(o - e for o, e in zip(odd, even))

    @given(graphs(n_max=6))
    def test_census_is_complete(self, g):
        profile = delta_graycode(g)
        assert sum(profile.odd_counts) + sum(profile.even_counts) == 2**g.m - 1

    @given(graphs(n_max=6))
    def test_signed_sum(self, g):
        # Every nonempty subset family has one more odd subset than even.
        assert sum(delta_graycode(g).delta) == (1 if g.m else 0)

    @given(graphs(n_max=4), graphs(n_max=4))
    @settings(max_examples=50)
    def test_w_multiplies_over_disjoint_union(self, a, b):
        w_a = w_polynomial(delta_graycode(a))
        w_b = w_polynomial(delta_graycode(b))
        w_union = w_polynomial(delta_graycode(disjoint_union(a, b)))
        assert (w_a * w_b).coeffs == w_union.coeffs

    @given(graphs(n_max=6))
    def test_delta_vanishes_below_two(self, g):
        profile = delta_graycode(g)
        assert profile.delta[0] == 0
        assert g.n == 0 or profile.delta[1] == 0


class TestPlanOrder:
    """The DP's vertex order, against a greedy that shares no code with ``_plan``.

    The estimates and refusals are a function of the steps, so equal steps
    for both passes pin them down too.
    """

    @given(st.one_of(scattered_graphs(), st.builds(relabelled, connected_unions(), st.integers())))
    @example(gen_family("prism", 20))
    @example(gen_family("star", 200))
    @example(gen_family("complete_bipartite", 7))
    @example(gen_family("cube_q3"))
    @example(random_union(200, 8, 12, 1))
    @example(random_union(400, 5, 6, 2))
    @example(Graph.from_edges(10, [(0, 7), (7, 9), (0, 9), (1, 3)]))  # {0, 7, 9} and {1, 3}, interleaved
    @example(sparse_ids(3000, 40, 60, 1))
    @example(sparse_ids(5000, 30, 15, 2))
    @example(  # a perfect matching on shuffled ids, with a triangle among them
        relabelled(Graph.from_edges(23, [*((i, i + 1) for i in range(0, 20, 2)), (20, 21), (21, 22), (20, 22)]), 3)
    )
    @example(Graph.from_edges(50, [(40, 47), (41, 45), (42, 49), (43, 44)]))  # single edges above isolated 0..39
    @example(relabelled(gen_family("prism", 20), 1))  # each key falls in one walk over the neighbours, in their order
    @example(relabelled(gen_family("complete_bipartite", 4), 2))
    @settings(deadline=None)
    def test_plan_takes_the_greedy_order(self, g):
        expected = reference_plan(g.n, [(u, v) for u, v in g.edges])
        for pass_ in ("A", "W", "count"):
            priced = list(_price(_steps(_neighbours(g)), pass_))
            assert [(m, steps) for m, steps, _ in priced] == expected
            plan = Counter((m, tuple(steps)) for m, steps in expected)
            assert list(_plan(g, pass_).items()) == list(plan.items())  # in first-seen order
            if pass_ == "A":
                assert [work[:3] for _, _, work in priced] == [dp_work(steps, m, True) for m, steps in expected]


# For each graph: how many steps ``_price`` reads and the line it refuses
# them with (None where it admits them all), per pass "A", "W", "count",
# DP_SECONDS in 1e-4, 0.01, 1 and DP_BYTES in 4 KiB, 1 MiB, in that nesting.
# An estimate that moves refuses at another step or with another line.
REFUSALS = {
    "prism200": [
        (14, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 0 MiB are supported"),
        (14, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 1 MiB are supported"),
        (14, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 0 MiB are supported"),
        (151, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 1 MiB are supported"),
        (14, "census DP estimated at 0.0 s and 0 MiB or more, at most 1 s and 0 MiB are supported"),
        (324, "census DP estimated at 0.1 s and 1 MiB or more, at most 1 s and 1 MiB are supported"),
        (14, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 0 MiB are supported"),
        (14, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 1 MiB are supported"),
        (21, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 0 MiB are supported"),
        (200, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 1 MiB are supported"),
        (21, "census DP estimated at 0.0 s and 0 MiB or more, at most 1 s and 0 MiB are supported"),
        (400, None),
        (14, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 0 MiB are supported"),
        (14, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 1 MiB are supported"),
        (21, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 0 MiB are supported"),
        (201, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 1 MiB are supported"),
        (21, "census DP estimated at 0.0 s and 0 MiB or more, at most 1 s and 0 MiB are supported"),
        (400, None),
    ],
    "K10,10": [
        (6, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 0 MiB are supported"),
        (8, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 1 MiB are supported"),
        (6, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 0 MiB are supported"),
        (13, "census DP estimated at 0.0 s and 1 MiB or more, at most 0.01 s and 1 MiB are supported"),
        (6, "census DP estimated at 0.0 s and 0 MiB or more, at most 1 s and 0 MiB are supported"),
        (13, "census DP estimated at 0.0 s and 1 MiB or more, at most 1 s and 1 MiB are supported"),
        (6, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 0 MiB are supported"),
        (8, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 1 MiB are supported"),
        (6, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 0 MiB are supported"),
        (14, "census DP estimated at 0.0 s and 1 MiB or more, at most 0.01 s and 1 MiB are supported"),
        (6, "census DP estimated at 0.0 s and 0 MiB or more, at most 1 s and 0 MiB are supported"),
        (14, "census DP estimated at 0.0 s and 1 MiB or more, at most 1 s and 1 MiB are supported"),
        (6, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 0 MiB are supported"),
        (8, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 1 MiB are supported"),
        (6, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 0 MiB are supported"),
        (14, "census DP estimated at 0.0 s and 1 MiB or more, at most 0.01 s and 1 MiB are supported"),
        (6, "census DP estimated at 0.0 s and 0 MiB or more, at most 1 s and 0 MiB are supported"),
        (14, "census DP estimated at 0.0 s and 1 MiB or more, at most 1 s and 1 MiB are supported"),
    ],
    "union200x8": [
        (21, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 0 MiB are supported"),
        (21, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 1 MiB are supported"),
        (260, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 0 MiB are supported"),
        (260, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 1 MiB are supported"),
        (1600, None),
        (1600, None),
        (21, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 0 MiB are supported"),
        (21, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 1 MiB are supported"),
        (260, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 0 MiB are supported"),
        (260, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.01 s and 1 MiB are supported"),
        (1600, None),
        (1600, None),
        (37, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 0 MiB are supported"),
        (37, "census DP estimated at 0.0 s and 0 MiB or more, at most 0.0001 s and 1 MiB are supported"),
        (1600, None),
        (1600, None),
        (1600, None),
        (1600, None),
    ],
}


class TestPriceRefusals:
    @pytest.mark.parametrize(
        "name, g",
        [
            pytest.param("prism200", gen_family("prism", 200), id="prism200"),
            pytest.param("K10,10", gen_family("complete_bipartite", 10), id="K10,10"),
            pytest.param("union200x8", random_union(200, 8, 12, 1), id="union200x8"),
        ],
    )
    def test_refusal_lines(self, monkeypatch, name, g):
        walk = list(_steps(_neighbours(g)))
        seen = []
        for pass_, seconds, nbytes in product(("A", "W", "count"), (1e-4, 0.01, 1), (4 << 10, 1 << 20)):
            monkeypatch.setattr(oed.delta, "DP_SECONDS", seconds)
            monkeypatch.setattr(oed.delta, "DP_BYTES", nbytes)
            steps = iter(walk)
            try:
                list(_price(steps, pass_))
                line = None
            except CapError as e:
                line = str(e)
            seen.append((len(walk) - sum(1 for _ in steps), line))
        assert seen == REFUSALS[name]


class TestPriceWork:
    """``_price``'s work records against the states that the DP reads."""

    @pytest.mark.parametrize(
        "g",
        [
            *(gen_family("prism", s) for s in (8, 50, 200)),
            gen_family("complete_bipartite", 10),
            gen_family("complete", 16),
            gen_family("complete", 19),
            Graph.from_edges(63, [((v - 1) // 2, v) for v in range(1, 63)]),  # the binary tree of depth 5
            Graph.from_edges(6000, [(2 * i, 2 * i + 1) for i in range(3000)]),
            random_union(200, 8, 12, 1),
        ],
        ids=["prism8", "prism50", "prism200", "K10,10", "K16", "K19", "tree63", "matching3000", "union200x8"],
    )
    def test_records_count_the_states_that_each_pass_reads(self, g):
        # The A pass reads every subset of the frontier, as the record has
        # it. The W pass (of "W" and "count") reads only the independent
        # ones, so the record bounds it, and meets it where the frontier
        # never holds an edge. A repeated step list is counted once.
        counted = {}
        before = 0  # the vertices of the components before
        walks = (_price(_steps(_neighbours(g)), pass_) for pass_ in ("A", "W", "count"))
        for (m, steps, a), (_, _, w), (_, _, c) in zip(*walks, strict=True):
            key = tuple(steps)
            if key not in counted:
                counted[key] = dp_work(steps, m, True), dp_work(steps, m, False)
            dp_a, dp_w = counted[key]
            h = len(steps)
            assert a == (*dp_a, h, _slot(h, m, True), before + 1)
            assert w[3:] == (h, _slot(h, m, False), before + 1) and c == (*w[:5], 0)
            assert all(map(ge, w[:3], dp_w))
            assert (w[:3] == dp_w) == independent_frontier(steps)
            before += h


class TestVertexSums:
    """One DP sum, read at two slots: graded by ``_groups``, or whole at slot 0."""

    @given(st.one_of(scattered_graphs(), connected_unions()))
    @example(gen_family("prism", 20))
    @example(random_union(40, 8, 12, 1))
    @settings(deadline=None)
    def test_slot_0_gives_the_sum_of_the_graded_counts(self, g):
        for edges in (True, False):
            for m, steps in _plan(g, "A" if edges else "W"):
                (counts,) = _groups(Counter([(m, steps)]), edges)
                assert _vertex_sums(steps, 0, edges) == sum(counts)


class TestMetamorphic:
    """Census properties that need no oracle, so they reach past its size."""

    @given(connected_unions(), st.integers(min_value=0, max_value=2**32))
    @example(gen_family("prism", 20), 0)
    @settings(deadline=None)
    def test_relabelling_and_edge_order_leave_the_census(self, g, seed):
        rng = random.Random(seed)
        label = list(range(g.n))
        rng.shuffle(label)
        pairs = [(label[u], label[v]) for u, v in g.edges]
        pairs = [p if rng.random() < 0.5 else p[::-1] for p in pairs]
        rng.shuffle(pairs)
        relabelled = Graph.from_edges(g.n, pairs)
        assert delta_frontier(relabelled) == delta_frontier(g)
        assert delta_by_components(relabelled) == delta_by_components(g)

    @given(connected_unions(), st.integers(min_value=0, max_value=6))
    @example(gen_family("prism", 20), 3)
    @settings(deadline=None)
    def test_isolated_vertices_pad_the_census_with_zeros(self, g, t):
        zeros = (0,) * t
        for engine in (delta_frontier, delta_by_components):
            base, padded = engine(g), engine(add_isolated(g, t))
            assert padded.n == g.n + t
            assert padded.delta == base.delta + zeros
            if base.odd_counts is None:
                assert padded.odd_counts is padded.even_counts is None
            else:
                assert padded.odd_counts == base.odd_counts + zeros
                assert padded.even_counts == base.even_counts + zeros


def schoolbook(a, b):
    """Coefficient k of a(x) * b(x): sum of a_i * b_(k-i), term by term."""
    return tuple(
        sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k in range(len(a) + len(b) - 1)
    )


coefficients = st.lists(st.integers(min_value=-(2**80), max_value=2**80), max_size=12)


class TestPolynomialProduct:
    @given(coefficients, coefficients)
    @example([], [])
    @example([], [4, -1])
    @example([3], [-2, 0, 7])
    @example([0, 0, 5], [0])
    @example([-1, 0, 2, 0], [1, 0, -3])
    def test_product_is_schoolbook_convolution(self, a, b):
        product = DeltaPolynomial(tuple(a)) * DeltaPolynomial(tuple(b))
        assert product.coeffs == schoolbook(a, b)


def folded(factors):
    out = DeltaPolynomial((1,))
    for f in factors:
        out = out * f
    return out


def counts_of(w):
    """The counts c whose binomial transform is w: c_t = sum_k C(h - k, t - k) w_k."""
    h = len(w.coeffs) - 1
    return tuple(
        sum(comb(h - k, t - k) * wk for k, wk in enumerate(w.coeffs[: t + 1])) for t in range(h + 1)
    )


# A factor times (1 - x)^z, z in 0..3, so that ``_product`` pools (1 - x).
factors_with_unit_constant = st.builds(
    lambda tail, z: folded([DeltaPolynomial((1, *tail))] + [DeltaPolynomial((1, -1))] * z),
    st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=5),
    st.integers(min_value=0, max_value=3),
)

repeated_factors = st.lists(factors_with_unit_constant, min_size=1, max_size=4).flatmap(
    lambda distinct: st.lists(st.sampled_from(distinct), max_size=40)
)


class TestRepeatedProduct:
    @given(repeated_factors)
    @example([])
    @example([DeltaPolynomial((1, -3, 2))])
    @example([DeltaPolynomial((1,))] * 5)
    @example([DeltaPolynomial((1, 2, -1))] * 17)
    @example([DeltaPolynomial((1, 0, -1, 0))] * 6 + [DeltaPolynomial((1, 4))] * 2)
    @example([DeltaPolynomial((1, -1, -3, 5, -2))] * 5)  # (1 - x)^3 (1 + 2x)
    @example([DeltaPolynomial((1, -1))] * 7)
    # (1 - x)^2 (1 + 2x) and (1 - x)^2 (1 - 3x)
    @example([DeltaPolynomial((1, 0, -3, 2))] * 4 + [DeltaPolynomial((1, -5, 7, -3))] * 3)
    # (1 - x)^2 (1 + 2x) and (1 - x) (1 + 2x): one quotient for two bases
    @example([DeltaPolynomial((1, 0, -3, 2))] * 3 + [DeltaPolynomial((1, 1, -2))] * 4)
    # three repeated bases, one of them (1 - x)^2 (1 + 2x), a factor once and one twice
    @example(
        [DeltaPolynomial((1, 2))] * 3
        + [DeltaPolynomial((1, 1, -1))] * 4
        + [DeltaPolynomial((1, 0, -3, 2))] * 5
        + [DeltaPolynomial((1, -3))]
        + [DeltaPolynomial((1, 4, 1))] * 2
    )
    # Factors seen once and twice, with trailing zeros, beside a pooled power:
    # both are folded without their zeros.
    @example(
        [DeltaPolynomial((1, 0, -3, 2))] * 3
        + [folded([DeltaPolynomial((1, 3))] + [DeltaPolynomial((1, -1))] * 3)]
        + [folded([DeltaPolynomial((1, 1, 5))] + [DeltaPolynomial((1, -1))] * 2)] * 2
    )
    # (1 + x)^40 (1 - x)^10 once, beside three short repeated bases: too long
    # for its zeros to pay off, so it is folded whole.
    @example(
        [DeltaPolynomial((1, 0, -3, 2))] * 3
        + [DeltaPolynomial((1, -4, 3))] * 4
        + [folded([DeltaPolynomial((1, -1))] * 2 + [DeltaPolynomial((1, 4, 1))])] * 5
        + [folded([DeltaPolynomial((1, 1))] * 40 + [DeltaPolynomial((1, -1))] * 10)]
    )
    @settings(deadline=None)
    def test_product_is_the_fold(self, factors):
        product = _product(Counter(map(counts_of, factors)))
        assert product == folded(factors)
        assert len(product.coeffs) == sum(len(f.coeffs) - 1 for f in factors) + 1


def zero_top(c):
    """c with its last count moved so that sum_t c_t (-1)^(h-t), the transform's top coefficient, is 0."""
    top = sum(ct * (-1) ** (len(c) - 1 - t) for t, ct in enumerate(c))
    return (*c[:-1], c[-1] - top)


@st.composite
def count_vectors(draw):
    """Counts with c_0 = 1, as ``_groups`` gives them, up to two trailing zeros.

    Half of them end in a count moved so that the transform's top
    coefficient vanishes, as (1, 5, 4) and (1, 4, 3) do.
    """
    c = (1, *draw(st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=6)))
    if draw(st.booleans()):
        c = zero_top(c)
    return c + (0,) * draw(st.integers(min_value=0, max_value=2))


class TestProductToTrueDegree:
    @given(st.dictionaries(count_vectors(), st.integers(min_value=1, max_value=6), max_size=4))
    @example({(1, 5, 4): 3})
    @example({(1, 5, 4): 1, (1, 4, 3): 2})
    @example({(1, 4, 3): 4, (1, 5, 4): 1, (1, 2): 2})
    @example({(1, 5, 4): 6, (1, 4, 3): 3, (1, 3, 0): 1})  # a zero top beside a pooled power
    @example({(1, 4, 3, 0, 0): 3, (1, 5, 4): 2})
    @settings(deadline=None)
    def test_product_is_the_schoolbook_fold_of_the_padded_transforms(self, groups):
        expected = (1,)
        for c, e in groups.items():
            for _ in range(e):
                expected = schoolbook(expected, binomial_expansion(len(c) - 1, c))
        assert _product(Counter(groups)).coeffs == expected


class TestCoverInvariants:
    # K7 is the densest draw. No deadline: the cross-check against the
    # 2^n brute-force scan should not depend on the host's speed.
    @given(graphs(n_max=7))
    @example(gen_family("complete", 7))
    @settings(deadline=None)
    def test_reduction_matches_brute_force(self, g):
        assert vc_count_reduction(g) == brute_force_vc_count(g)

    @given(graphs(n_max=7))
    def test_covers_and_independent_sets_agree(self, g):
        assert brute_force_vc_count(g) == independent_set_count(g)

    @given(graphs(n_max=7, m_max=16))
    @settings(deadline=None)
    def test_alternating_sum_counts_non_covers(self, g):
        assert inclusion_exclusion_direct(g) == 2**g.n - brute_force_vc_count(g)

    @given(graphs(n_min=2, n_max=6), st.data())
    @settings(max_examples=50)
    def test_adding_an_edge_never_adds_covers(self, g, data):
        existing = set(g.edges)
        missing = [
            (u, v) for u in range(g.n) for v in range(u + 1, g.n) if (u, v) not in existing
        ]
        if not missing:
            return
        extra = data.draw(st.sampled_from(missing))
        denser = Graph.from_edges(g.n, list(existing) + [extra])
        assert brute_force_vc_count(denser) <= brute_force_vc_count(g)

    @given(graphs(n_max=5), st.integers(min_value=0, max_value=4))
    @settings(max_examples=50)
    def test_isolated_vertices_scale_by_powers_of_two(self, g, t):
        assert vc_count_reduction(add_isolated(g, t)) == vc_count_reduction(g) << t


class TestCountChecksTheCensus:
    """Past gray's 62 edges, the paper's identity checks the census against ``count``.

    ``vc_count_reduction`` shares ``_plan`` and ``_vertex_sums`` with the DP
    engines but forms no polynomial product, so 2^n - sum_k delta_k 2^(n-k)
    checks ``_product`` at sizes no oracle reaches.
    """

    @given(wide_unions())
    @settings(max_examples=40, deadline=None)
    def test_census_gives_the_count(self, g):
        count = vc_count_reduction(g)
        assert census_cover_count(delta_by_components(g)) == count
        assert census_cover_count(delta_frontier(g)) == count
