"""Cover counting: oracles, the census reduction, and their agreement."""

import ast
import time
import tracemalloc
from pathlib import Path

import pytest
from reference import census_cover_count, reference_independent_count, reference_vc_count

import oed.delta
from oed import (
    ENGINES,
    VERTEX_CAP,
    CapError,
    DeltaPolynomial,
    Graph,
    add_isolated,
    brute_force_vc_count,
    delta_by_components,
    delta_frontier,
    disjoint_union,
    gen_family,
    independent_set_count,
    random_graph,
    vc_count_reduction,
)

METHODS = ["naive", "gray", "components", "frontier"]

SOURCE = Path(__file__).resolve().parents[1] / "src" / "oed"


def prism_cover_count(s):
    """Covers of the prism over C_s by a rung-to-rung transfer matrix.

    A rung (i, s + i) meets a cover as both ends, top only or bottom
    only; consecutive rungs must also cover the two cycle edges between
    them, which T encodes, so the count is trace(T^s).
    """
    t = [[1, 1, 1], [1, 0, 1], [1, 1, 0]]
    power = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(s):
        power = [[sum(power[i][k] * t[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return sum(power[i][i] for i in range(3))


def path_cover_count(n):
    """Covers of a path on n vertices: F(n + 2), with F(0) = 0 and F(1) = 1."""
    a, b = 0, 1
    for _ in range(n + 2):
        a, b = b, a + b
    return a


def copies(g, count):
    """``count`` disjoint copies of g, side by side."""
    return Graph.from_edges(
        count * g.n, [(u + i * g.n, v + i * g.n) for i in range(count) for u, v in g.edges]
    )


TRIANGLES = copies(gen_family("complete", 3), 1000)

# One long component, 1,000 equal ones, and a long path beside three triangles:
# a W product of each shape that ``_product`` forms, with its known count.
PAST_THE_ORACLES = [
    pytest.param(gen_family("prism", 200), prism_cover_count(200), id="prism200"),
    pytest.param(TRIANGLES, 4**1000, id="triangles1000"),
    pytest.param(
        disjoint_union(gen_family("path", 3000), copies(gen_family("complete", 3), 3)),
        64 * path_cover_count(3000),
        id="path3000-triangles3",
    ),
]

# K3 plus t isolated vertices for t = 1..5, and a million isolated vertices alone.
ISOLATED_CASES = [
    pytest.param(add_isolated(gen_family("complete", 3), t), 4 << t, id=str(t)) for t in range(1, 6)
] + [pytest.param(Graph(1_000_000, ()), 1 << 1_000_000, id="edgeless1000000")]


class TestFrozenCounts:
    def test_single_edge(self, k2):
        assert brute_force_vc_count(k2) == 3

    def test_triangle(self, k3):
        assert brute_force_vc_count(k3) == 4

    def test_path3(self, p3):
        assert brute_force_vc_count(p3) == 5

    def test_cycle4_independent_sets(self):
        assert independent_set_count(gen_family("cycle", 4)) == 7

    def test_cube(self, cube):
        assert brute_force_vc_count(cube) == 35

    def test_prism6(self):
        assert brute_force_vc_count(gen_family("prism", 6)) == 199

    def test_edgeless(self):
        g = Graph.from_edges(3, [])
        assert brute_force_vc_count(g) == 8
        assert independent_set_count(g) == 8


class TestOracleRelations:
    @pytest.mark.parametrize("seed", range(6))
    def test_covers_equal_independent_sets(self, seed):
        g = random_graph(7, 0.4, seed=seed)
        assert brute_force_vc_count(g) == independent_set_count(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference(self, seed):
        g = random_graph(6, 0.5, seed=seed)
        edges = [(u, v) for u, v in g.edges]
        assert brute_force_vc_count(g) == reference_vc_count(g.n, edges)
        assert independent_set_count(g) == reference_independent_count(g.n, edges)

    def test_vertex_cap(self):
        g = Graph.from_edges(29, [(0, 1)])
        with pytest.raises(CapError, match="at most 28"):
            brute_force_vc_count(g)
        with pytest.raises(CapError, match="at most 28"):
            independent_set_count(g)

    @pytest.mark.parametrize(
        "scan,what",
        [(brute_force_vc_count, "the brute-force cover scan"), (independent_set_count, "the independent-set scan")],
    )
    def test_scan_price(self, scan, what):
        # 26 vertices are inside VERTEX_CAP, but 2^26 subsets are priced
        # over DP_SECONDS and refused before the scan starts.
        g = Graph.from_edges(26, [])
        start = time.perf_counter()
        with pytest.raises(CapError) as info:
            scan(g)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == f"{what} of 2^26 vertex subsets estimated at 67.1 s, at most 60 s is supported"


class TestReducedCount:
    def test_triangle(self, k3):
        assert vc_count_reduction(k3) == 4

    def test_edgeless_zero_vertex_graph(self):
        assert vc_count_reduction(Graph.from_edges(0, [])) == 1


class TestReductionPipeline:
    @pytest.mark.parametrize("method", METHODS)
    def test_engine_choice_is_irrelevant(self, method, cube):
        # The census formula reads only delta, so each engine's profile
        # gives the count, the components engine's with O/E left out too.
        assert census_cover_count(ENGINES[method](cube)) == 35
        assert vc_count_reduction(cube) == 35

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_brute_force(self, seed):
        g = random_graph(9, 0.35, seed=seed)
        assert vc_count_reduction(g) == brute_force_vc_count(g)

    @pytest.mark.parametrize("g,expected", ISOLATED_CASES)
    def test_isolated_vertices_double_the_count(self, g, expected):
        # 2^n W(1/2) needs no array of n + 1 entries: the peak of the
        # million-vertex case is the 125 kB count itself.
        tracemalloc.start()
        try:
            count = vc_count_reduction(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == expected
        assert peak < 1 << 20
        if g.n <= VERTEX_CAP:
            assert brute_force_vc_count(g) == expected

    def test_edgeless(self):
        g = Graph.from_edges(4, [])
        assert vc_count_reduction(g) == 16

    def test_beyond_oracle_reach(self):
        # 39 vertices is past the 2^n oracle cap; the reduction still
        # answers exactly, and covers multiply over components.
        g = gen_family("complete", 3)
        for _ in range(12):
            g = disjoint_union(g, gen_family("complete", 3))
        assert g.n == 39
        assert vc_count_reduction(g) == 4**13

    @pytest.mark.parametrize(
        "s,expected",
        [(4, 35), (6, 199), (12, 39203), (20, 45239075), (200, prism_cover_count(200))],
    )
    def test_prism_reach(self, s, expected):
        # prism 12 and 20 have 36 and 60 edges: far past a 2^m sweep;
        # prism 200 has 600, far past the enumeration engines' cap.
        assert prism_cover_count(s) == expected
        g = gen_family("prism", s)
        start = time.perf_counter()
        count = vc_count_reduction(g)
        elapsed = time.perf_counter() - start
        assert count == expected
        assert elapsed < 1.0, f"prism {s} (m={g.m}) took {elapsed:.2f}s"

    def test_complete_bipartite_past_edge_cap(self):
        # K_{8,8} has 64 edges; a cover holds one whole side: 2^8 + 2^8 - 1.
        g = gen_family("complete_bipartite", 8)
        assert vc_count_reduction(g) == 2**9 - 1

    def test_component_reach_three_prisms(self):
        # 90 edges in all, past the enumeration engines' cap; 30 per component.
        piece = gen_family("prism", 10)
        g = disjoint_union(disjoint_union(piece, piece), piece)
        assert g.m == 90
        start = time.perf_counter()
        count = vc_count_reduction(g)
        elapsed = time.perf_counter() - start
        assert count == prism_cover_count(10) ** 3
        assert elapsed < 1.0, f"3 x prism 10 took {elapsed:.2f}s"


class TestCountFormsNoProduct:
    """``count`` multiplies each component's number of independent sets.

    It forms no W polynomial, so the paper's identity on a census checks
    ``_product`` against it past every oracle's reach.
    """

    @pytest.mark.parametrize("g,expected", PAST_THE_ORACLES)
    def test_count_needs_no_transform_or_product(self, monkeypatch, g, expected):
        def refused(*args):
            raise AssertionError("count formed a W polynomial")

        monkeypatch.setattr(oed.delta, "_product", refused)
        monkeypatch.setattr(oed.delta, "_binomial_transform", refused)
        assert vc_count_reduction(g) == expected

    @pytest.mark.parametrize("g,expected", PAST_THE_ORACLES)
    def test_count_reads_each_total_at_slot_0(self, monkeypatch, g, expected):
        # At slot 0 each component's DP sum is its number of independent
        # sets: no coefficient is packed, so none is unpacked.
        slots = []
        vertex_sums = oed.delta._vertex_sums

        def spy(steps, slot, edges):
            slots.append(slot)
            return vertex_sums(steps, slot, edges)

        monkeypatch.setattr(oed.delta, "_vertex_sums", spy)
        assert vc_count_reduction(g) == expected
        assert slots and set(slots) == {0}

    def test_a_wrong_product_fails_the_identity(self, monkeypatch):
        count = vc_count_reduction(TRIANGLES)
        engines = (delta_by_components, delta_frontier)
        assert [census_cover_count(engine(TRIANGLES)) for engine in engines] == [count, count]
        product = oed.delta._product

        def off_by_one(groups):
            coeffs = list(product(groups).coeffs)
            coeffs[len(coeffs) // 2] += 1
            return DeltaPolynomial(tuple(coeffs))

        monkeypatch.setattr(oed.delta, "_product", off_by_one)
        assert vc_count_reduction(TRIANGLES) == count
        for engine in engines:
            assert census_cover_count(engine(TRIANGLES)) != count


def imported_modules(source: str, package: str = "oed") -> set[str]:
    """Every module an import in ``source`` can name, relative ones read in ``package``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = package + ("." + base if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


class TestOracleBoundary:
    """The cover oracles check the census DP, so they share none of its code.

    The harness and the command line use only the DP's public names, so
    only ``oed.delta`` knows its private contract (the plan and its slots).
    """

    def test_covers_imports_nothing_from_the_engine(self):
        names = imported_modules((SOURCE / "covers.py").read_text(encoding="utf-8"))
        assert "oed.graph" in names  # the file was read and its imports resolved
        assert not [name for name in names if name == "oed.delta" or name.startswith("oed.delta.")]

    def test_the_check_sees_every_import_form(self):
        for line in (
            "from .delta import _plan",
            "from . import delta",
            "from oed.delta import _vertex_sums",
            "import oed.delta",
            "from oed import delta as engine",
        ):
            assert "oed.delta" in imported_modules(line), line
        assert "oed.delta._plan" in imported_modules("from .delta import ENGINES, _plan")

    @pytest.mark.parametrize("module", ["verify", "cli"])
    def test_harness_and_cli_import_no_private_engine_name(self, module):
        names = imported_modules((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
        assert "oed.delta.ENGINES" in names  # the file was read and its imports resolved
        assert not [name for name in names if name.startswith("oed.delta._")]
