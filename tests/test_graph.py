"""Graph construction, parsing, generators, and components."""

import random
import sys
from collections import Counter

import pytest
from reference import reference_two_colouring

import oed.graph
from oed import (
    CapError,
    Graph,
    GraphError,
    ParseError,
    add_isolated,
    connected_components,
    disjoint_union,
    gen_family,
    load_graph,
    parse_edge_list,
    random_graph,
    strip_isolated,
    to_edge_list,
)
from oed.cli import main
from oed.graph import _FAMILIES, MAX_TOKEN_CHARS


def assert_cubic_bipartite(g):
    edges = [(u, v) for u, v in g.edges]
    degree = Counter(x for e in edges for x in e)
    assert [degree[v] for v in range(g.n)] == [3] * g.n
    sides = reference_two_colouring(g.n, edges)
    assert sides is not None
    side_a, side_b = sides
    assert side_a | side_b == set(range(g.n))
    assert all((u in side_a) != (v in side_a) for u, v in edges)


def isolated(g, split):
    """Original ids of the vertices strip_isolated dropped."""
    return set(range(g.n)) - split.relabel_map.keys()


class TestGraphConstruction:
    def test_edges_are_canonical(self):
        g = Graph.from_edges(4, [(3, 2), (1, 0), (0, 3)])
        assert g.edges == ((0, 1), (0, 3), (2, 3))
        assert all(type(e) is tuple for e in g.edges)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.from_edges(2, [(1, 1)])

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="outside"):
            Graph.from_edges(2, [(0, 2)])

    def test_graphs_are_hashable_and_comparable(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)


class TestParsing:
    def test_single_edge(self):
        g = parse_edge_list("2 1\n0 1\n")
        assert g.n == 2
        assert g.edges == ((0, 1),)

    def test_empty_edge_set(self):
        g = parse_edge_list("3 0\n")
        assert g.n == 3
        assert g.edges == ()

    def test_bytes_input(self):
        assert parse_edge_list(b"2 1\n0 1\n") == parse_edge_list("2 1\n0 1\n")

    def test_comments_and_blank_lines_ignored(self):
        g = parse_edge_list("# a comment\n\n3 1\n# another\n0 2\n")
        assert g.edges == ((0, 2),)

    def test_missing_trailing_newline_ok(self):
        assert parse_edge_list("2 1\n0 1").m == 1

    def test_self_loop_diagnostic(self):
        with pytest.raises(ParseError, match=r"line 2: self-loop"):
            parse_edge_list("2 1\n0 0\n")

    def test_duplicate_edge_diagnostic(self):
        with pytest.raises(ParseError, match=r"line 3: duplicate edge"):
            parse_edge_list("2 2\n0 1\n1 0\n")

    def test_out_of_range_diagnostic(self):
        with pytest.raises(ParseError, match=r"line 2: vertex id out of range"):
            parse_edge_list("2 1\n0 5\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match=r"line 1: malformed header"):
            parse_edge_list("3\n")

    def test_non_integer_header(self):
        with pytest.raises(ParseError, match=r"line 1: .*'two' is not an integer"):
            parse_edge_list("two one\n")

    def test_too_few_edges(self):
        with pytest.raises(ParseError, match="edge count mismatch"):
            parse_edge_list("3 2\n0 1\n")

    def test_too_many_edges(self):
        with pytest.raises(ParseError, match=r"line 4: unexpected extra line"):
            parse_edge_list("3 1\n0 1\n# ok\n1 2\n")

    def test_empty_input(self):
        with pytest.raises(ParseError, match="no header"):
            parse_edge_list("# nothing here\n")

    def test_dimacs_autodetected(self):
        text = "c a comment\np edge 3 2\ne 1 2\ne 2 3\n"
        g = parse_edge_list(text)
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_dimacs_ids_are_one_based(self):
        with pytest.raises(ParseError, match=r"line 2: vertex id out of range \[1, 3\]"):
            parse_edge_list("p edge 3 1\ne 0 1\n")

    def test_dimacs_malformed_header(self):
        with pytest.raises(ParseError, match="expected 'p edge n m'"):
            parse_edge_list("p foo 3 1\ne 1 2\n")

    def test_long_token_refused(self):
        with pytest.raises(CapError) as info:
            parse_edge_list("2 1\n0 " + "1" * 10**5 + "\n")
        message = str(info.value)
        assert message.startswith("line 2: vertex id '1111")
        assert message.endswith(f"has 100000 characters, at most {MAX_TOKEN_CHARS} are supported")
        assert len(message) < 150

    def test_token_at_limit_converted(self):
        token = "0" * (MAX_TOKEN_CHARS - 1) + "1"
        assert parse_edge_list(f"2 1\n0 {token}\n").edges == ((0, 1),)

    def test_long_line_quoted_short(self):
        line = " ".join(["1"] * 1000)
        with pytest.raises(ParseError) as info:
            parse_edge_list(f"3 1\n{line}\n")
        assert str(info.value) == (
            f"line 2: malformed edge line {line[:40]!r}..., expected 'u v'"
        )

    def test_roundtrip(self, cube):
        assert parse_edge_list(to_edge_list(cube)) == cube

    def test_load_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 1\n")
        assert load_graph(path).m == 1


def parse_error(text: str) -> Exception:
    """The exception parse_edge_list raises on ``text``."""
    with pytest.raises((ParseError, CapError)) as info:
        parse_edge_list(text)
    return info.value


class TestParseErrorPrecedence:
    """Header, then the edge count, then the first bad edge line, then the first duplicate."""

    def test_count_mismatch_outranks_a_malformed_line(self):
        error = parse_error("3 3\n0 1\nx y\n")
        assert str(error) == "edge count mismatch: header declares 3 edges, found 2"

    def test_count_mismatch_outranks_a_long_token(self, tmp_path, capsys):
        # A long token is a CapError (exit 3); the mismatch is a ParseError (exit 2).
        text = "3 3\n0 1\n0 " + "1" * (MAX_TOKEN_CHARS + 8) + "\n"
        error = parse_error(text)
        assert type(error) is ParseError
        assert str(error) == "edge count mismatch: header declares 3 edges, found 2"
        path = tmp_path / "g.txt"
        path.write_text(text)
        assert main(["count", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("oed: error: edge count mismatch")

    def test_extra_line_outranks_a_malformed_line(self):
        error = parse_error("3 2\nx\n0 1\n1 2\n")
        assert str(error) == "line 4: unexpected extra line, header declares 2 edges"

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["0 5", "0 0"], "line 2: vertex id out of range [0, 3)"),
            (["0 0", "0 5"], "line 2: self-loop at vertex 0"),
            (["0 1", "x", "0 9"], "line 3: malformed edge line 'x', expected 'u v'"),
            (["0 1", "0 x", "0 0"], "line 3: vertex id 'x' is not an integer"),
            (["0 1", "0 " + "1" * 40, "x"], f"line 3: vertex id '{'1' * 40}' has 40 characters"),
        ],
    )
    def test_first_bad_line_in_line_order(self, lines, message):
        error = parse_error(f"3 {len(lines)}\n" + "\n".join(lines) + "\n")
        assert str(error).startswith(message)

    def test_malformed_line_after_a_duplicate_outranks_it(self):
        error = parse_error("3 3\n0 1\n1 0\nx\n")
        assert str(error) == "line 4: malformed edge line 'x', expected 'u v'"

    def test_first_duplicate_reported(self):
        error = parse_error("3 4\n0 1\n1 2\n2 1\n1 0\n")
        assert str(error) == "line 4: duplicate edge (2, 1), first seen on line 3"

    def test_comment_lines_keep_line_numbers(self):
        error = parse_error("c one\np edge 3 2\nc two\ne 1 2\n# three\n\ne 2 2\n")
        assert str(error) == "line 7: self-loop at vertex 2"
        error = parse_error("# one\n3 2\n# two\n0 1\n\n# three\n1 1\n")
        assert str(error) == "line 7: self-loop at vertex 1"

    @pytest.mark.parametrize("end", ["\r\n", "\r", "\f", "\n\r"])
    def test_line_ends_keep_line_numbers(self, end):
        lines = ["3 3", "0 1", "# c", "", "1 2", "2 2"]
        error = parse_error(end.join(lines) + end)
        # "\n\r" is two line ends, except where a blank line makes "\n\r\n\r":
        # its middle "\r\n" is one.
        lineno = 10 if end == "\n\r" else 6
        assert str(error) == f"line {lineno}: self-loop at vertex 2"


class TestDuplicateLines:
    """The parser keeps no line numbers; a second pass names a duplicate's two lines."""

    @pytest.mark.parametrize("dimacs", [False, True], ids=["native", "dimacs"])
    def test_far_from_its_first_occurrence(self, dimacs):
        # 30,000 edge lines, several of the parser's blocks, between the two.
        pairs = [(0, 1), *((i, i + 1) for i in range(2, 30002)), (1, 0)]
        n, m = 30003, len(pairs)
        if dimacs:
            text = f"p edge {n} {m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in pairs)
        else:
            text = f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
        assert str(parse_error(text)) == f"line {m + 1}: duplicate edge (1, 0), first seen on line 2"

    @pytest.mark.parametrize(
        "lines",
        [
            ["# one", "3 2", "0 1", "# two", "", "  ", "1  0"],
            ["c one", "p edge 3 2", "e 1 2", "c two", "# three", "", "  ", "e 2 1"],
        ],
        ids=["native", "dimacs"],
    )
    def test_comments_and_blank_lines_between(self, lines):
        # The first occurrence is on line 3, the repeat on the last line.
        text = "\r\n".join(lines) + "\r\n"
        assert str(parse_error(text)) == f"line {len(lines)}: duplicate edge (1, 0), first seen on line 3"

    def test_first_repeat_in_line_order_reported(self):
        # (0, 1) is seen first, but (2, 3) is the first to repeat.
        error = parse_error("4 5\n0 1\n2 3\n1 2\n3 2\n1 0\n")
        assert str(error) == "line 5: duplicate edge (3, 2), first seen on line 3"


class TestStripIsolated:
    def test_one_isolated(self):
        g = Graph.from_edges(3, [(0, 1)])
        split = strip_isolated(g)
        assert isolated(g, split) == {2}
        assert split.stripped == Graph.from_edges(2, [(0, 1)])
        assert split.relabel_map == {0: 0, 1: 1}

    def test_no_isolated(self, k2):
        split = strip_isolated(k2)
        assert isolated(k2, split) == set()
        assert split.stripped == k2

    def test_all_isolated(self):
        g = Graph.from_edges(2, [])
        split = strip_isolated(g)
        assert isolated(g, split) == {0, 1}
        assert split.stripped.n == 0

    def test_relabel_preserves_edges(self):
        g = Graph.from_edges(5, [(1, 3), (3, 4)])
        split = strip_isolated(g)
        assert split.stripped.n == 3
        remapped = {(split.relabel_map[u], split.relabel_map[v]) for u, v in g.edges}
        assert remapped == {(u, v) for u, v in split.stripped.edges}

    def test_sizes_partition(self):
        g = random_graph(9, 0.2, seed=5)
        split = strip_isolated(g)
        assert split.stripped.n + len(isolated(g, split)) == g.n
        assert split.stripped.m == g.m


class TestFamilies:
    def test_cube_q3_shape(self, cube):
        assert (cube.n, cube.m) == (8, 12)
        assert_cubic_bipartite(cube)

    def test_prism_shape(self):
        g = gen_family("prism", 6)
        assert (g.n, g.m) == (12, 18)
        assert_cubic_bipartite(g)
        assert len(connected_components(g)) == 1

    @pytest.mark.parametrize("size", range(4, 13, 2))
    def test_prism_family_is_cubic_bipartite(self, size):
        assert_cubic_bipartite(gen_family("prism", size))

    def test_reference_colouring_refuses_odd_cycles(self):
        for size in (3, 5):
            edges = [(u, v) for u, v in gen_family("cycle", size).edges]
            assert reference_two_colouring(size, edges) is None

    def test_prism_odd_size_rejected(self):
        with pytest.raises(ValueError, match="even"):
            gen_family("prism", 5)

    def test_prism_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_family("prism", 2)

    def test_triangle(self):
        g = gen_family("complete", 3)
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_path_cycle_star_sizes(self):
        assert gen_family("path", 5).m == 4
        assert gen_family("cycle", 5).m == 5
        assert gen_family("star", 5).m == 4
        assert gen_family("complete_bipartite", 3).m == 9

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            gen_family("petersen", 10)

    def test_size_required(self):
        with pytest.raises(ValueError, match="requires a size"):
            gen_family("path")

    def test_bounds(self):
        with pytest.raises(ValueError):
            gen_family("cycle", 2)
        with pytest.raises(ValueError):
            gen_family("path", 0)
        # A negative size is refused as a size, not counted as a huge graph.
        with pytest.raises(ValueError, match="size must be"):
            gen_family("complete", -5000)

    @pytest.mark.parametrize("name", sorted(_FAMILIES))
    def test_shapes_match_built_graphs(self, name):
        g = gen_family(name, 6)
        _, _, shape, _ = _FAMILIES[name]
        assert shape(6) == (g.n, g.m)


class TestProperties:
    def test_triangle_report(self, k3):
        assert connected_components(k3) == (frozenset({0, 1, 2}),)

    def test_disconnected_components(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert connected_components(g) == (frozenset({0, 1}), frozenset({2, 3}))

    def test_components_partition_vertices(self):
        g = random_graph(10, 0.15, seed=3)
        comps = connected_components(g)
        seen = sorted(v for comp in comps for v in comp)
        assert seen == list(range(10))

    def test_empty_graph(self):
        assert connected_components(Graph.from_edges(0, [])) == ()


class TestRandomGraph:
    def test_p_zero_is_empty(self):
        assert random_graph(5, 0.0, seed=1).m == 0

    def test_p_one_is_complete(self):
        assert random_graph(4, 1.0, seed=1).m == 6

    def test_determinism(self):
        a = random_graph(10, 0.3, seed=42)
        b = random_graph(10, 0.3, seed=42)
        assert a == b

    def test_seed_changes_graph(self):
        a = random_graph(10, 0.5, seed=1)
        b = random_graph(10, 0.5, seed=2)
        assert a != b

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            random_graph(5, 1.5, seed=0)


class TestCombinators:
    def test_disjoint_union(self, k2, k3):
        g = disjoint_union(k2, k3)
        assert (g.n, g.m) == (5, 4)
        assert len(connected_components(g)) == 2

    def test_add_isolated(self, k3):
        g = add_isolated(k3, 2)
        assert g.n == 5
        assert g.edges == k3.edges


def graph_bytes(g: Graph) -> int:
    """Bytes of a graph's edge tuple, its pairs and their ints, each object counted once."""
    objects = {id(x): x for e in g.edges for x in (e, *e)}
    return sys.getsizeof(g.edges) + sum(map(sys.getsizeof, objects.values()))


class TestCopies:
    """Parsing and generating hold about one copy of the edges they return."""

    def test_parse_holds_no_list_of_lines(self, traced_peak):
        rng = random.Random(1)
        edges = set()
        while len(edges) < 2400:
            edges.add(tuple(sorted(rng.sample(range(2800), 2))))
        lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
        rng.shuffle(lines)
        text = "# 2,400 random edges\n2800 2400\n" + "\n".join(lines) + "\n"
        g, peak = traced_peak(parse_edge_list, text)
        assert g.m == 2400
        # A list of every significant line beside the lines peaked at 2.3
        # times, and a dict from each edge to its line number at 1.6 times.
        assert peak < 1.4 * graph_bytes(g)

    def test_generator_holds_each_pair_once(self, traced_peak):
        g, peak = traced_peak(gen_family, "prism", 20000)
        # A list of the pairs, a copy of each and a set of them peaked at 2.0 times.
        assert peak < 1.3 * graph_bytes(g)

    @pytest.mark.parametrize("block", range(1, 12))
    def test_lines_split_in_blocks_as_by_splitlines(self, monkeypatch, block):
        # The parser splits its input a block at a time; a block of any size
        # must give the lines, and so the line numbers, of str.splitlines.
        ends = ["\r\n", "\r", "\n", "\f", "\n\r", "\x85", "\u2028"]
        lines = ["# c", "6 8", "", "0 1", "1 2", "# 2 3", "2 3", "3 4", "4 5", "0 5", "1 4", "0 0"]
        text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
        expected = 1 + text.splitlines().index("0 0")
        monkeypatch.setattr(oed.graph, "_BLOCK_CHARS", block)
        assert str(parse_error(text)) == f"line {expected}: self-loop at vertex 0"
        assert parse_edge_list(text.replace("0 0", "2 5")).m == 8
