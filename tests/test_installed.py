"""The command's checks at scale, on the paper's own class and beside it.

Each test runs ``python -m oed`` cold on the source tree, as a user runs
``oed``, and checks its output against a closed form computed here, with
no code shared with the engines, or its peak memory against a bound.
CI runs these checks through tier-1 only: after ``pip install -e ".[test]"``,
``oed`` and ``python -m oed`` run the same ``oed.cli:entry`` over the
same source, and the console script's own wiring is checked in
``tests/test_cli.py`` (``test_console_script`` and
``test_installed_console_script``).
"""

import hashlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="reads Linux's ru_maxrss, in KiB")

# Runs argv[2:] with its stderr to the file argv[1], then prints the exit
# code and the children's peak resident set in MB. It runs in a small
# fresh interpreter: on Linux a child's ru_maxrss starts from its
# spawner's peak, so spawning from the test process would add that.
PEAK = (
    "import resource, subprocess, sys;"
    " code = subprocess.call(sys.argv[2:], stderr=open(sys.argv[1], 'w'));"
    " print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024)"
)


def source_env() -> dict[str, str]:
    """The environment with the source tree first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def oed_peak(err: Path, *args: str) -> tuple[int, int]:
    """(exit code, peak MB) of ``python -m oed args`` on the source tree, its stderr in ``err``."""
    out = subprocess.run(
        [sys.executable, "-c", PEAK, str(err), sys.executable, "-m", "oed", *args],
        env=source_env(),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    code, mb = map(int, out.split())
    return code, mb


def oed_stdout(*args: str, timeout: int = 20) -> str:
    """The stdout of ``python -m oed args`` on the source tree, which must exit 0 within ``timeout`` s."""
    return subprocess.run(
        [sys.executable, "-m", "oed", *args],
        env=source_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=timeout,
    ).stdout


def canonical_prism_lines(s: int, first: int = 0):
    """The lines of prism s's canonical edge list, ordered as sorted pairs (u, v), u < v.

    The prism's edges are the two s-cycles (i, i + 1 mod s) and
    (s + i, s + (i + 1) mod s) and the rungs (i, s + i). So vertex u < s
    has the larger neighbours u + 1 (u < s - 1), s - 1 (u = 0) and s + u,
    and vertex u >= s has u + 1 (u < 2s - 1) and 2s - 1 (u = s), each in
    increasing order. Each id is written plus ``first``, which leaves
    the ids below ``first`` isolated.
    """
    yield f"{2 * s + first} {3 * s}\n"
    for u in range(2 * s):
        if u < s:
            larger = [u + 1] if u < s - 1 else []
            larger += [s - 1] if u == 0 and s > 2 else []
            larger.append(s + u)
        else:
            larger = [u + 1] if u < 2 * s - 1 else []
            larger += [2 * s - 1] if u == s and s > 2 else []
        yield from (f"{u + first} {v + first}\n" for v in larger)


def triangle_lines(n: int, first: int = 0) -> str:
    """The edges of n disjoint triangles on the vertices first, ..., first + 3n - 1, one to a line."""
    return "".join(f"{i} {i + 1}\n{i + 1} {i + 2}\n{i} {i + 2}\n" for i in range(first, first + 3 * n, 3))


def triangles_w(n: int) -> list[int]:
    """W of n disjoint triangles, (1 - x)^(2n) (1 + 2x)^n, by coefficient.

    (1 + 2x)^n by the binomial theorem, then 2n products with 1 - x, each
    a running difference of the coefficients.
    """
    w = [comb(n, j) << j for j in range(n + 1)]
    for _ in range(2 * n):
        w = [a - b for a, b in zip(w + [0], [0] + w)]
    return w


def test_canonical_prism_lines_match_the_formula():
    # Every pair of the formula, sorted and deduplicated.
    for s in (3, 4, 7, 20):
        pairs = [p for i in range(s) for p in ((i, (i + 1) % s), (s + i, s + (i + 1) % s), (i, s + i))]
        edges = sorted({tuple(sorted(p)) for p in pairs})
        text = f"{2 * s} {3 * s}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        assert "".join(canonical_prism_lines(s)) == text
        shifted = f"{2 * s + 1} {3 * s}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in edges)
        assert "".join(canonical_prism_lines(s, 1)) == shifted


def test_triangles_w_is_the_product_of_the_binomial_expansions():
    # The convolution of (1 + 2x)^n and (1 - x)^(2n), term by term.
    for n in (1, 2, 5, 30):
        a = [comb(n, j) << j for j in range(n + 1)]
        b = [(-1) ** i * comb(2 * n, i) for i in range(2 * n + 1)]
        w = [sum(a[j] * b[k - j] for j in range(max(0, k - 2 * n), min(k, n) + 1)) for k in range(3 * n + 1)]
        assert triangles_w(n) == w


@pytest.fixture(scope="module")
def prism_300000(tmp_path_factory):
    """gen prism 300000 into a file: (exit code, peak MB, its stderr, the file)."""
    tmp = tmp_path_factory.mktemp("prism")
    path = tmp / "p.txt"
    code, mb = oed_peak(tmp / "gen.err", "gen", "prism", "300000", "--output", str(path))
    return code, mb, (tmp / "gen.err").read_text(), path


def test_gen_prism_300000_writes_the_canonical_list_under_160_mb(prism_300000):
    # gen holds each edge pair once and writes the edge list in batches.
    # Cold peak on a 2-CPU x86 box with Python 3.11: 132 MB; the bound
    # leaves about 30 MB for other Python versions.
    code, mb, err, path = prism_300000
    assert (code, err) == (0, "")
    assert mb < 160, f"gen prism 300000 peaked at {mb} MB"
    expected = hashlib.sha256()
    for line in canonical_prism_lines(300000):
        expected.update(line.encode())
    actual = hashlib.sha256(path.read_bytes()).digest()
    assert actual == expected.digest(), "p.txt is not prism 300000's canonical edge list"


def assert_count_refuses_under_235_mb(path: Path, tmp_path: Path) -> None:
    """``count --input path`` exits 3 with one ``oed: error:`` line, its cold peak under 235 MB."""
    code, mb = oed_peak(tmp_path / "count.err", "count", "--input", str(path))
    err = (tmp_path / "count.err").read_text()
    assert code == 3, err
    assert len(err.splitlines()) == 1 and err.startswith("oed: error:"), err
    assert mb < 235, f"count on {path.name} peaked at {mb} MB"


def test_count_refuses_prism_300000_under_235_mb(prism_300000, tmp_path):
    # The parser reads the 12 MB file a block at a time into a list of
    # edges, and count refuses the graph in _plan, whose tables are lists
    # indexed by the rank of each endpoint, with exit 3. Cold peak on a
    # 2-CPU x86 box with Python 3.11: 203 MB; the bound leaves about 30 MB
    # for other Python versions.
    *_, path = prism_300000
    assert_count_refuses_under_235_mb(path, tmp_path)


def test_count_refuses_prism_300000_with_shifted_ids_under_235_mb(tmp_path):
    # The same prism with every id one higher: vertex 0 is isolated, so
    # the endpoints are ranked through a list indexed by id. Cold peak, as
    # above: 221 MB; a rank dict held beside the neighbour lists read 249.
    path = tmp_path / "shifted.txt"
    with open(path, "w") as fh:
        fh.writelines(canonical_prism_lines(300000, 1))
    assert_count_refuses_under_235_mb(path, tmp_path)


def matching_3000() -> tuple[str, list[int]]:
    """A 3,000-edge perfect matching and its delta.

    A perfect matching of m edges has W = (1 - x^2)^m, so delta_2j =
    (-1)^(j+1) C(m, j) for j >= 1 and delta is 0 at odd k. Its counts run
    to 902 digits, and each of its 3,000 components is a single edge.
    """
    m = 3000
    expected = [0] * (2 * m + 1)
    for j in range(1, m + 1):
        expected[2 * j] = (-1) ** (j + 1) * comb(m, j)
    return f"{2 * m} {m}\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(m)), expected


def triangles_1000() -> tuple[str, list[int]]:
    """1,000 disjoint triangles and their delta.

    Each triangle has W = (1 - x)^2 (1 + 2x), so N of them have
    W = (1 - x)^(2N) (1 + 2x)^N and delta_k = -W_k for k >= 1. The
    triangles share one count vector (1, 3, 0, 0): it is transformed once,
    and its two trailing zeros go into the pooled power of (1 - x).
    """
    n = 1000
    return f"{3 * n} {3 * n}\n" + triangle_lines(n), [0] + [-w for w in triangles_w(n)[1:]]


@pytest.mark.parametrize("graph", [matching_3000, triangles_1000], ids=lambda graph: graph.__name__)
def test_components_engine_writes_the_closed_form_in_json_and_csv(tmp_path, graph):
    text, expected = graph()
    path = tmp_path / "g.txt"
    path.write_text(text)
    args = ("delta", "--input", str(path), "--engine", "components")
    delta = [int(x) for x in json.loads(oed_stdout(*args))["delta"]]
    assert delta == expected, f"{graph.__name__}: delta is not the closed form's"
    rows = oed_stdout(*args, "--format", "csv").splitlines()
    assert rows[0] == "k,odd,even,delta"
    assert [int(r.split(",")[3]) for r in rows[1:]] == delta, "the CSV's delta column is not the JSON's"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unbuffered_stdout_gets_the_same_bytes(tmp_path, fmt):
    # The profile writers hand stdout one count at a time and leave the
    # batching to its text layer, which entry() keeps batching under -u.
    text, _ = matching_3000()
    path = tmp_path / "matching3000.txt"
    path.write_text(text)
    env = {key: value for key, value in source_env().items() if key != "PYTHONUNBUFFERED"}
    args = ("-m", "oed", "delta", "--input", str(path), "--engine", "components", "--format", fmt)
    buffered, unbuffered = (
        subprocess.run([sys.executable, *flags, *args], env=env, capture_output=True, check=True, timeout=20).stdout
        for flags in ([], ["-u"])
    )
    assert len(buffered) > 1 << 20
    assert unbuffered == buffered


def test_frontier_engine_matches_the_closed_forms_on_300_triangles(tmp_path):
    # The default engine forms P and W. A triangle has P = 1 + 3x^2 + 4x^3
    # and W = (1 - x)^2 (1 + 2x), and O_k + E_k = P_k, E_k - O_k = W_k
    # for k >= 1, with P and W raised to the 300th power.
    n = 300
    path = tmp_path / "triangles300.txt"
    path.write_text(f"{3 * n} {3 * n}\n" + triangle_lines(n))
    profile = json.loads(oed_stdout("delta", "--input", str(path)))
    odd, even = ([int(x) for x in profile[key]] for key in ("O", "E"))
    p = [0] * (3 * n + 1)  # (1 + 3x^2 + 4x^3)^n, by the multinomial theorem
    for i in range(n + 1):
        for j in range(n - i + 1):
            p[2 * i + 3 * j] += comb(n, i) * comb(n - i, j) * 3**i * 4**j
    assert [o + e for o, e in zip(odd, even)] == [0] + p[1:], "O + E is not (1 + 3x^2 + 4x^3)^300"
    assert [e - o for o, e in zip(odd, even)] == [0] + triangles_w(n)[1:], "E - O is not (1 - x)^600 (1 + 2x)^300"


def test_count_on_prism_1600_is_the_trace_of_the_transfer_matrix_power(tmp_path):
    # count runs the W pass ungraded and is priced at the graded slot of
    # h + 1 bits, which admits prism 1600. Its covers number trace(T^1600),
    # T the rung-to-rung transfer matrix over what a cover leaves out of a
    # rung: neither end, the first or the second, never both ends of an edge.
    path = tmp_path / "prism1600.txt"
    path.write_text(oed_stdout("gen", "prism", "1600"))
    count = int(json.loads(oed_stdout("count", "--input", str(path)))["count"])
    t = [[1, 1, 1], [1, 0, 1], [1, 1, 0]]
    p = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(1600):
        p = [[sum(p[i][k] * t[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert count == sum(p[i][i] for i in range(3)), "prism 1600: count is not trace(T^1600)"


def test_count_on_path_3000_plus_three_triangles_is_64_f_3002(tmp_path):
    # A path on n vertices has F(n + 2) covers and a triangle has 4. count
    # multiplies the components' numbers of independent sets, the path's
    # a 628-digit int beside three small ones.
    n = 3000
    path = tmp_path / "path3000_triangles.txt"
    path.write_text(f"{n + 9} {n + 8}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)) + triangle_lines(3, n))
    a, b = 0, 1  # F(0), F(1)
    for _ in range(n + 2):
        a, b = b, a + b
    assert int(json.loads(oed_stdout("count", "--input", str(path)))["count"]) == 64 * a


@pytest.mark.parametrize(
    "size,engine", [(400, ["--engine", "components"]), (200, [])], ids=["prism400-components", "prism200-frontier"]
)
def test_census_gives_the_count_by_the_papers_identity_on_prisms(tmp_path, size, engine):
    # count forms no W polynomial: it multiplies each component's number of
    # independent sets. So covers = 2^n - sum_k delta_k 2^(n-k) checks the
    # census engines' polynomial products past the oracles' reach:
    # components on prism 400, the default frontier on prism 200.
    path = tmp_path / "prism.txt"
    path.write_text(oed_stdout("gen", "prism", str(size)))
    profile = json.loads(oed_stdout("delta", "--input", str(path), *engine))
    n, delta = profile["n"], [int(d) for d in profile["delta"]]
    census = (1 << n) - sum(d << (n - k) for k, d in enumerate(delta))
    assert census == int(json.loads(oed_stdout("count", "--input", str(path)))["count"])


@pytest.mark.parametrize("family,size,covers", [("complete_bipartite", 10, 2047), ("complete", 19, 20)])
def test_count_and_both_dp_engines_on_dense_graphs(tmp_path, family, size, covers):
    # count runs the W pass ungraded, over independent frontier states
    # only, so K_{10,10} and K_19 finish at once; both DP engines agree on
    # delta. K_{10,10} has 2 * 2^10 - 1 covers and K_19 has 20.
    path = tmp_path / "g.txt"
    path.write_text(oed_stdout("gen", family, str(size)))
    assert json.loads(oed_stdout("count", "--input", str(path)))["count"] == str(covers)
    frontier, components = (
        json.loads(oed_stdout("delta", "--input", str(path), "--engine", engine))["delta"]
        for engine in ("frontier", "components")
    )
    assert frontier == components, f"delta differs on {family} {size}"


def test_verify_passes_its_own_cross_checks():
    # Every labeled graph on up to 4 vertices and 30 seeded random graphs,
    # each run through all four engines and the three cover counts.
    args = ("--exhaustive-n", "4", "--trials", "30", "--n-max", "10", "--m-max", "20", "--seed", "1")
    report = json.loads(oed_stdout("verify", *args, timeout=60))
    assert report["passing"] is True, report["failures"]


def test_bench_rates_every_engine_by_the_census_size(tmp_path):
    # Two disjoint triangles have m = 6 edges, so each engine, the
    # components engine with its two 7-subset censuses included, reports
    # the 2^6 - 1 = 63 nonempty edge subsets of the whole graph.
    path = tmp_path / "triangles2.txt"
    path.write_text("6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
    engines = ["naive", "gray", "components", "frontier"]
    records = json.loads(oed_stdout("bench", "--input", str(path), "--engines", ",".join(engines)))
    assert [(r["engine"], r["subsets"]) for r in records] == [(engine, "63") for engine in engines]
