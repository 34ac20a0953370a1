"""The command's checks at scale, on the paper's own class and beside it, as the CI workflow runs them.

CI runs these checks on the installed ``oed``; here the same command runs
as ``python -m oed`` on the source tree, with the same inputs, expected
values and bounds, so a change that breaks them fails tier-1 too.
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
# fresh interpreter, as in CI: on Linux a child's ru_maxrss starts from
# its spawner's peak, so spawning from the test process would add that.
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


def oed_stdout(*args: str) -> str:
    """The stdout of ``python -m oed args`` on the source tree, which must exit 0 within 20 s, as in CI."""
    return subprocess.run(
        [sys.executable, "-m", "oed", *args], env=source_env(), capture_output=True, text=True, check=True, timeout=20
    ).stdout


def canonical_prism_lines(s: int):
    """The lines of prism s's canonical edge list, ordered as sorted pairs (u, v), u < v.

    The prism's edges are the two s-cycles (i, i + 1 mod s) and
    (s + i, s + (i + 1) mod s) and the rungs (i, s + i). So vertex u < s
    has the larger neighbours u + 1 (u < s - 1), s - 1 (u = 0) and s + u,
    and vertex u >= s has u + 1 (u < 2s - 1) and 2s - 1 (u = s), each in
    increasing order.
    """
    yield f"{2 * s} {3 * s}\n"
    for u in range(2 * s):
        if u < s:
            larger = [u + 1] if u < s - 1 else []
            larger += [s - 1] if u == 0 and s > 2 else []
            larger.append(s + u)
        else:
            larger = [u + 1] if u < 2 * s - 1 else []
            larger += [2 * s - 1] if u == s and s > 2 else []
        yield from (f"{u} {v}\n" for v in larger)


def test_canonical_prism_lines_match_the_formula():
    # The formula of the CI step, which builds every pair: sorted({tuple(sorted(p)) ...}).
    for s in (3, 4, 7, 20):
        pairs = [p for i in range(s) for p in ((i, (i + 1) % s), (s + i, s + (i + 1) % s), (i, s + i))]
        edges = sorted({tuple(sorted(p)) for p in pairs})
        text = f"{2 * s} {3 * s}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        assert "".join(canonical_prism_lines(s)) == text


@pytest.fixture(scope="module")
def prism_300000(tmp_path_factory):
    """gen prism 300000 into a file: (exit code, peak MB, its stderr, the file)."""
    tmp = tmp_path_factory.mktemp("prism")
    path = tmp / "p.txt"
    code, mb = oed_peak(tmp / "gen.err", "gen", "prism", "300000", "--output", str(path))
    return code, mb, (tmp / "gen.err").read_text(), path


def test_gen_prism_300000_writes_the_canonical_list_under_160_mb(prism_300000):
    code, mb, err, path = prism_300000
    assert (code, err) == (0, "")
    assert mb < 160, f"gen prism 300000 peaked at {mb} MB"
    expected = hashlib.sha256()
    for line in canonical_prism_lines(300000):
        expected.update(line.encode())
    actual = hashlib.sha256(path.read_bytes()).digest()
    assert actual == expected.digest(), "p.txt is not prism 300000's canonical edge list"


def test_count_refuses_prism_300000_under_235_mb(prism_300000, tmp_path):
    *_, path = prism_300000
    code, mb = oed_peak(tmp_path / "count.err", "count", "--input", str(path))
    err = (tmp_path / "count.err").read_text()
    assert code == 3, err
    assert len(err.splitlines()) == 1 and err.startswith("oed: error:"), err
    assert mb < 235, f"count on prism 300000 peaked at {mb} MB"


def test_matching_3000_writes_its_wide_counts_in_json_and_csv(tmp_path):
    # A perfect matching of m edges has W = (1 - x^2)^m, so delta_2j =
    # (-1)^(j+1) C(m, j) for j >= 1 and delta is 0 at odd k. Its counts run
    # to 902 digits, and each of its 3,000 components is a single edge.
    m = 3000
    path = tmp_path / "matching3000.txt"
    path.write_text(f"{2 * m} {m}\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(m)))
    args = ("delta", "--input", str(path), "--engine", "components")
    delta = [int(x) for x in json.loads(oed_stdout(*args))["delta"]]
    expected = [0] * (2 * m + 1)
    for j in range(1, m + 1):
        expected[2 * j] = (-1) ** (j + 1) * comb(m, j)
    assert delta == expected, "3,000-edge matching: delta is not -(1 - x^2)^3000 past k = 0"
    rows = oed_stdout(*args, "--format", "csv").splitlines()
    assert rows[0] == "k,odd,even,delta"
    assert [int(r.split(",")[3]) for r in rows[1:]] == delta, "the CSV's delta column is not the JSON's"


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


@pytest.mark.parametrize("family,size,covers", [("complete_bipartite", 10, 2047), ("complete", 19, 20)])
def test_count_and_both_dp_engines_on_dense_graphs(tmp_path, family, size, covers):
    # count forms only W, by a pass over independent frontier states, so
    # K_{10,10} and K_19 finish at once; both DP engines agree on delta.
    # K_{10,10} has 2 * 2^10 - 1 covers and K_19 has 20.
    path = tmp_path / "g.txt"
    path.write_text(oed_stdout("gen", family, str(size)))
    assert json.loads(oed_stdout("count", "--input", str(path)))["count"] == str(covers)
    frontier, components = (
        json.loads(oed_stdout("delta", "--input", str(path), "--engine", engine))["delta"]
        for engine in ("frontier", "components")
    )
    assert frontier == components, f"delta differs on {family} {size}"
