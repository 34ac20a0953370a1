"""The golden-output corpus: what each command line of a fixed set prints.

A case is an ``oed`` argv. Its outcome is the exit code, the sha256 of its
stdout and its stderr text, from one in-process call of ``oed.cli.main``.
For ``verify`` and ``bench`` the JSON is hashed with its timing fields
(``wall_time``, ``subsets_per_second``) removed. ``tests/golden.json``
holds the outcomes, and ``tests/test_golden.py`` checks the code against
it.

The inputs are built by ``write_inputs`` into the working directory, and
the argv name them by relative paths, so error lines that quote a path
read the same on every run. They are ``gen_family`` graphs, perfect
matchings, disjoint triangles, a DIMACS file and a list of malformed
texts that covers every parse error. The enumeration engines run only on
graphs of at most 16 edges, apart from their refusals.

Regenerate the file from the code under ``src/`` with

    PYTHONPATH=src python tests/golden.py

A change that alters an entry says which entries changed, and why.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from oed import Graph, gen_family, to_edge_list
from oed.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

ENGINES = ("naive", "gray", "components", "frontier")
DP_ENGINES = ("components", "frontier")
FORMATS = ("json", "csv")
METHODS = ("reduction", "brute", "independent")
TIMING = ("wall_time", "subsets_per_second")


def matching(k: int) -> Graph:
    return Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def triangles(k: int) -> Graph:
    return Graph.from_edges(
        3 * k, [e for i in range(0, 3 * k, 3) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))]
    )


# Graphs of at most 16 edges: every engine and every count method.
SMALL = {
    "empty": Graph(0, ()),
    "isolated5": Graph(5, ()),
    "k2": gen_family("complete", 2),
    "path6": gen_family("path", 6),
    "cycle7": gen_family("cycle", 7),
    "complete5": gen_family("complete", 5),
    "complete6": gen_family("complete", 6),
    "kbip3": gen_family("complete_bipartite", 3),
    "star9": gen_family("star", 9),
    "cube": gen_family("cube_q3"),
    "prism4": gen_family("prism", 4),
    "matching8": matching(8),
    "triangles5": triangles(5),
    "edge_isolated": Graph.from_edges(12, [(3, 9)]),
}

# Larger graphs: the two DP engines and the reduction count.
LARGE = {
    "path300": gen_family("path", 300),
    "cycle120": gen_family("cycle", 120),
    "star200": gen_family("star", 200),
    "complete14": gen_family("complete", 14),
    "kbip7": gen_family("complete_bipartite", 7),
    "prism100": gen_family("prism", 100),
    "matching1000": matching(1000),
    "triangles300": triangles(300),
    "mixed": Graph.from_edges(
        40, [*gen_family("prism", 6).edges, *((12 + i, 13 + i) for i in range(10)), (30, 33)]
    ),
    # 3 * 2^14998 covers: 4,516 digits, past the interpreter's default limit.
    "edge15000": Graph.from_edges(15000, [(0, 1)]),
}

# Long graphs: only the components engine and the reduction count.
LONG = {
    "prism400": gen_family("prism", 400),
    "path1000": gen_family("path", 1000),
    "star1000": gen_family("star", 1000),
    "matching3000": matching(3000),
}

# Graphs that a DP engine, the enumeration engines or a scan refuses.
REFUSED = {
    "path30": gen_family("path", 30),
    "complete12": gen_family("complete", 12),
    "complete40": gen_family("complete", 40),
    "matching20000": matching(20000),
    "prism2000": gen_family("prism", 2000),
}

# Malformed or unusual texts, each read by ``oed delta``: one per parse
# error and cap, in both formats, plus inputs that parse.
TEXTS = {
    "bad_empty": "",
    "bad_comments_only": "# nothing\n\n# here\n",
    "bad_dimacs_no_header": "c a comment\nc another\n",
    "bad_header_short": "3\n0 1\n",
    "bad_header_long": "3 1 1\n0 1\n",
    "bad_dimacs_header": "p col 3 1\ne 1 2\n",
    "bad_vertex_count": "x 1\n0 1\n",
    "bad_edge_count": "3 y\n0 1\n",
    "bad_long_token": "1" * 40 + " 0\n",
    "bad_negative": "-3 0\n",
    "bad_vertex_cap": "1000001 0\n",
    "bad_extra_line": "3 1\n0 1\n1 2\n",
    "bad_too_few": "3 2\n0 1\n",
    "bad_edge_line": "3 1\n0 1 2\n",
    "bad_dimacs_edge_tag": "p edge 3 1\nx 1 2\n",
    "bad_vertex_id": "3 1\n0 a\n",
    "bad_long_id": "3 1\n0 " + "7" * 40 + "\n",
    "bad_out_of_range": "3 1\n0 3\n",
    "bad_dimacs_out_of_range": "p edge 3 1\ne 0 1\n",
    "bad_self_loop": "3 1\n1 1\n",
    "bad_dimacs_self_loop": "p edge 3 1\ne 2 2\n",
    "bad_duplicate": "3 2\n0 1\n1 0\n",
    "bad_first_error_wins": "3 3\n0 1\n1 0\n2 2\n",
    "bad_mismatch_beats_edge_error": "3 3\n0 0\n",
    "bad_extra_beats_edge_error": "3 1\n0 0\n1 2\n",
    "bad_range_beats_self_loop": "3 1\n5 5\n",
    "bad_long_word": "3 1\n0 " + "x" * 40 + "\n",
    "bad_negative_beats_cap": "2000000 -1\n",
    "ok_dimacs": "c cube-like\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n",
    "ok_crlf_comments": "# header next\r\n4 3\r\n\r\n0 1\r\n# mid\r\n1 2   \r\n  2 3\r\n",
    "ok_underscores": "1_0 0_1\n0 9\n",
}


def write_inputs() -> None:
    """Write every input of ``cases`` into the working directory."""
    for name, g in {**SMALL, **LARGE, **LONG, **REFUSED}.items():
        Path(f"{name}.txt").write_text(to_edge_list(g), encoding="utf-8")
    for name, text in TEXTS.items():
        Path(f"{name}.txt").write_bytes(text.encode())
    Path("bad_utf8.txt").write_bytes(b"3 1\n0 \xff\n")


def cases() -> list[list[str]]:
    """The argv of every case, in a fixed order."""
    out = []
    for name in SMALL:
        for engine in ENGINES:
            for fmt in FORMATS:
                out.append(["delta", "--input", f"{name}.txt", "--engine", engine, "--format", fmt])
        for method in METHODS:
            out.append(["count", "--input", f"{name}.txt", "--method", method])
    for name in LARGE:
        for engine in DP_ENGINES:
            for fmt in FORMATS:
                out.append(["delta", "--input", f"{name}.txt", "--engine", engine, "--format", fmt])
        out.append(["count", "--input", f"{name}.txt"])
    for name in LONG:
        out.append(["delta", "--input", f"{name}.txt", "--engine", "components"])
        out.append(["count", "--input", f"{name}.txt"])
    out += [
        ["delta", "--input", "complete12.txt", "--engine", "gray"],
        ["delta", "--input", "complete12.txt", "--engine", "naive"],
        ["delta", "--input", "complete12.txt", "--engine", "frontier"],
        ["count", "--input", "complete12.txt", "--method", "brute"],
        ["delta", "--input", "complete40.txt"],
        ["delta", "--input", "complete40.txt", "--engine", "components"],
        ["count", "--input", "complete40.txt"],
        ["delta", "--input", "matching20000.txt", "--engine", "components"],
        ["delta", "--input", "matching20000.txt", "--engine", "frontier"],
        ["count", "--input", "matching20000.txt"],
        ["count", "--input", "prism2000.txt"],
        ["count", "--input", "path30.txt", "--method", "brute"],
        ["count", "--input", "path300.txt", "--method", "independent"],
    ]
    for name in [*TEXTS, "bad_utf8"]:
        out.append(["delta", "--input", f"{name}.txt"])
    out += [
        ["count", "--input", "ok_dimacs.txt", "--method", "brute"],
        ["delta", "--input", "missing.txt"],
        ["count", "--input", "."],
        ["gen", "cube_q3"],
        ["gen", "path", "5"],
        ["gen", "cycle", "6"],
        ["gen", "complete", "5"],
        ["gen", "complete_bipartite", "3"],
        ["gen", "star", "6"],
        ["gen", "prism", "6"],
        ["gen", "prism", "40"],
        ["gen", "prism", "5"],
        ["gen", "prism", "2"],
        ["gen", "path", "0"],
        ["gen", "path"],
        ["gen", "complete", "2000"],
        ["gen", "path", "1000001"],
        ["gen", "wheel", "5"],
        ["gen", "path", "4", "--output", "gen_path4.txt"],
        ["verify", "--exhaustive-n", "3"],
        ["verify", "--trials", "6", "--n-max", "8", "--m-max", "12", "--seed", "3"],
        ["verify", "--exhaustive-n", "6"],
        ["verify", "--trials", "2", "--n-max", "1"],
        ["verify", "--trials", "1", "--n-max", "29"],
        ["verify", "--trials", "-1"],
        ["verify", "--trials", "1", "--n-max", "4", "--m-max", "-1"],
        ["bench", "--input", "cube.txt", "--engines", "naive,gray,components,frontier"],
        ["bench", "--input", "triangles5.txt", "--engines", "frontier", "--repeats", "3"],
        ["bench", "--input", "cube.txt", "--repeats", "0"],
        ["bench", "--input", "cube.txt", "--engines", " , "],
        ["bench", "--input", "cube.txt", "--engines", "gray,warp"],
        ["bench", "--input", "prism2000.txt", "--engines", "frontier"],
        ["bench", "--input", "triangles5.txt", "--engines", "naive,gray,components,frontier"],
        ["bench", "--input", "complete40.txt", "--engines", "components"],
        [],
        ["-h"],
        ["--help"],
        ["delta", "-h"],
        ["count", "--help"],
        ["verify", "-h"],
        ["gen", "-h"],
        ["bench", "-h"],
        ["frob"],
        ["delta"],
        ["delta", "--input"],
        ["delta", "--input", "cube.txt", "--engine", "warp"],
        ["delta", "--input", "cube.txt", "--format", "xml"],
        ["delta", "--input", "cube.txt", "extra"],
        ["delta", "--input", "cube.txt", "--bogus"],
        ["delta", "-hx"],
        ["delta", "--in=cube.txt", "--eng", "gray", "--form=csv"],
        ["delta", "--input", "cube.txt", "--engine", "gray", "--engine", "naive"],
        ["count", "--", "--input"],
        ["verify", "--trials", "x"],
        ["verify", "--seed", "-5", "--exhaustive-n", "1"],
    ]
    return out


def _without_timing(obj):
    if isinstance(obj, dict):
        return {k: _without_timing(v) for k, v in obj.items() if k not in TIMING}
    if isinstance(obj, list):
        return [_without_timing(v) for v in obj]
    return obj


def outcome(argv: list[str]) -> dict:
    """Exit code, stdout's sha256 and stderr of one in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    if argv[:1] in (["verify"], ["bench"]) and text[:1] in ("{", "["):
        text = json.dumps(_without_timing(json.loads(text)), indent=2)
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def outcomes():
    """(case name, outcome) for each case, run in the working directory."""
    write_inputs()
    for argv in cases():
        yield " ".join(argv), outcome(argv)


def regenerate() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            corpus = dict(outcomes())
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
