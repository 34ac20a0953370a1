"""Command-line behavior: output shapes, determinism, exit codes."""

import hashlib
import importlib.metadata
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import ENGINE_NAMES, FAMILY_NAMES, reference_parser

import oed
from oed import ENGINES, MAX_VERTICES, VERTEX_CAP, DeltaProfile, Graph, gen_family, to_edge_list
from oed.cli import UsageError, _usage, _write_csv_profile, _write_json_profile, main, parse_args
from oed.graph import MAX_GENERATED_EDGES, MAX_TOKEN_CHARS

K3_TEXT = "3 3\n0 1\n0 2\n1 2\n"
VERTEX_TAIL = f"vertices, at most {MAX_VERTICES} are supported\n"
EDGE_TAIL = f"edges, at most {MAX_GENERATED_EDGES} are supported\n"
TOKEN_TAIL = f"characters, at most {MAX_TOKEN_CHARS} are supported\n"
README = Path(__file__).resolve().parents[1] / "README.md"


def str_of(value: int) -> str:
    """str(value) at any length: the int-to-str digit limit, where there is one, is lifted."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is None:
        return str(value)
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    return str(path)


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.txt"
    path.write_text(to_edge_list(gen_family("cube_q3")))
    return str(path)


@pytest.fixture
def graph_builds(monkeypatch):
    """The vertex count of each Graph built, in build order."""
    new = Graph.__new__
    built = []

    def counting(cls, n, edges):
        built.append(n)
        return new(cls, n, edges)

    monkeypatch.setattr(Graph, "__new__", staticmethod(counting))
    return built


def run_capped(args, limit):
    """Run ``main(args)`` in a child whose address space is capped at limit bytes.

    A missing bound then fails with MemoryError instead of exhausting the
    host. The child's last stdout line is main's own run time in seconds.
    The child drops the caller's PYTHON* settings but PYTHONPATH, so that
    the timing does not depend on them: under PYTHONUNBUFFERED, each
    write of main's would be a syscall.
    """
    script = (
        "import resource, sys, time\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from oed.cli import main\n"
        "start = time.perf_counter()\n"
        f"code = main({args!r})\n"
        "print(time.perf_counter() - start)\n"
        "sys.exit(code)\n"
    )
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(oed.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )


# Over the DP's work cap: one component 39 vertices wide, a star whose
# packed ints grow with every leaf, and 20,000 components whose product
# would take minutes to fold.
OVER_WORK_CAP = {
    "complete40": to_edge_list(gen_family("complete", 40)),
    "star10000": to_edge_list(gen_family("star", 10000)),
    "matching20000": "40000 20000\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(20000)),
}


def assert_over_work_cap(tmp_path, capsys, engine):
    """Each OVER_WORK_CAP graph exits 3 with one line, in under a second."""
    for name, text in OVER_WORK_CAP.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        start = time.perf_counter()
        assert main(["delta", "--input", str(path), "--engine", engine]) == 3
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert err.startswith("oed: error: census DP estimated at ")
        assert err.endswith(" at most 60 s and 512 MiB are supported\n")
        assert err.count("\n") == 1
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s to refuse"


class TestDelta:
    def test_json_output(self, k3_file, capsys):
        assert main(["delta", "--input", k3_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "n": 3,
            "O": ["0", "0", "3", "1"],
            "E": ["0", "0", "0", "3"],
            "delta": ["0", "0", "3", "-2"],
        }

    def test_component_engine_leaves_counts_null(self, k3_file, capsys):
        assert main(["delta", "--input", k3_file, "--engine", "components"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["O"] is None
        assert payload["delta"] == ["0", "0", "3", "-2"]

    def test_csv_output(self, k3_file, capsys):
        assert main(["delta", "--input", k3_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "k,odd,even,delta",
            "0,0,0,0",
            "1,0,0,0",
            "2,3,0,3",
            "3,1,3,-2",
        ]

    def test_component_engine_builds_only_the_loaded_graph(
        self, tmp_path, capsys, graph_builds
    ):
        path = tmp_path / "g.txt"
        path.write_text("7 2\n0 1\n2 3\n")
        assert main(["delta", "--input", str(path), "--engine", "components"]) == 0
        # The DP runs on each component's vertex set of the loaded graph.
        assert graph_builds == [7]
        delta = json.loads(capsys.readouterr().out)["delta"]
        assert delta == ["0", "0", "2", "0", "-1", "0", "0", "0"]

    def test_output_is_byte_identical_across_runs(self, cube_file, capsys):
        main(["delta", "--input", cube_file])
        first = capsys.readouterr().out
        main(["delta", "--input", cube_file])
        assert capsys.readouterr().out == first

    def test_engines_give_identical_json(self, cube_file, capsys):
        main(["delta", "--input", cube_file, "--engine", "naive"])
        naive_out = capsys.readouterr().out
        main(["delta", "--input", cube_file, "--engine", "gray"])
        assert capsys.readouterr().out == naive_out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("text", [to_edge_list(gen_family("cube_q3")), "7 3\n0 1\n1 2\n4 5\n"])
    def test_default_engine_matches_gray(self, tmp_path, capsys, text, fmt):
        path = tmp_path / "g.txt"
        path.write_text(text)
        assert main(["delta", "--input", str(path), "--format", fmt]) == 0
        default_out = capsys.readouterr().out
        assert main(["delta", "--input", str(path), "--format", fmt, "--engine", "gray"]) == 0
        assert capsys.readouterr().out == default_out


def matching_profile(edges: int, split: bool) -> DeltaProfile:
    """The census of a perfect matching, from P = (1 + x^2)^m and W = (1 - x^2)^m.

    O_2j and E_2j are C(m, j) for odd and even j >= 1, so delta_2j = (-1)^(j+1) C(m, j).
    """
    odd, even, delta = ([0] * (2 * edges + 1) for _ in range(3))
    c = 1  # C(m, j), by C(m, j) = C(m, j - 1) (m - j + 1) / j
    for j in range(1, edges + 1):
        c = c * (edges - j + 1) // j
        (odd if j & 1 else even)[2 * j] = c
        delta[2 * j] = c if j & 1 else -c
    if not split:
        return DeltaProfile(2 * edges, None, None, tuple(delta))
    return DeltaProfile(2 * edges, tuple(odd), tuple(even), tuple(delta))


def profile_text(profile: DeltaProfile, fmt: str) -> str:
    """The profile as ``oed delta`` lays it out, built by ``json.dumps`` or row by row."""
    if fmt == "json":
        arrays = [None if a is None else list(map(str, a)) for a in profile[1:]]
        return json.dumps(dict(zip(("n", "O", "E", "delta"), [profile.n, *arrays])), indent=2) + "\n"
    split = profile.odd_counts is not None
    odd, even = (profile.odd_counts, profile.even_counts) if split else ([""] * (profile.n + 1),) * 2
    rows = (f"{k},{o},{e},{d}\n" for k, (o, e, d) in enumerate(zip(odd, even, profile.delta)))
    return "k,odd,even,delta\n" + "".join(rows)


def collect_writes(monkeypatch) -> list[str]:
    """Replace stdout by one that keeps each write's text as a piece; the list of pieces."""
    pieces: list[str] = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=pieces.append, flush=lambda: None))
    return pieces


class HashSink:
    """A stdout that keeps only a running hash of the UTF-8 bytes written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text: str) -> int:
        self.hash.update(text.encode())
        return len(text)


class TestProfileWriters:
    """The writers hold one write's text at a time, however wide the counts."""

    @pytest.mark.parametrize("split", [False, True], ids=["components", "frontier"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_peak_is_bounded_by_bytes(self, monkeypatch, fmt, split):
        # Counts up to C(3000, 1500), 902 digits: one write of all 6,001
        # entries, or of 4,096, holds over 3 MB of strings, join and bytes.
        profile = matching_profile(3000, split)
        expected = profile_text(profile, fmt)
        writer = _write_json_profile if fmt == "json" else _write_csv_profile
        sink = HashSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            writer(profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.hash.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()
        assert peak < 512 << 10

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_pieces_are_bounded_by_bytes(self, tmp_path, monkeypatch, fmt):
        # A 3,000-edge matching's counts run to 902 digits. The writers hand
        # stdout one count or row at a time, so no piece is wider than the
        # widest line; stdout's own buffer gathers them.
        path = tmp_path / "matching3000.txt"
        path.write_text(to_edge_list(Graph(6000, tuple((2 * i, 2 * i + 1) for i in range(3000)))))
        expected = profile_text(matching_profile(3000, False), fmt)
        pieces = collect_writes(monkeypatch)
        assert main(["delta", "--input", str(path), "--engine", "components", "--format", fmt]) == 0
        widest = max(map(len, expected.splitlines(keepends=True)))
        assert max(len(piece.encode()) for piece in pieces) <= widest
        assert "".join(pieces) == expected


class TestCount:
    @pytest.mark.parametrize("method,expected", [("reduction", "4"), ("brute", "4"), ("independent", "4")])
    def test_triangle(self, k3_file, capsys, method, expected):
        assert main(["count", "--input", k3_file, "--method", method]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == expected
        assert payload["method"] == method
        assert payload["n"] == 3
        assert payload["m"] == 3

    def test_default_method_is_reduction(self, cube_file, capsys):
        assert main(["count", "--input", cube_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"count": "35", "method": "reduction", "n": 8, "m": 12, "isolated": 0}

    def test_isolated_vertices_reported(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("5 1\n0 1\n")
        assert main(["count", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["isolated"] == 3
        assert payload["count"] == str(3 * 2**3)

    def test_reduction_builds_only_the_loaded_graph(self, tmp_path, capsys, graph_builds):
        path = tmp_path / "g.txt"
        path.write_text("7 2\n0 1\n2 3\n")
        assert main(["count", "--input", str(path), "--method", "reduction"]) == 0
        # 2^n W(1/2) counts the isolated vertices through n: nothing is stripped.
        assert graph_builds == [7]
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"count": "72", "method": "reduction", "n": 7, "m": 2, "isolated": 3}

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_long_count_prints_in_full(self, tmp_path, capsys):
        # 3 * 2^14998 has 4,516 digits, past the default int-to-str limit.
        path = tmp_path / "wide.txt"
        path.write_text("15000 1\n0 1\n")
        limit = sys.get_int_max_str_digits()
        assert main(["count", "--input", str(path)]) == 0
        assert sys.get_int_max_str_digits() == limit
        payload = json.loads(capsys.readouterr().out)
        sys.set_int_max_str_digits(0)
        try:
            assert int(payload["count"]) == 3 << 14998
        finally:
            sys.set_int_max_str_digits(limit)
        assert payload["isolated"] == 14998


class TestVerify:
    def test_exhaustive_passes(self, capsys):
        assert main(["verify", "--exhaustive-n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passing"] is True
        assert payload["trials"] == 12

    def test_random_trials_reported(self, capsys):
        code = main(
            ["verify", "--trials", "4", "--n-max", "7", "--m-max", "10", "--seed", "123"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 4
        assert payload["seed"] == 123

    def test_bad_parameters_exit_2(self, capsys):
        assert main(["verify", "--exhaustive-n", "9"]) == 2
        assert "exhaustive_n" in capsys.readouterr().err

    def test_negative_m_max_exit_2(self, capsys):
        assert main(["verify", "--trials", "1", "--n-max", "2", "--m-max", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "oed: error: random trials need m_max >= 0, got -1\n"

    def test_n_max_bound_exit_2(self):
        # random_graph draws n_max^2 / 2 pairs, so n_max is refused before any draw.
        args = ["verify", "--trials", "1", "--n-max", "100000", "--m-max", "0"]
        proc = run_capped(args, 1 << 30)
        assert proc.returncode == 2, proc.stderr[-300:]
        assert float(proc.stdout.splitlines()[-1]) < 1.0
        assert proc.stderr == f"oed: error: random trials need n_max <= {VERTEX_CAP}, got 100000\n"

    def test_trials_over_the_price_exit_3_at_once(self):
        # Such a trial may scan 2^28 vertex subsets twice and sweep 2^60
        # edge subsets: refused before any graph is drawn, whatever the seed.
        env = {**os.environ, "PYTHONPATH": str(Path(oed.__file__).resolve().parents[1])}
        for seed in range(1, 11):
            args = ["verify", "--trials", "1", "--n-max", "28", "--m-max", "60", "--seed", str(seed)]
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "oed", *args], capture_output=True, text=True, env=env, timeout=30
            )
            elapsed = time.perf_counter() - start
            assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
            assert proc.stderr == (
                "oed: error: a trial graph of 28 vertices and 60 edges is estimated at 2.54e+11 s,"
                " at most 60 s is supported\n"
            )
            assert elapsed < 1.0


class TestGen:
    def test_stdout(self, capsys):
        assert main(["gen", "path", "4"]) == 0
        assert capsys.readouterr().out == "4 3\n0 1\n1 2\n2 3\n"

    def test_output_file_round_trips(self, tmp_path, capsys):
        out = tmp_path / "prism.txt"
        assert main(["gen", "prism", "6", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["count", "--input", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == "199"

    def test_cube_needs_no_size(self, capsys):
        assert main(["gen", "cube_q3"]) == 0
        assert capsys.readouterr().out.startswith("8 12\n")

    def test_odd_prism_rejected(self, capsys):
        assert main(["gen", "prism", "5"]) == 2
        assert "even" in capsys.readouterr().err

    def test_missing_size_rejected(self, capsys):
        assert main(["gen", "cycle"]) == 2
        assert "size" in capsys.readouterr().err

    def test_writes_are_bounded(self, monkeypatch):
        # 9,000 edges, 85 KiB of text: written whole, one piece would exceed
        # the bound.
        pieces = collect_writes(monkeypatch)
        assert main(["gen", "prism", "3000"]) == 0
        assert max(len(piece.encode()) for piece in pieces) <= 32 << 10
        assert "".join(pieces) == to_edge_list(gen_family("prism", 3000))


class TestBench:
    def test_records_and_agreement(self, k3_file, capsys):
        assert main(["bench", "--input", k3_file, "--engines", "naive,gray,components"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["engine"] for r in records] == ["naive", "gray", "components"]
        assert all(r["edges"] == 3 for r in records)

    def test_repeats(self, k3_file, capsys):
        assert main(["bench", "--input", k3_file, "--repeats", "3"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 6

    def test_repeats_bounded(self, k3_file, capsys, monkeypatch):
        # Refused before any engine runs, so no record is kept.
        monkeypatch.setattr("oed.verify.ENGINES", {})
        assert main(["bench", "--input", k3_file, "--repeats", "1001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "oed: error: repeats must be in [1, 1000], got 1001\n"

    def test_unknown_engine_exits_2(self, k3_file, capsys):
        assert main(["bench", "--input", k3_file, "--engines", "gray,warp"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_census_past_float_range_exits_3(self, tmp_path, capsys):
        # 2^1200 - 1 subsets overflow a float rate; refused before any run.
        path = tmp_path / "prism400.txt"
        path.write_text(to_edge_list(gen_family("prism", 400)))
        start = time.perf_counter()
        assert main(["bench", "--input", str(path), "--engines", "frontier"]) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "oed: error: graph has 1200 edges, too many to rate engine 'frontier' in subsets/s\n"
        )


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["delta", "--input", "/nonexistent/graph.txt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 0\n")
        assert main(["delta", "--input", str(path)]) == 2
        assert "self-loop" in capsys.readouterr().err

    def test_edge_cap_exit_3(self, tmp_path, capsys):
        g = gen_family("complete", 12)  # 66 edges, over the enumeration cap
        path = tmp_path / "dense.txt"
        path.write_text(to_edge_list(g))
        assert main(["delta", "--input", str(path), "--engine", "gray"]) == 3
        assert "62" in capsys.readouterr().err
        # The default DP engine is capped by its estimated work instead.
        assert main(["delta", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 12
        assert_over_work_cap(tmp_path, capsys, "frontier")

    @pytest.mark.parametrize("engine,seconds", [("naive", "89335.3"), ("gray", "15118.3")])
    def test_sweep_price_exit_3(self, tmp_path, engine, seconds):
        # prism 12 has 36 edges, under the edge cap: the enumeration engine
        # prices its 2^36 - 1 subsets and refuses them before it sweeps.
        path = tmp_path / "prism12.txt"
        assert main(["gen", "prism", "12", "--output", str(path)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(oed.__file__).resolve().parents[1])}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "oed", "delta", "--engine", engine, "--input", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3,
            "",
            f"oed: error: sweep of 2^36 - 1 edge subsets estimated at {seconds} s, at most 60 s is supported\n",
        )

    @pytest.mark.parametrize(
        "method,scan", [("brute", "the brute-force cover scan"), ("independent", "the independent-set scan")]
    )
    def test_scan_price_exit_3(self, tmp_path, method, scan):
        # K26 is inside VERTEX_CAP, but either cover scan prices its 2^26
        # vertex subsets and refuses them before it starts.
        path = tmp_path / "k26.txt"
        assert main(["gen", "complete", "26", "--output", str(path)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(oed.__file__).resolve().parents[1])}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "oed", "count", "--method", method, "--input", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert time.perf_counter() - start < 1.0
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3,
            "",
            f"oed: error: {scan} of 2^26 vertex subsets estimated at 67.1 s, at most 60 s is supported\n",
        )

    def test_count_prices_no_product(self, tmp_path, capsys):
        # count multiplies one int per component and forms no W product, so
        # the matching that the engines refuse for their folds is counted.
        path = tmp_path / "matching20000.txt"
        path.write_text(OVER_WORK_CAP["matching20000"])
        assert main(["count", "--input", str(path)]) == 0
        count = json.loads(capsys.readouterr().out)["count"]
        assert len(count) == 9543 and count == str_of(3**20000)
        assert main(["delta", "--input", str(path), "--engine", "components"]) == 3
        assert capsys.readouterr().err == (
            "oed: error: census DP estimated at 60.0 s and 0 MiB or more,"
            " at most 60 s and 512 MiB are supported\n"
        )

    def test_vertex_cap_exit_3(self, tmp_path, capsys):
        g = gen_family("path", 30)
        path = tmp_path / "long.txt"
        path.write_text(to_edge_list(g))
        assert main(["count", "--input", str(path), "--method", "brute"]) == 3
        assert "28" in capsys.readouterr().err

    @pytest.mark.parametrize("env", [None, "many"])
    def test_component_cap_exit_3(self, tmp_path, capsys, monkeypatch, env):
        # K12 is one component of 66 edges; OED_THREADS, if set, is ignored.
        if env is not None:
            monkeypatch.setenv("OED_THREADS", env)
        path = tmp_path / "dense.txt"
        path.write_text(to_edge_list(gen_family("complete", 12)))
        assert main(["delta", "--input", str(path), "--engine", "components"]) == 0
        assert json.loads(capsys.readouterr().out)["O"] is None
        assert_over_work_cap(tmp_path, capsys, "components")

    def test_thread_env_ignored(self, k3_file, capsys, monkeypatch):
        monkeypatch.delenv("OED_THREADS", raising=False)
        assert main(["delta", "--input", k3_file]) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("OED_THREADS", "many")
        assert main(["delta", "--input", k3_file]) == 0
        assert capsys.readouterr() == unset

    def test_memory_error_exit_3(self, k3_file, capsys, monkeypatch):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr("oed.cli.load_graph", exhausted)
        assert main(["count", "--input", k3_file]) == 3
        assert capsys.readouterr().err == "oed: error: out of memory\n"

    def test_component_edgeless_ignores_thread_env(self, tmp_path, capsys, monkeypatch):
        # Nothing reads OED_THREADS, so any value is ignored.
        monkeypatch.setenv("OED_THREADS", "many")
        path = tmp_path / "edgeless.txt"
        path.write_text("4 0\n")
        assert main(["delta", "--input", str(path), "--engine", "components"]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] == ["0"] * 5

    @pytest.mark.parametrize(
        "args,text,code,tail",
        [
            (["count", "--input"], "99999999999999999999 0\n", 3, VERTEX_TAIL),
            (["delta", "--input"], f"p edge {MAX_VERTICES + 1} 0\n", 3, VERTEX_TAIL),
            (["gen", "path", "99999999999999999999"], None, 3, VERTEX_TAIL),
            # 2 * size vertices: just over the bound.
            (["gen", "prism", str(MAX_VERTICES // 2 + 2)], None, 3, VERTEX_TAIL),
            # sparse_wide's probe: 15,000 vertices stay well inside the bound.
            (["count", "--input"], "15000 1\n0 1\n", 0, None),
            # Inside the vertex bound, with about 2 * 10^8 and 10^8 edges.
            (["gen", "complete", "20000"], None, 3, EDGE_TAIL),
            (["gen", "complete_bipartite", "10000"], None, 3, EDGE_TAIL),
            # int() is quadratic in the digits: a million-digit count must
            # be refused before it is converted.
            (["count", "--input"], "9" * 10**6 + " 0\n", 3, TOKEN_TAIL),
        ],
        ids=[
            "native-header",
            "dimacs-header",
            "gen-path",
            "gen-prism",
            "n15000",
            "gen-complete",
            "gen-complete-bipartite",
            "long-token",
        ],
    )
    def test_vertex_count_bound(self, tmp_path, args, text, code, tail):
        if text is not None:
            path = tmp_path / "g.txt"
            path.write_text(text)
            args = [*args, str(path)]
        proc = run_capped(args, 1 << 30)
        assert proc.returncode == code, proc.stderr[-300:]
        assert float(proc.stdout.splitlines()[-1]) < 1.0
        if code == 3:
            assert proc.stderr.endswith(tail)
            assert proc.stderr.count("\n") == 1
            assert len(proc.stderr.encode()) < 200

    def test_largest_admitted_complete_graph_fits(self, tmp_path, capsys):
        # complete 19 is the largest complete graph under the DP's work cap.
        path = tmp_path / "k20.txt"
        path.write_text(to_edge_list(gen_family("complete", 20)))
        assert main(["delta", "--input", str(path)]) == 3
        assert "MiB or more" in capsys.readouterr().err
        path = tmp_path / "k19.txt"
        path.write_text(to_edge_list(gen_family("complete", 19)))
        proc = run_capped(["delta", "--input", str(path)], 1 << 30)
        assert proc.returncode == 0, proc.stderr[-300:]
        assert json.loads(proc.stdout.rsplit("\n", 2)[0])["n"] == 19

    def test_isolated_vertices_take_no_memory_each(self, tmp_path):
        # A million isolated vertices fit in 128 MiB: nothing is stored per vertex.
        path = tmp_path / "g.txt"
        path.write_text("1000000 0\n")
        proc = run_capped(["count", "--input", str(path)], 128 << 20)
        assert proc.returncode == 0, proc.stderr[-300:]
        payload = json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[0])
        assert payload["isolated"] == 10**6
        # 2^(10^6) has 301,030 digits; int() on them would be quadratic.
        count = payload["count"]
        assert len(count) == 301_030
        assert count[-9:] == f"{pow(2, 10**6, 10**9):09d}"

    def test_isolated_profile_is_written_in_pieces(self, tmp_path):
        # Three arrays of 10^6 + 1 counts, 25 MB of JSON, under the same cap.
        path = tmp_path / "g.txt"
        path.write_text("1000000 0\n")
        proc = run_capped(["delta", "--input", str(path)], 128 << 20)
        assert proc.returncode == 0, proc.stderr[-300:]
        zeros = '    "0",\n' * 10**6 + '    "0"\n'
        ends = (("O", ","), ("E", ","), ("delta", ""))
        arrays = "".join(f'  "{key}": [\n{zeros}  ]{end}\n' for key, end in ends)
        assert proc.stdout.rsplit("\n", 2)[0] + "\n" == '{\n  "n": 1000000,\n' + arrays + "}\n"


ORACLE = reference_parser()
NUMBERS = ["0", "7", "-1", "-12", "+3", "007"]
# Each command's options, and values each option accepts.
OPTIONS = {
    "delta": ["input", "engine", "format"],
    "count": ["input", "method"],
    "verify": ["exhaustive-n", "n-max", "m-max", "trials", "seed"],
    "gen": ["output"],
    "bench": ["input", "engines", "repeats"],
}
VALUES = {
    "input": ["g.txt", "-1.5", "-"],
    "output": ["f", "-7"],
    "engine": ENGINE_NAMES,
    "format": ["json", "csv"],
    "method": ["reduction", "brute", "independent"],
    "engines": ["naive,gray", "gray"],
    **dict.fromkeys(["exhaustive-n", "n-max", "m-max", "trials", "seed", "repeats"], NUMBERS),
}
# gen's positionals, then tokens that no argument accepts or that look like options.
POSITIONALS = ["path", "prism", "cube_q3", "4", "-3"]
JUNK = ["1.5", "-.5", "-1.", "x", "", "-x", "--bogus"]


@st.composite
def option(draw, names):
    """One of names, full or abbreviated, with its value, an ``=`` value or none."""
    name = draw(st.sampled_from(names))
    flag = "--" + name[: draw(st.integers(1, len(name)))]
    value = draw(st.sampled_from(VALUES[name] if draw(st.integers(0, 9)) else NUMBERS + JUNK))
    return draw(st.sampled_from([[flag, value]] * 6 + [[f"{flag}={value}"]] * 3 + [[flag]]))


@st.composite
def command_lines(draw):
    """argv for ``oed``: a command, its options in any order and some stray tokens.

    Most draws give a command line argparse accepts; the stray tokens,
    missing values and other commands' options give the rest.
    """
    command = draw(st.sampled_from([*OPTIONS] * 4 + ["del", None]))
    pieces = draw(st.lists(option(OPTIONS.get(command, ["input"])), max_size=4))
    if command in ("delta", "count", "bench") and draw(st.integers(0, 4)):
        pieces.append(["--input", "g.txt"])
    stray = st.sampled_from(POSITIONALS + JUNK).map(lambda token: [token])
    if not draw(st.integers(0, 3)):
        pieces += draw(st.lists(st.one_of(option(list(VALUES)), stray), max_size=2))
    pieces = draw(st.permutations(pieces))
    if command == "gen":
        # family, then perhaps a size, each at any place among the options
        size = draw(st.lists(st.sampled_from(NUMBERS), max_size=1))
        for token in [draw(st.sampled_from(FAMILY_NAMES)), *size]:
            place = draw(st.integers(0, len(pieces)))
            pieces = [*pieces[:place], [token], *pieces[place:]]
    argv = [] if command is None else [command]
    for piece in pieces:
        argv += piece
    return argv


def oracle_parse(argv):
    """argparse's namespace for argv as a dict, or None where it exits 2."""
    try:
        with redirect_stderr(io.StringIO()):
            return vars(ORACLE.parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 2
        return None


def parsed(argv):
    """parse_args's attributes for argv as a dict, or None where it refuses."""
    try:
        args = vars(parse_args(argv))
    except UsageError:
        return None
    del args["func"]
    return args


class TestCommandLine:
    def test_oracle_names_match_the_package(self):
        assert ENGINE_NAMES == sorted(ENGINES)
        assert FAMILY_NAMES == list(oed.FAMILY_NAMES)

    @settings(max_examples=600, deadline=None)
    @given(command_lines())
    def test_agrees_with_argparse(self, argv):
        expected = oracle_parse(argv)
        got = parsed(argv)
        if expected is not None:
            assert got == expected
        elif got is not None:
            # argparse takes gen's positionals in one run, so it refuses a size
            # after an option; the same arguments in argparse's order agree.
            assert got["command"] == "gen"
            canonical = ["gen", got["family"]] + [str(got["size"])] * (got["size"] is not None)
            canonical += [f"--output={got['output']}"] * (got["output"] is not None)
            assert oracle_parse(canonical) == got
        else:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                assert main(argv) == 2
            assert out.getvalue() == ""
            assert err.getvalue().startswith("oed: error: ")
            assert err.getvalue().count("\n") == 1

    @pytest.mark.parametrize(
        "argv,values",
        [
            (["delta", "--inp=g.txt", "--e", "gray"], {"input": "g.txt", "engine": "gray"}),
            (["verify", "--m-max", "-1", "--m-max=-3"], {"m_max": -3}),
            (["gen", "prism", "--output", "f", "6"], {"family": "prism", "size": 6, "output": "f"}),
            (["gen", "--", "path", "4"], {"family": "path", "size": 4}),
        ],
    )
    def test_values(self, argv, values):
        args = parsed(argv)
        assert {key: args[key] for key in values} == values

    @pytest.mark.parametrize(
        "argv,usage",
        [
            (["--help"], "usage: oed [-h] {delta,count,verify,gen,bench} ...\n"),
            (["delta", "-h"], "usage: oed delta [-h] --input INPUT [--engine {components,"),
            (["count", "--h"], "usage: oed count [-h] --input INPUT [--method {reduction,"),
            (["verify", "--help"], "usage: oed verify [-h] [--exhaustive-n EXHAUSTIVE_N] [--n-max"),
            (["gen", "-h"], f"usage: oed gen [-h] {{{','.join(FAMILY_NAMES)}}} [SIZE] [--output"),
            (["bench", "-h"], "usage: oed bench [-h] --input INPUT [--engines ENGINES] [--repeats"),
        ],
    )
    def test_help_prints_usage(self, argv, usage, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(usage)

    def test_help_and_a_bad_value_count_in_order(self, capsys):
        assert main(["delta", "--he", "--engine", "warp"]) == 0
        assert capsys.readouterr().out.startswith("usage: oed delta ")
        assert main(["delta", "--engine", "warp", "--he"]) == 2
        assert capsys.readouterr().err == (
            "oed: error: argument --engine: invalid choice: 'warp'"
            " (choose from components, frontier, gray, naive)\n"
        )


def readme_examples():
    """(argv, stdout) of each README command shown with its output."""
    examples = []
    for block in README.read_text().split("```")[1::2]:
        argv, out = None, []
        for line in block.strip("\n").splitlines() + ["$"]:
            if line.startswith("$"):
                if argv and out:
                    examples.append((argv, "\n".join(out) + "\n"))
                argv, out = line.split()[2:], []
            else:
                out.append(line)
    return examples


class TestReadme:
    def test_examples_print_what_they_show(self, cube_file, capsys):
        examples = readme_examples()
        assert [argv[:3] for argv, _ in examples] == [
            ["delta", "--input", "cube.txt"],
            ["count", "--input", "cube.txt"],
        ]
        for argv, text in examples:
            assert main([cube_file if a == "cube.txt" else a for a in argv]) == 0
            assert capsys.readouterr().out == text


def modules_after_default_commands(k3_file) -> list[str]:
    """Names in sys.modules after a fresh interpreter runs ``delta`` and ``count``."""
    script = (
        "import sys\n"
        "from oed.cli import main\n"
        f"assert main(['delta', '--input', {k3_file!r}]) == 0\n"
        f"assert main(['count', '--input', {k3_file!r}]) == 0\n"
        "print('LOADED', ' '.join(sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(oed.__file__).resolve().parents[1])}
    # -S: no site-packages .pth file may import modules before oed runs.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "LOADED"
    return last[1:]


class TestStartup:
    def test_default_commands_leave_process_pool_and_dataclasses_unloaded(self, k3_file):
        roots = ("concurrent", "multiprocessing", "dataclasses", "inspect")
        loaded = modules_after_default_commands(k3_file)
        assert [m for m in loaded if m.split(".")[0] in roots] == []

    def test_default_commands_leave_verify_unloaded(self, k3_file):
        assert "oed.verify" not in modules_after_default_commands(k3_file)
        from oed import run_verification  # still served from the package

        assert run_verification.__module__ == "oed.verify"

    def test_default_commands_load_no_parser_json_csv_or_random(self, k3_file):
        unused = {"argparse", "json", "csv", "gettext", "locale", "random"}
        assert unused.isdisjoint(modules_after_default_commands(k3_file))

    def test_default_commands_load_no_typing_re_or_enum(self, k3_file):
        # The records are collections.namedtuple subclasses; typing would
        # pull in re and enum on every cold call.
        assert {"typing", "re", "enum"}.isdisjoint(modules_after_default_commands(k3_file))


def console_script_wrapper():
    """The wrapper an installer writes for the `oed` script in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["oed"]
    script = importlib.metadata.EntryPoint("oed", value, "console_scripts")
    return (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"script = EntryPoint({script.name!r}, {script.value!r}, {script.group!r})\n"
        "sys.argv[0] = 'oed'\n"
        "sys.exit(script.load()())\n"
    )


def assert_exit_cases(command, k3_file, tmp_path):
    """Exit codes and stderr of a cold `oed` started as ``command`` (an argv prefix).

    stderr is empty or exactly one ``oed: error:`` line: the process ends
    right after its last flush, with no traceback and nothing ignored.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(oed.__file__).resolve().parents[1])}
    complete40 = tmp_path / "complete40.txt"
    complete40.write_text(to_edge_list(gen_family("complete", 40)))

    def run(*args, **kwargs):
        proc = subprocess.run(
            [*command, *args], stderr=subprocess.PIPE, text=True, env=env, **kwargs
        )
        assert proc.stderr == "" or (
            proc.stderr.startswith("oed: error:") and proc.stderr.count("\n") == 1
        ), proc.stderr
        return proc

    proc = run("delta", "--input", k3_file, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["delta"] == ["0", "0", "3", "-2"]
    # The exit status is main's return code, not just "no exception".
    missing = run("delta", "--input", str(tmp_path / "missing.txt"), stdout=subprocess.PIPE)
    assert missing.returncode == 2 and missing.stderr
    closed = run("count", "--input", k3_file, preexec_fn=lambda: os.close(1))
    assert (closed.returncode, closed.stderr) == (2, "oed: error: stdout is closed\n")
    refused = run("delta", "--input", str(complete40), stdout=subprocess.PIPE)
    assert (refused.returncode, refused.stdout) == (3, "")
    assert refused.stderr.startswith("oed: error: census DP estimated at ")
    if os.path.exists("/dev/full"):
        for name in ("count", "delta"):
            with open("/dev/full", "w") as full:
                proc = run(name, "--input", k3_file, stdout=full)
            assert (proc.returncode, proc.stderr) == (2, "oed: error: [Errno 28] No space left on device\n"), name


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "k3.txt"
        path.write_text(K3_TEXT)
        proc = subprocess.run(
            [sys.executable, "-m", "oed", "count", "--input", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == "4"

    def test_console_script(self, k3_file, tmp_path):
        """The `oed` script declared in pyproject.toml, run as installers run it."""
        assert_exit_cases([sys.executable, "-c", console_script_wrapper()], k3_file, tmp_path)

    def test_module_exit_codes(self, k3_file, tmp_path):
        assert_exit_cases([sys.executable, "-m", "oed"], k3_file, tmp_path)

    def test_entry_keeps_stdout_batching_under_unbuffered_mode(self):
        """Under -u, main() still sees a stdout that gathers writes, so a count is not a syscall."""
        env = {**os.environ, "PYTHONPATH": str(Path(oed.__file__).resolve().parents[1])}
        script = "import sys, oed.cli as cli; cli.main = lambda: print(sys.stdout.write_through) or 0; cli.entry()"
        for flags in ([], ["-u"]):
            proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", ""), flags

    def test_closed_stdout_at_start_spares_gen_output(self, tmp_path):
        """With fd 1 closed, a command that writes stdout exits 2; gen --output writes it all."""
        env = {**os.environ, "PYTHONPATH": str(Path(oed.__file__).resolve().parents[1])}
        path = tmp_path / "prism200.txt"
        for args in (["-h"], ["gen", "prism", "4"], ["gen", "prism", "200", "--output", str(path)]):
            proc = subprocess.run(
                [sys.executable, "-m", "oed", *args],
                stderr=subprocess.PIPE,
                env=env,
                preexec_fn=lambda: os.close(1),
            )
            writes_stdout = "--output" not in args
            assert proc.returncode == (2 if writes_stdout else 0)
            assert proc.stderr == (b"oed: error: stdout is closed\n" if writes_stdout else b"")
        assert path.read_text() == to_edge_list(gen_family("prism", 200))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fast_exit_loses_no_output(self, tmp_path, capsys, fmt):
        """A cold call's stdout, to a pipe read to the end or to a file, is main()'s."""
        path = tmp_path / "prism200.txt"
        path.write_text(to_edge_list(gen_family("prism", 200)))
        args = ["delta", "--input", str(path), "--format", fmt]
        assert main(args) == 0
        expected = capsys.readouterr().out.encode()
        env = {**os.environ, "PYTHONPATH": str(Path(oed.__file__).resolve().parents[1])}
        command = [sys.executable, "-m", "oed", *args]
        piped = subprocess.run(command, capture_output=True, env=env)
        assert (piped.returncode, piped.stderr) == (0, b"")
        out = tmp_path / f"out.{fmt}"
        with open(out, "wb") as fh:
            filed = subprocess.run(command, stdout=fh, stderr=subprocess.PIPE, env=env)
        assert (filed.returncode, filed.stderr) == (0, b"")
        assert len(expected) > 100_000  # many buffer flushes, more than a pipe holds
        assert piped.stdout == expected
        assert out.read_bytes() == expected

    @pytest.mark.parametrize(
        "error", [None, OSError(28, "No space left on device"), ValueError], ids=["ok", "full", "closed"]
    )
    def test_entry_flushes_then_exits_with_mains_code(self, monkeypatch, error):
        """entry() flushes each open stream once, keeps main's code through a failed flush."""

        class Stream:
            flushes = 0

            def flush(self):
                self.flushes += 1
                if error is not None:
                    raise error

        class Exited(Exception):
            pass

        def exit_(code):
            raise Exited(code)

        stdout, stderr = Stream(), Stream()
        for name, stream in (("stdout", stdout), ("stderr", stderr)):
            monkeypatch.setattr(sys, name, stream)
        monkeypatch.setattr(oed.cli, "main", lambda: 3)
        monkeypatch.setattr(os, "_exit", exit_)
        with pytest.raises(Exited) as exited:
            oed.cli.entry()
        assert exited.value.args == (3,)
        assert (stdout.flushes, stderr.flushes) == (1, 1)
        monkeypatch.setattr(sys, "stdout", None)  # fd 1 closed at start-up
        with pytest.raises(Exited):
            oed.cli.entry()
        assert stderr.flushes == 2

    def test_closed_stdout_exits_0(self, tmp_path):
        """A reader that stops reading is not an input error, in either format."""
        path = tmp_path / "prism200.txt"
        path.write_text(to_edge_list(gen_family("prism", 200)))
        env = {**os.environ, "PYTHONPATH": str(Path(oed.__file__).resolve().parents[1])}
        heads = {"csv": [b"k,odd,even,delta\n", b"0,0,0,0\n"], "json": [b"{\n", b'  "n": 400,\n']}
        for fmt, head in heads.items():
            proc = subprocess.Popen(
                [sys.executable, "-m", "oed", "delta", "--input", str(path), "--format", fmt],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            lines = [proc.stdout.readline(), proc.stdout.readline()]
            proc.stdout.close()
            _, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert lines == head
            assert stderr == b""

    def test_closed_reader_leaves_stdout_in_process(self):
        """main() in a caller's process exits 0 on a closed reader and leaves fd 1 as it was."""
        script = (
            "import os, stat, sys\n"
            "from oed.cli import main\n"
            "code = main(['gen', 'prism', '200'])\n"
            "sys.stderr.write(f'{code} {stat.S_ISFIFO(os.fstat(1).st_mode)}')\n"
            "sys.stderr.flush()\n"
            "os._exit(0)  # the caller's own final flush would meet the closed pipe\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(oed.__file__).resolve().parents[1])}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", script], stdout=write, stderr=subprocess.PIPE, env=env, timeout=60
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, b"0 True")

    def test_interrupt_exits_130(self, tmp_path):
        """Ctrl-C during a long sweep ends in one stderr line, not a traceback."""
        path = tmp_path / "prism8.txt"
        path.write_text(to_edge_list(gen_family("prism", 8)))  # 24 edges: a 2^24 sweep
        env = {**os.environ, "PYTHONPATH": str(Path(oed.__file__).resolve().parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "oed", "delta", "--engine", "naive", "--input", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            # A shell that ignores SIGINT would pass SIG_IGN on to the child.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        time.sleep(1.0)  # past start-up, into the sweep
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert stdout == b""
        assert stderr == b"oed: error: interrupted\n"

    @pytest.mark.skipif(shutil.which("oed") is None, reason="oed is not installed on PATH")
    def test_installed_console_script(self, k3_file):
        proc = subprocess.run(
            ["oed", "delta", "--input", k3_file], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["delta"] == ["0", "0", "3", "-2"]
        helps = [(["--help"], None), (["-h"], None), (["delta", "--help"], "delta"), (["delta", "-h"], "delta")]
        for argv, command in helps:
            proc = subprocess.run(["oed", *argv], capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, _usage(command), "")
