"""The cross-check harness itself: it must pass honest runs and catch lies."""

from itertools import count

import pytest

from oed import (
    ENGINES,
    VERTEX_CAP,
    BenchRecord,
    CapError,
    DeltaPolynomial,
    DeltaProfile,
    EngineDisagreement,
    Failure,
    IsolatedSplit,
    VerificationReport,
    all_labeled_graphs,
    check_graph,
    delta_by_components,
    gen_family,
    run_bench,
    run_verification,
)
from oed import verify
from oed.covers import IE_SECONDS, _check_scan
from oed.delta import NAIVE_SECONDS
from oed.graph import Graph, disjoint_union

# Each record type with a field of it, built twice from equal fields.
RECORDS = [
    pytest.param(lambda: Graph.from_edges(3, [(0, 1)]), "n", id="Graph"),
    pytest.param(lambda: IsolatedSplit(Graph(0, ()), {}), "relabel_map", id="IsolatedSplit"),
    pytest.param(lambda: DeltaProfile(2, None, None, (0, 0, 1)), "delta", id="DeltaProfile"),
    pytest.param(lambda: DeltaPolynomial((1, -1)), "coeffs", id="DeltaPolynomial"),
    pytest.param(lambda: Failure("2 1\n0 1\n", ("a", "b"), "1", "2"), "got", id="Failure"),
    pytest.param(lambda: VerificationReport(1, [], 0, 0.5), "trials", id="VerificationReport"),
    pytest.param(lambda: BenchRecord("gray", 1, 1, 0.5, 2.0), "wall_time", id="BenchRecord"),
]


@pytest.mark.parametrize("make,field", RECORDS)
def test_records_are_immutable_values(make, field):
    a, b = make(), make()
    assert a == b and a is not b
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        setattr(a, "extra", 1)
    assert a == b


def corrupt_components(monkeypatch, call=0):
    """Make the harness's component engine lie on its ``call``-th call (from 0): delta_2 + 1."""
    calls = count()

    def lying(g):
        profile = delta_by_components(g)
        if next(calls) != call:
            return profile
        delta = list(profile.delta)
        delta[2] += 1
        return profile._replace(delta=tuple(delta))

    monkeypatch.setattr(verify, "delta_by_components", lying)


class TestCheckGraph:
    def test_clean_graph_has_no_failures(self, cube):
        assert check_graph(cube) == []

    def test_corrupt_profile_is_caught(self, k3, monkeypatch):
        corrupt_components(monkeypatch)
        failures = check_graph(k3)
        assert len(failures) == 1
        assert failures[0].methods == ("delta_graycode", "delta_by_components")

    def test_failure_records_the_graph_and_values(self, k3, monkeypatch):
        corrupt_components(monkeypatch)
        failure = check_graph(k3)[0]
        assert failure.graph_text == "3 3\n0 1\n0 2\n1 2\n"
        assert failure.expected != failure.got
        d = failure.to_json_dict()
        assert set(d) == {"graph", "methods", "expected", "got"}

    def test_each_engine_runs_once(self, cube, monkeypatch):
        # Each engine is counted under its own name and in the engine table.
        calls = []

        def counted(engine):
            def run(g):
                calls.append(engine.__name__)
                return engine(g)

            return run

        names = sorted(engine.__name__ for engine in ENGINES.values())
        for key, engine in list(ENGINES.items()):
            monkeypatch.setitem(ENGINES, key, counted(engine))
            monkeypatch.setattr(verify, engine.__name__, counted(engine))
        assert check_graph(cube) == []
        assert sorted(calls) == names

    def test_clean_graph_builds_no_edge_list(self, cube, monkeypatch):
        # A graph's edge list is only a failure's record.
        monkeypatch.setattr(verify, "to_edge_list", lambda g: pytest.fail("an edge list was built"))
        assert check_graph(cube) == []

    def test_wrong_count_is_caught(self, cube, monkeypatch):
        monkeypatch.setattr(verify, "vc_count_reduction", lambda g: 36)
        methods = [f.methods for f in check_graph(cube)]
        assert methods == [("reduction", "census_formula[gray]"), ("reduction", "brute_force")]

    def test_edgeless_and_single_vertex(self):
        from oed import Graph

        assert check_graph(Graph.from_edges(0, [])) == []
        assert check_graph(Graph.from_edges(1, [])) == []

    @pytest.mark.parametrize("n", [26, VERTEX_CAP])
    def test_graph_past_the_scans_price_is_checked_without_them(self, n):
        # The scans refuse 2^n subsets from 26 vertices on; the census
        # checks still run, and the refusal is no failure.
        assert check_graph(Graph.from_edges(n, [(0, 1)])) == []

    def test_graph_within_the_scans_price_runs_both(self, monkeypatch):
        # 2^25 subsets are priced under DP_SECONDS, so both scans run. Each
        # is stood in for by the closed form: one edge on 25 vertices has
        # 3 * 2^23 covers.
        g = Graph.from_edges(25, [(0, 1)])
        _check_scan(g, "either scan")  # admitted: raises nothing
        calls = []

        def stand_in(name):
            def scan(g):
                calls.append(name)
                return 3 << (g.n - 2)

            return scan

        for name in ("brute_force_vc_count", "independent_set_count"):
            monkeypatch.setattr(verify, name, stand_in(name))
        assert check_graph(g) == []
        assert calls == ["brute_force_vc_count", "independent_set_count"]


class TestAllLabeledGraphs:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64)])
    def test_counts(self, n, count):
        assert sum(1 for _ in all_labeled_graphs(n)) == count

    def test_graphs_are_distinct(self):
        seen = {tuple(g.edges) for g in all_labeled_graphs(3)}
        assert len(seen) == 8


class TestRunVerification:
    def test_exhaustive_small(self):
        report = run_verification(exhaustive_n=3)
        assert report.passing
        assert report.trials == 1 + 1 + 2 + 8

    def test_random_trials_reproducible(self):
        a = run_verification(n_max=8, m_max=12, trials=5, seed=77)
        b = run_verification(n_max=8, m_max=12, trials=5, seed=77)
        assert a.passing and b.passing
        assert a.trials == b.trials == 5

    def test_corrupt_hook_fails_exactly_one_graph(self, monkeypatch):
        corrupt_components(monkeypatch, call=3)
        report = run_verification(exhaustive_n=2)
        assert not report.passing
        assert len(report.failures) == 1
        assert report.failures[0].methods == ("delta_graycode", "delta_by_components")
        assert report.failures[0].graph_text == "2 1\n0 1\n"

    def test_exhaustive_n_rejected_above_cap(self):
        with pytest.raises(ValueError, match="exhaustive_n"):
            run_verification(exhaustive_n=6)

    def test_trials_need_room_for_vertices(self):
        with pytest.raises(ValueError, match="n_max"):
            run_verification(trials=3, n_max=1, m_max=5)

    def test_trials_need_n_max_within_oracle_reach(self):
        # Refused before any draw; without trials n_max is not read.
        with pytest.raises(ValueError, match=f"n_max <= {VERTEX_CAP}, got {VERTEX_CAP + 1}"):
            run_verification(trials=1, n_max=VERTEX_CAP + 1, m_max=0)
        assert run_verification(n_max=10**9).passing

    def test_trials_need_nonnegative_m_max(self):
        with pytest.raises(ValueError, match="m_max"):
            run_verification(trials=1, n_max=2, m_max=-1)
        assert run_verification(n_max=2, m_max=-1).passing

    def test_trials_priced_over_dp_seconds_are_refused_before_any_check(self, monkeypatch):
        # The slowest graph on 8 vertices is K8: 28 edges, a 59 s gray sweep
        # plus the 20-edge oracles. Refused before the exhaustive stage too.
        monkeypatch.setattr(verify, "check_graph", lambda g: pytest.fail("a graph was checked"))
        for m_max in (28, 10**9):
            with pytest.raises(CapError, match=r"^a trial graph of 8 vertices and 28 edges is estimated at 61\.8 s"):
                run_verification(exhaustive_n=2, trials=1, n_max=8, m_max=m_max)
        with pytest.raises(CapError, match=r"^a trial graph of 25 vertices and 0 edges is estimated at 67\.1 s"):
            run_verification(trials=1, n_max=25, m_max=0)

    def test_naive_sweep_is_priced_as_the_direct_sum(self):
        # The trial price counts both at IE_SECONDS, up to IE_EDGE_CAP edges.
        assert NAIVE_SECONDS == IE_SECONDS

    def test_report_json_shape(self):
        d = run_verification(exhaustive_n=2, trials=2, n_max=5, m_max=6, seed=9).to_json_dict()
        assert d["passing"] is True
        assert d["trials"] == 6
        assert d["failures"] == []
        assert d["seed"] == 9
        assert d["wall_time"] >= 0


class TestRunBench:
    def test_records_one_per_engine_per_repeat(self, cube):
        records = run_bench(cube, ["gray", "components"], repeats=2)
        assert [r.engine for r in records] == ["gray", "gray", "components", "components"]
        for r in records:
            assert r.edges == 12
            assert r.wall_time >= 0
            assert r.subsets_per_second >= 0

    @pytest.mark.parametrize(
        "g,m",
        [
            # The components engine's own census is 7 + 7 subsets, one per triangle.
            pytest.param(
                disjoint_union(gen_family("complete", 3), gen_family("complete", 3)),
                6,
                id="two_triangles",
            ),
            # Interleaved labels and an isolated vertex: components of 2 edges and 1.
            pytest.param(Graph.from_edges(6, [(0, 3), (3, 5), (1, 4)]), 3, id="interleaved"),
        ],
    )
    def test_every_engine_rates_the_census_size(self, g, m):
        records = run_bench(g, list(ENGINES))
        assert [r.engine for r in records] == list(ENGINES)
        assert {r.to_json_dict()["subsets"] for r in records} == {str(2**m - 1)}

    def test_all_engines_must_agree(self, k3, monkeypatch):
        from oed import delta

        lying = dict(delta.ENGINES)
        real_naive = lying["naive"]

        def bad_naive(g):
            profile = real_naive(g)
            wrong = list(profile.delta)
            wrong[2] += 1
            return delta.DeltaProfile(
                n=profile.n, odd_counts=None, even_counts=None, delta=tuple(wrong)
            )

        lying["naive"] = bad_naive
        monkeypatch.setattr("oed.verify.ENGINES", lying)
        with pytest.raises(EngineDisagreement, match="disagree"):
            run_bench(k3, ["gray", "naive"])

    def test_unknown_engine_rejected(self, k3):
        with pytest.raises(ValueError, match="unknown engine"):
            run_bench(k3, ["gray", "quantum"])

    def test_empty_engine_list_rejected(self, k3):
        with pytest.raises(ValueError, match="no engines"):
            run_bench(k3, [])

    def test_bad_repeats_rejected(self, k3):
        with pytest.raises(ValueError, match="repeats"):
            run_bench(k3, ["gray"], repeats=0)

    def test_json_record_shape(self):
        record = run_bench(gen_family("cycle", 8), ["gray"])[0]
        d = record.to_json_dict()
        assert d["engine"] == "gray"
        assert d["edges"] == 8
        assert d["subsets"] == str(2**8 - 1)
