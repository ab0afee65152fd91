"""Experiment harness: suite integrity, miniature sweeps, formatting."""
import pytest

from repro.experiments import table2 as harness
from repro.experiments.graphs import SUITE, TINY, build_graph, graph_stats
from repro.experiments.table2 import GraphRuns, fig1, fig5, fig23, markdown, sweep, table2


@pytest.fixture()
def small_sweep(monkeypatch):
    """Shrink the sweep's constants to a karate-sized run."""
    monkeypatch.setattr(harness, "K", 3)
    monkeypatch.setattr(harness, "EPS_GRID", (0.4, 0.3))
    monkeypatch.setattr(harness, "EPS", 0.3)
    monkeypatch.setattr(harness, "FIG23_KS", (1, 3))
    monkeypatch.setattr(harness, "FIG5_K", 2)
    monkeypatch.setattr(harness, "FIG1_K", 2)


class TestSuite:
    @pytest.mark.parametrize("name", ["road-1000", "ba-2000-d8"])
    def test_build(self, name):
        g = build_graph(name)
        assert g.n == SUITE[name].n
        assert g.m > 0

    def test_density_mirrors_paper(self):
        # The density row must be denser than a sparse row of similar size.
        dense = build_graph("ba-1500-d30")
        sparse = build_graph("ba-2000-d8")
        assert dense.m / dense.n > 2 * sparse.m / sparse.n

    def test_road_has_high_diameter(self):
        stats = graph_stats(build_graph("road-1000"))
        assert stats["tau"] > 15  # Euroroads regime

    @pytest.mark.parametrize("name", TINY)
    def test_tiny_graphs_buildable(self, name):
        assert build_graph(name).n in (23, 34, 49, 62)

    def test_unknown_graph(self):
        with pytest.raises(ValueError):
            build_graph("nope")

    def test_graph_stats_keys(self, karate):
        s = graph_stats(karate)
        assert set(s) == {"n", "m", "tau", "t_star"}
        assert s["n"] == 34 and s["m"] == 78


class TestTable2Harness:
    def test_miniature_run(self, small_sweep):
        (run,) = sweep(None, ["karate"])
        assert run.stats == graph_stats(build_graph("karate"))
        assert set(run.results) == {
            ("EXACT", None), ("APPROX", 0.3),
            ("FOREST", 0.4), ("SCHUR", 0.4), ("FOREST", 0.3), ("SCHUR", 0.3),
        }
        assert all(len(res.S) == 3 for res in run.results.values())

    def test_limits_skip_baselines(self, small_sweep, monkeypatch):
        monkeypatch.setattr(harness, "EXACT_LIMIT", 10)
        monkeypatch.setattr(harness, "APPROX_LIMIT", 10)
        runs = sweep(None, ["karate"])
        assert {a for a, _ in runs[0].results} == {"FOREST", "SCHUR"}
        (row,) = table2(runs)[1]
        assert row[5] is None and row[6] is None  # EXACT, APPROX
        assert fig5(None, runs)[1] == []  # no EXACT to compare against
        assert all(r[4] is None and r[5] is None for r in fig23(None, runs)[1])

    def test_format(self):
        header = ["graph", "n", "EXACT", "APPROX"]
        md = markdown((header, [["g", 10, "1.500", None]]))
        assert md.splitlines() == ["| graph | n | EXACT | APPROX |", "|---|---|---|---|", "| g | 10 | 1.500 | — |"]


class TestEffectivenessHarnesses:
    def test_fig1_miniature(self, small_sweep, monkeypatch):
        monkeypatch.setattr(harness, "TINY", ["karate"])
        header, rows = fig1(None)
        assert header[2:] == ["OPT", "EXACT", "APPROX", "FOREST", "SCHUR"]
        assert [r[1] for r in rows] == [1, 2]
        for r in rows:
            # OPT dominates everything (it is the optimum).
            assert all(r[2] >= v - 1e-9 for v in r[3:])

    def test_fig23_miniature(self, small_sweep):
        header, rows = fig23(None, sweep(None, ["karate"]))
        assert header[2:] == ["DEGREE", "TOP-CFCC", "EXACT", "APPROX", "FOREST", "SCHUR"]
        assert [r[1] for r in rows] == [1, 3]
        assert all(v is not None for r in rows for v in r)
        # C(S) grows with k for greedy algorithms.
        assert rows[1][4] > rows[0][4]

    def test_fig23_samples_top_cfcc_above_dense_limit(self, small_sweep, monkeypatch):
        from repro.core import evaluate
        from repro.core.heuristics import degree_baseline, top_cfcc_sampled
        from repro.core.params import Params

        monkeypatch.setattr(harness, "K", 4)
        monkeypatch.setattr(harness, "FIG23_KS", (4,))
        monkeypatch.setattr(evaluate, "_DENSE_LIMIT", 10)
        g = build_graph("karate")
        run = GraphRuns("karate", g, {}, {})
        (row,) = fig23(None, [run])[1]
        top = top_cfcc_sampled(None, g, 4, Params(eps=0.3))
        assert set(top) != set(degree_baseline(g, 4))
        assert row[3] == evaluate.cfcc_of_set(None, g, top)

    def test_fig5_miniature(self, small_sweep):
        header, rows = fig5(None, sweep(None, ["karate"]))
        assert [r[1] for r in rows] == ["0.4", "0.3"]
        for r in rows:
            assert abs(r[2]) < 0.2 and abs(r[3]) < 0.2

    def test_each_group_scored_once(self, small_sweep, monkeypatch):
        # C(S) depends only on the set: shared prefixes and reordered groups
        # are scored once per graph, and every cell is the unmemoised score.
        from repro.core.evaluate import cfcc_of_set
        from repro.core.forest_cfcm import GreedyResult

        g = build_graph("karate")
        groups = {("EXACT", None): [33, 0, 32], ("APPROX", 0.3): [33, 0, 2],
                  ("FOREST", 0.4): [33, 0, 1], ("SCHUR", 0.4): [0, 33, 5],
                  ("FOREST", 0.3): [0, 33, 32], ("SCHUR", 0.3): [33, 0, 32]}
        run = GraphRuns("karate", g, {}, {key: GreedyResult(S, 0.0) for key, S in groups.items()})
        calls = []
        monkeypatch.setattr(harness, "cfcc_of_set",
                            lambda spark, g, S: calls.append(frozenset(S)) or cfcc_of_set(spark, g, S))
        _, rows23 = fig23(None, [run])
        _, rows5 = fig5(None, [run])
        assert len(calls) == len(set(calls))
        # fig5 (k = 2) reads {0, 33} for EXACT and all four runs: one score.
        assert rows5 == [["karate", "0.4", 0.0, 0.0], ["karate", "0.3", 0.0, 0.0]]
        assert calls.count(frozenset([0, 33])) == 1
        for row in rows23:
            k = row[1]
            want = [groups[key][:k] for key in
                    [("EXACT", None), ("APPROX", 0.3), ("FOREST", 0.3), ("SCHUR", 0.3)]]
            assert row[4:] == [cfcc_of_set(None, g, S) for S in want]

    def test_fig4_miniature(self, small_sweep):
        # Fig. 4 is Table II's ε columns: FOREST and SCHUR seconds at each ε.
        header, (row,) = table2(sweep(None, ["karate"]))
        assert header[7:] == ["F ε=0.4", "F ε=0.3", "S ε=0.4", "S ε=0.3"]
        assert all(float(v) > 0 for v in row[7:])

    def test_format_cfcc_table(self):
        md = markdown((["graph", "k", "A", "B"], [["g", 1, 1.0, 2.0]]))
        assert "| g | 1 | 1.0000 | 2.0000 |" in md

    def test_format_fig5(self):
        md = markdown((["graph", "ε", "F", "S"], [["g", str(0.2), 0.01, 0.005]]))
        assert "| g | 0.2 | 0.0100 | 0.0050 |" in md


class TestJobsImportable:
    @pytest.mark.parametrize("mod", ["table2"])
    def test_job_has_main(self, mod):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "jobs" / f"{mod}.py"
        spec = importlib.util.spec_from_file_location(f"job_{mod}", path)
        m = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(m)
        assert callable(m.main)
