"""Experiment harnesses: suite integrity, miniature runs, formatting."""
import numpy as np
import pytest

from repro.experiments.effectiveness import (
    CfccRow,
    format_cfcc_table,
    format_fig5,
    run_fig1,
    run_fig23,
    run_fig5,
)
from repro.experiments.epsilon import format_fig4, run_fig4
from repro.experiments.graphs import SUITE, TINY, build_graph, graph_stats
from repro.experiments.table2 import PAPER_TABLE2, Table2Row, format_table2, run_table2


class TestSuite:
    def test_all_specs_have_paper_rows(self):
        assert set(PAPER_TABLE2) == set(SUITE)

    @pytest.mark.parametrize("name", ["road-1000", "ba-2000-d8"])
    def test_build(self, name):
        g = build_graph(name)
        assert g.n == SUITE[name].n
        assert g.m > 0

    def test_density_mirrors_paper(self):
        # Density row must be denser than same-tier sparse rows.
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
    def test_miniature_run(self):
        rows = run_table2(
            None,
            graph_names=["karate"],
            k=3,
            eps_grid=(0.3,),
            log=lambda *a, **k: None,
        )
        (row,) = rows
        assert row.exact_s is not None and row.exact_s > 0
        assert row.approx_s is not None
        assert 0.3 in row.forest_s and 0.3 in row.schur_s

    def test_limits_skip_baselines(self):
        rows = run_table2(
            None,
            graph_names=["karate"],
            k=2,
            eps_grid=(0.3,),
            exact_limit=10,
            approx_limit=10,
            log=lambda *a, **k: None,
        )
        assert rows[0].exact_s is None and rows[0].approx_s is None

    def test_format(self):
        row = Table2Row(
            name="g",
            stats=dict(n=10, m=20, tau=3, t_star=2),
            exact_s=1.5,
            approx_s=None,
            forest_s={0.3: 0.5},
            schur_s={0.3: 0.4},
        )
        md = format_table2([row], eps_grid=(0.3,))
        assert "| g | 10 | 20 | 3 | 2 | 1.500 | — | 0.500 | 0.400 |" in md


class TestEffectivenessHarnesses:
    def test_fig1_miniature(self):
        rows = run_fig1(None, graphs=["karate"], k_max=2, eps=0.3, log=lambda *a: None)
        assert len(rows) == 2
        for r in rows:
            assert set(r.values) == {"OPT", "EXACT", "APPROX", "FOREST", "SCHUR"}
            # OPT dominates everything (it is the optimum).
            assert all(r.values["OPT"] >= v - 1e-9 for v in r.values.values())

    def test_fig23_miniature(self):
        rows = run_fig23(
            None, graphs=["karate"], k=3, eps=0.3, ks=[1, 3], log=lambda *a: None
        )
        assert len(rows) == 2
        assert {"DEGREE", "TOP-CFCC", "EXACT", "APPROX", "FOREST", "SCHUR"} == set(
            rows[0].values
        )
        # C(S) grows with k for greedy algorithms.
        assert rows[1].values["EXACT"] > rows[0].values["EXACT"]

    def test_fig23_samples_top_cfcc_above_dense_limit(self, monkeypatch):
        from repro.core import evaluate
        from repro.core.heuristics import degree_baseline, top_cfcc_sampled
        from repro.core.params import Params

        monkeypatch.setattr(evaluate, "_DENSE_LIMIT", 10)
        g = build_graph("karate")
        (row,) = run_fig23(None, graphs=["karate"], k=4, eps=0.3, ks=[4], log=lambda *a: None)
        top = top_cfcc_sampled(None, g, 4, Params(eps=0.3))
        assert set(top) != set(degree_baseline(g, 4))
        assert row.values["TOP-CFCC"] == evaluate.cfcc_of_set(None, g, top)

    def test_fig5_miniature(self):
        rows = run_fig5(
            None, graphs=["karate"], k=3, eps_grid=(0.3,), log=lambda *a: None
        )
        (r,) = rows
        assert abs(r["forest_rd"]) < 0.2 and abs(r["schur_rd"]) < 0.2

    def test_fig4_miniature(self):
        rows = run_fig4(None, graphs=["karate"], k=2, eps_grid=(0.4,), log=lambda *a: None)
        (r,) = rows
        assert r["forest_s"] > 0 and r["schur_s"] > 0

    def test_format_cfcc_table(self):
        rows = [CfccRow(graph="g", k=1, values={"A": 1.0, "B": 2.0})]
        md = format_cfcc_table(rows)
        assert "| g | 1 | 1.0000 | 2.0000 |" in md

    def test_format_fig5(self):
        md = format_fig5([dict(graph="g", eps=0.2, forest_rd=0.01, schur_rd=0.005)])
        assert "| g | 0.2 | 0.0100 | 0.0050 |" in md


class TestJobsImportable:
    @pytest.mark.parametrize(
        "mod",
        ["table2", "fig1_effectiveness", "fig23_effectiveness", "fig4_epsilon_runtime", "fig5_epsilon_quality"],
    )
    def test_job_has_main(self, mod):
        import importlib.util
        import sys
        from pathlib import Path

        jobs = Path(__file__).resolve().parent.parent / "jobs"
        sys.path.insert(0, str(jobs))
        try:
            spec = importlib.util.spec_from_file_location(mod, jobs / f"{mod}.py")
            m = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(m)
            assert callable(m.main)
        finally:
            sys.path.remove(str(jobs))
