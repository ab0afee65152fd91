"""DEGREE / TOP-CFCC heuristics and CFCC evaluation paths."""
import numpy as np
import pytest

from repro.core.evaluate import cfcc_dense, cfcc_hutchinson, cfcc_of_set, relative_difference
from repro.core.heuristics import degree_baseline, top_cfcc_exact, top_cfcc_sampled
from repro.core.params import Params
from repro.forest.distributed import SampleConfig
from repro.linalg.laplacian import cfcc_group, laplacian_dense


class TestDegreeBaseline:
    def test_karate_hubs(self, karate):
        assert degree_baseline(karate, 2) == [33, 0]

    def test_ordering(self, ba200):
        S = degree_baseline(ba200, 5)
        degs = ba200.degrees[S]
        assert (np.diff(degs) <= 0).all()

    def test_matches_sorted_reference(self, ba200):
        deg = ba200.degrees.tolist()
        k = 20
        assert len(set(deg[u] for u in degree_baseline(ba200, k))) < k  # ties inside the top k
        assert degree_baseline(ba200, k) == sorted(range(ba200.n), key=lambda u: (-deg[u], u))[:k]


class TestTopCFCC:
    def test_exact_ranking(self, karate):
        from repro.linalg.laplacian import cfcc_single_all

        L = laplacian_dense(karate)
        singles = cfcc_single_all(L)
        top3 = top_cfcc_exact(karate, 3)
        assert singles[top3[0]] == singles.max()
        assert set(top3) == set(np.argsort(-singles)[:3])

    def test_sampled_agrees_with_exact_top1(self, karate):
        params = Params(eps=0.2, sample=SampleConfig(r_coeff=27))
        sampled = top_cfcc_sampled(None, karate, 3, params)
        exact = top_cfcc_exact(karate, 3)
        assert sampled[0] == exact[0]

    def test_group_beats_topk_singles(self, karate):
        # The paper's point: single-node rankings under-perform greedy groups.
        from repro.core.exact import exact_greedy

        L = laplacian_dense(karate)
        c_top = cfcc_group(L, top_cfcc_exact(karate, 4))
        c_greedy = cfcc_group(L, exact_greedy(karate, 4).S)
        assert c_greedy >= c_top


class TestEvaluate:
    def test_dense_matches_definition(self, karate):
        L = laplacian_dense(karate)
        assert cfcc_dense(karate, [33, 0]) == pytest.approx(cfcc_group(L, [33, 0]))

    def test_hutchinson_close_to_dense(self, karate):
        dense = cfcc_dense(karate, [33, 0])
        hutch = cfcc_hutchinson(None, karate, [33, 0], n_probes=256, seed=1)
        assert hutch == pytest.approx(dense, rel=0.1)

    def test_hutchinson_spark_matches_local(self, spark, karate):
        local = cfcc_hutchinson(None, karate, [33], n_probes=32, seed=2)
        dist = cfcc_hutchinson(spark, karate, [33], n_probes=32, seed=2)
        assert dist == pytest.approx(local, rel=1e-9)

    def test_groups_share_probes_outside_both(self, karate, monkeypatch):
        # Every caller uses the default seed, so two groups are evaluated
        # on the same probe draws, each zeroed on its own group: paired.
        import repro.core.evaluate as evaluate

        seen: list[np.ndarray] = []
        solve = evaluate.solve_submatrix

        def recording(g, q, S, **kw):
            seen.append(q.copy())
            return solve(g, q, S, **kw)

        monkeypatch.setattr(evaluate, "solve_submatrix", recording)
        S, S2 = [33, 0], [5, 16, 2]
        cfcc_hutchinson(None, karate, S, n_probes=8)
        cfcc_hutchinson(None, karate, S2, n_probes=8)
        a, b = np.array(seen[:8]), np.array(seen[8:])
        assert not a[:, S].any() and not b[:, S2].any()
        outside = np.setdiff1d(np.arange(karate.n), S + S2)
        np.testing.assert_array_equal(a[:, outside], b[:, outside])
        assert (np.abs(a[:, outside]) == 1.0).all()

    def test_dispatch_small_graph(self, karate):
        assert cfcc_of_set(None, karate, [33]) == pytest.approx(cfcc_dense(karate, [33]))

    def test_relative_difference(self):
        assert relative_difference(0.9, 1.0) == pytest.approx(0.1)
        assert relative_difference(1.0, 1.0) == 0.0
