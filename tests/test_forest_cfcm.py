"""FORESTCFCM end-to-end and FORESTDELTA accuracy."""
import numpy as np
import pytest

from repro.core.evaluate import cfcc_dense
from repro.core.exact import exact_greedy
from repro.core.forest_cfcm import forest_cfcm, forest_delta
from repro.core.params import Params
from repro.forest.distributed import SampleConfig
from repro.linalg.laplacian import laplacian_dense, marginal_gain_all_exact

ACC = Params(eps=0.2 / np.sqrt(8), sample=SampleConfig(r_coeff=5.125))  # w = 255, 6240 forests on karate


class TestForestDelta:
    @pytest.mark.parametrize("S", [[33], [33, 0]])
    def test_matches_exact_gains(self, karate, S):
        L = laplacian_dense(karate)
        exact = marginal_gain_all_exact(L, S)
        delta, n_f = forest_delta(None, karate, S, ACC, seed=1)
        keys = sorted(exact)
        ex = np.array([exact[u] for u in keys])
        rel = np.abs(delta[keys] - ex) / ex.max()
        # ~4σ Monte-Carlo band at these sample sizes.
        assert rel.max() < 0.25
        assert np.median(rel) < 0.08
        assert n_f > 0

    def test_minus_inf_at_s(self, karate, params_fast):
        delta, _ = forest_delta(None, karate, [33, 5], params_fast, seed=2)
        assert delta[33] == -np.inf and delta[5] == -np.inf

    def test_argmax_agrees_with_exact(self, karate):
        L = laplacian_dense(karate)
        exact = marginal_gain_all_exact(L, [33])
        best_exact = max(exact.items(), key=lambda kv: kv[1])[0]
        delta, _ = forest_delta(None, karate, [33], ACC, seed=3)
        assert int(np.argmax(delta)) == best_exact

    def test_deterministic(self, karate, params_fast):
        d1, _ = forest_delta(None, karate, [33], params_fast, seed=7)
        d2, _ = forest_delta(None, karate, [33], params_fast, seed=7)
        np.testing.assert_array_equal(d1, d2)


class TestForestCFCM:
    def test_returns_k_distinct(self, karate, params_fast):
        res = forest_cfcm(None, karate, 4, params_fast)
        assert len(res.S) == 4 and len(set(res.S)) == 4

    def test_first_node_matches_exact(self, karate):
        res = forest_cfcm(None, karate, 1, ACC)
        assert res.S == exact_greedy(karate, 1).S

    def test_near_exact_quality(self, karate):
        res = forest_cfcm(None, karate, 4, ACC)
        c_exact = cfcc_dense(karate, exact_greedy(karate, 4).S)
        assert cfcc_dense(karate, res.S) >= 0.95 * c_exact

    def test_beats_degree_heuristic(self, ba200):
        from repro.core.heuristics import degree_baseline

        params = Params(eps=0.25, sample=SampleConfig(r_coeff=20))
        res = forest_cfcm(None, ba200, 5, params)
        assert cfcc_dense(ba200, res.S) >= 0.99 * cfcc_dense(ba200, degree_baseline(ba200, 5))

    def test_records_forest_counts(self, karate, params_fast):
        res = forest_cfcm(None, karate, 3, params_fast)
        assert len(res.forests_per_iter) == 3
        assert all(f > 0 for f in res.forests_per_iter)

    def test_invalid_k(self, karate, params_fast):
        with pytest.raises(ValueError):
            forest_cfcm(None, karate, 0, params_fast)
