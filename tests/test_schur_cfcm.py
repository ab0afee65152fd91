"""SCHURCFCM: T selection, Schur estimation, SCHURDELTA, end-to-end."""
import numpy as np
import pytest

from repro.core.evaluate import cfcc_dense
from repro.core.exact import exact_greedy
from repro.core.forest_cfcm import read_out, rooted_sample, schur_complement_from_counts
from repro.core.params import Params
from repro.core.schur_cfcm import schur_cfcm, schur_delta, select_T
from repro.forest.distributed import SampleConfig, adaptive_forest_stats
from repro.linalg.laplacian import laplacian_dense, marginal_gain_all_exact, schur_complement
from tests.test_forest_estimators import ones_row

ACC = Params(eps=0.2 / np.sqrt(8), sample=SampleConfig(r_coeff=5.125))  # w = 255, 6240 forests on karate
BIG = SampleConfig(r_coeff=27)  # 4110 forests on karate at eps=0.2


def _brute_force_t_star(g):
    """``argmin_i |i − d_max(T_i)|`` (first minimum) over the full removal order."""
    deg = g.degrees.astype(np.int64).copy()
    removed = np.zeros(g.n, dtype=bool)
    order, gaps = [], []
    for _ in range(g.n - 1):
        u = int(np.argmax(np.where(removed, -1, deg)))
        removed[u] = True
        deg[u] = 0
        for v in g.neighbors(u):
            if not removed[v]:
                deg[v] -= 1
        order.append(u)
        gaps.append(abs(len(order) - int(deg.max())))
    return order[: int(np.argmin(gaps)) + 1]


class TestSelectT:
    def test_explicit_c(self, karate):
        T = select_T(karate)
        assert len(T) == 5  # karate's |T*|
        assert T[0] == 33  # max-degree hub first

    def test_hub_order(self, ba200):
        T = select_T(ba200)
        # First hub must be the global max degree.
        assert T[0] == int(np.argmax(ba200.degrees))
        assert len(set(T)) == len(T)

    @pytest.mark.parametrize("graph", ["zebra", "karate", "ba200", "road120"])
    def test_matches_brute_force_argmin(self, request, graph):
        from repro.experiments.graphs import build_graph

        g = build_graph("zebra") if graph == "zebra" else request.getfixturevalue(graph)
        assert select_T(g) == _brute_force_t_star(g)

    def test_auto_size_rule(self, ba200):
        # |T*| balances |T| against the residual max degree.
        T = select_T(ba200)
        assert 1 <= len(T) <= ba200.n // 3
        # Residual max degree after removing T should be near |T|.
        deg = ba200.degrees.astype(np.int64).copy()
        removed = np.zeros(ba200.n, dtype=bool)
        for u in T:
            removed[u] = True
            deg[u] = 0
            live = ba200.neighbors(u)[~removed[ba200.neighbors(u)]]
            np.subtract.at(deg, live, 1)
        assert abs(len(T) - int(deg.max())) <= max(3, len(T))

    def test_small_on_scale_free(self, ba200):
        # Scale-free ⇒ |T*| ≪ n (the paper's Table II observation).
        assert len(select_T(ba200)) < ba200.n // 10


class TestSchurComplementEstimate:
    @pytest.mark.parametrize("S,T", [([5], [33, 0]), ([26], [33, 0, 32])])
    def test_matches_exact(self, karate, S, T):
        L = laplacian_dense(karate)
        roots = sorted(S) + sorted(T)
        stats, _ = adaptive_forest_stats(
            None, karate, roots, ones_row(karate.n, roots), 0.2, t_nodes=sorted(T), seed=1, config=BIG
        )
        mask = np.zeros(karate.n, dtype=bool)
        mask[roots] = True
        got = schur_complement_from_counts(karate, np.asarray(sorted(T)), stats.f_hat, mask)
        expect = schur_complement(L, S, T)
        assert np.abs(got - expect).max() < 0.25

    def test_symmetric_output(self, karate):
        S, T = [5], [33, 0]
        roots = sorted(S) + sorted(T)
        stats, _ = adaptive_forest_stats(
            None, karate, roots, ones_row(karate.n, roots), 0.2, t_nodes=sorted(T), seed=2, config=BIG
        )
        mask = np.zeros(karate.n, dtype=bool)
        mask[roots] = True
        got = schur_complement_from_counts(karate, np.asarray(sorted(T)), stats.f_hat, mask)
        np.testing.assert_allclose(got, got.T)


class TestSchurDelta:
    @pytest.mark.parametrize("S,T", [([5], [33, 0]), ([5, 10], [33, 0, 32])])
    def test_matches_exact_gains(self, karate, S, T):
        L = laplacian_dense(karate)
        exact = marginal_gain_all_exact(L, S)
        delta, n_f = schur_delta(None, karate, S, T, ACC, seed=1)
        keys = sorted(exact)
        ex = np.array([exact[u] for u in keys])
        rel = np.abs(delta[keys] - ex) / ex.max()
        assert rel.max() < 0.15  # includes T nodes, handled by the Schur block

    def test_argmax_agrees_with_exact(self, karate):
        L = laplacian_dense(karate)
        exact = marginal_gain_all_exact(L, [5])
        best = max(exact.items(), key=lambda kv: kv[1])[0]
        delta, _ = schur_delta(None, karate, [5], [33, 0], ACC, seed=4)
        assert int(np.argmax(delta)) == best

    def test_empty_t_falls_back_to_forest(self, karate, params_fast):
        from repro.core.forest_cfcm import forest_delta

        d1, _ = schur_delta(None, karate, [33], [], params_fast, seed=5)
        d2, _ = forest_delta(None, karate, [33], params_fast, seed=5)
        np.testing.assert_array_equal(d1, d2)

    def test_minus_inf_at_s(self, karate, params_fast):
        delta, _ = schur_delta(None, karate, [5, 7], [33, 0], params_fast, seed=6)
        assert delta[5] == -np.inf and delta[7] == -np.inf


class TestSampleReuse:
    def test_read_out_equals_fresh_draw(self, karate, params_fast):
        # Moving a hub t from T' to S leaves the root set, hence the forests,
        # the JL matrix and the weights, as they were: reading the old sample
        # at S ∪ {t} is drawing afresh for it with the same seed.
        T = select_T(karate)
        S_j, seed_j = [5], 9
        sample = rooted_sample(None, karate, S_j, [t for t in T if t not in S_j], params_fast, seed=seed_j)
        assert sample.T.tolist() == sorted(T)
        for t in sample.T.tolist():
            S = S_j + [t]
            rest = [u for u in T if u not in S]
            got, read = schur_delta(None, karate, S, rest, params_fast, seed=seed_j, sample=sample)
            fresh, _ = schur_delta(None, karate, S, rest, params_fast, seed=seed_j)
            assert read is sample
            assert np.array_equal(got, fresh)

    def test_nested_read_outs_match_exact_gains(self, karate):
        L = laplacian_dense(karate)
        sample = rooted_sample(None, karate, [5], [33, 0, 32], ACC, seed=1)
        for S in ([5], [5, 33], [5, 33, 0]):
            exact = marginal_gain_all_exact(L, S)
            delta = read_out(karate, sample, S)
            keys = sorted(exact)
            ex = np.array([exact[u] for u in keys])
            rel = np.abs(delta[keys] - ex) / ex.max()
            assert rel.max() < 0.15
            assert np.all(delta[S] == -np.inf)

    @pytest.mark.parametrize("graph", ["karate", "ba200"])
    def test_fresh_sample_only_when_a_pick_leaves_the_roots(self, request, graph, params_fast):
        # Iteration i roots at R = S ∪ T*, and its new pick S[i-1] is in R
        # exactly when it is a hub of T*; iteration 1 has no sample to read.
        g = request.getfixturevalue(graph)
        T = select_T(g)
        res = schur_cfcm(None, g, 6, params_fast)
        f = res.forests_per_iter
        assert f[0] > 0 and f[1] > 0
        assert [n == 0 for n in f[2:]] == [u in T for u in res.S[1:-1]]
        assert any(n == 0 for n in f)  # both graphs pick a hub after the first iteration


class TestSchurCFCM:
    def test_returns_k_distinct(self, karate, params_fast):
        res = schur_cfcm(None, karate, 4, params_fast)
        assert len(res.S) == 4 and len(set(res.S)) == 4

    def test_near_exact_quality(self, karate):
        res = schur_cfcm(None, karate, 4, ACC)
        c_exact = cfcc_dense(karate, exact_greedy(karate, 4).S)
        assert cfcc_dense(karate, res.S) >= 0.95 * c_exact

    def test_t_can_be_selected_into_s(self, karate):
        # Greedy picks hubs; T shrinks via T \\ S without crashing.
        res = schur_cfcm(None, karate, 5, ACC)
        assert len(set(res.S)) == 5

    def test_deterministic(self, karate, params_fast):
        a = schur_cfcm(None, karate, 3, params_fast)
        b = schur_cfcm(None, karate, 3, params_fast)
        assert a.S == b.S
