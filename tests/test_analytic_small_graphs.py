"""Closed-form CFCM checks on analytically tractable graphs.

On stars, paths and complete graphs the optimal groups and many traces
have closed forms; every algorithm must recover them. These pin down
end-to-end correctness independently of the dense-oracle tests.
"""
import numpy as np
import pytest

from repro.core.exact import brute_force_optimum, exact_greedy
from repro.core.forest_cfcm import forest_cfcm
from repro.core.params import Params
from repro.core.schur_cfcm import schur_cfcm
from repro.forest.distributed import SampleConfig
from repro.graph.csr import CSRGraph
from repro.linalg.laplacian import laplacian_dense, trace_l_sub_inv

FAST = Params(eps=0.3, sample=SampleConfig(r_coeff=20))


def star(n: int) -> CSRGraph:
    e = np.stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)], axis=1)
    return CSRGraph.from_edges(e, n)


def path(n: int) -> CSRGraph:
    return CSRGraph.from_edges(np.stack([np.arange(n - 1), np.arange(1, n)], 1), n)


def complete(n: int) -> CSRGraph:
    iu = np.triu_indices(n, 1)
    return CSRGraph.from_edges(np.stack(iu, 1), n)


class TestStar:
    def test_center_is_best_single(self):
        g = star(12)
        assert exact_greedy(g, 1).S == [0]
        assert forest_cfcm(None, g, 1, FAST).S == [0]
        assert schur_cfcm(None, g, 1, FAST).S == [0]

    def test_trace_closed_form(self):
        # Star grounded at the center: leaves are independent unit
        # resistors, Tr(L_{-center}^{-1}) = n - 1.
        n = 12
        L = laplacian_dense(star(n))
        assert trace_l_sub_inv(L, [0]) == pytest.approx(n - 1)

    def test_optimum_contains_center(self):
        S_opt, _ = brute_force_optimum(star(9), 2)
        assert 0 in S_opt


class TestPath:
    def test_k1_optimum_is_middle(self):
        n = 11
        S_opt, _ = brute_force_optimum(path(n), 1)
        assert S_opt == [n // 2]

    def test_k2_optimum_symmetric_quantiles(self):
        # For a path, two grounds sit near the 1/4 and 3/4 points.
        n = 12
        S_opt, _ = brute_force_optimum(path(n), 2)
        a, b = sorted(S_opt)
        assert 1 <= a <= n // 2 - 1 and n // 2 <= b <= n - 2
        assert (n - 1 - b) == a  # symmetry

    def test_grounded_trace_closed_form(self):
        # Path grounded at one end: (L_{-0}^{-1})_{ii} = i ⇒ trace = n(n-1)/2.
        n = 9
        L = laplacian_dense(path(n))
        assert trace_l_sub_inv(L, [0]) == pytest.approx(n * (n - 1) / 2)

    def test_greedy_guarantee_on_path(self):
        # Theorem 3.11's form: the greedy *improvement* over the best
        # singleton must reach ≥ (1 − k/(k−1)·1/e) of the optimum's.
        # (Trace ratio itself is a weaker metric: greedy on a path is a
        # genuinely suboptimal ~1.37× in trace, which the theory allows.)
        g = path(10)
        k = 2
        L = laplacian_dense(g)
        tr_s1 = trace_l_sub_inv(L, exact_greedy(g, 1).S)
        tr_gr = trace_l_sub_inv(L, exact_greedy(g, k).S)
        _, tr_opt = brute_force_optimum(g, k)
        factor = 1 - (k / (k - 1)) / np.e
        assert tr_s1 - tr_gr >= factor * (tr_s1 - tr_opt) - 1e-9


class TestComplete:
    def test_all_singletons_equivalent(self):
        # K_n is vertex-transitive: every singleton has the same trace.
        n = 8
        L = laplacian_dense(complete(n))
        traces = {round(trace_l_sub_inv(L, [u]), 9) for u in range(n)}
        assert len(traces) == 1

    def test_trace_closed_form_singleton(self):
        # K_n grounded at one node: eigenvalues of L_{-s} are n (n-2 times)
        # and 1 (once) ⇒ trace of inverse = (n-2)/n + 1.
        n = 8
        L = laplacian_dense(complete(n))
        assert trace_l_sub_inv(L, [0]) == pytest.approx((n - 2) / n + 1)

    def test_forest_cfcm_valid_on_complete(self):
        res = forest_cfcm(None, complete(9), 3, FAST)
        assert len(set(res.S)) == 3


class TestTwoCliquesBridge:
    def test_bridge_structure_selects_both_sides(self):
        # Two K_6 cliques joined by one edge: k=2 optimum puts one node
        # in each clique (by symmetry + supermodularity).
        k6a = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        k6b = [(i + 6, j + 6) for i, j in k6a]
        edges = np.array(k6a + k6b + [(0, 6)], dtype=np.int64)
        g = CSRGraph.from_edges(edges, 12)
        S_opt, _ = brute_force_optimum(g, 2)
        assert (min(S_opt) < 6) and (max(S_opt) >= 6)
        assert sorted(exact_greedy(g, 2).S)[0] < 6 <= sorted(exact_greedy(g, 2).S)[1]
