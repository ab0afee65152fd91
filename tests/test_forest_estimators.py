"""Unbiasedness of forest-sampling estimators vs dense ground truth.

These are the load-bearing correctness tests for the paper's Lemmas 3.3,
3.5 and 4.2: empirical means over many sampled forests must converge to
entries of ``L_{-S}^{-1}``, ``L†`` combinations and absorption
probabilities. Seeds are fixed; tolerances are ~4σ of the Monte-Carlo
error at the chosen sample sizes.
"""
import numpy as np
import pytest

from repro.forest.distributed import SampleConfig, adaptive_forest_stats
from repro.forest.estimators import (
    bfs_tree_for_roots,
    chunk_stats,
    forest_masks,
    forest_path_sums,
    telescope,
)
from repro.forest.wilson import sample_forest, subtree_sums_T
from repro.graph.csr import CSRGraph
from repro.linalg.laplacian import (
    absorption_probabilities,
    laplacian_dense,
    laplacian_pinv,
    submatrix_inverse,
)
from tests import test_wilson

# At eps=0.2: 4566 forests on karate, 4233 on the 5x5 grid.
BIG = SampleConfig(r_coeff=30)


def ones_row(n, roots):
    """The one-row ``W`` of eq. (7): ones, zeroed on the roots."""
    W = np.ones((1, n))
    W[0, roots] = 0.0
    return W


def _dense_diag(L, S, n):
    M, keep = submatrix_inverse(L, S)
    out = np.zeros(n)
    out[keep] = np.diag(M)
    return out


class TestTelescope:
    def test_prefix_sum_on_path(self):
        g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 3]]), 4)
        bfs = bfs_tree_for_roots(g, [0])
        delta = np.array([0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(telescope(bfs, delta), [0, 1, 3, 6])

    def test_2d_delta(self, karate):
        bfs = bfs_tree_for_roots(karate, [33])
        rng = np.random.default_rng(0)
        delta = rng.standard_normal((karate.n, 2))
        phi = telescope(bfs, delta)
        # Column-wise equals 1-D telescoping.
        np.testing.assert_allclose(phi[:, 0], telescope(bfs, delta[:, 0]))
        np.testing.assert_allclose(phi[:, 1], telescope(bfs, delta[:, 1]))

    def test_root_is_zero(self, karate):
        bfs = bfs_tree_for_roots(karate, [5, 7])
        phi = telescope(bfs, np.ones(karate.n))
        assert phi[5] == 0.0 and phi[7] == 0.0


class TestConnectivity:
    def test_disconnected_graph_raises(self):
        # Two triangles: nodes 3-5 are unreachable from root 0.
        g = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]), 6)
        with pytest.raises(ValueError, match="3 of 6 nodes are unreachable"):
            adaptive_forest_stats(None, g, [0], ones_row(g.n, [0]), 0.3, seed=0, config=BIG)


class TestForestMasks:
    def test_masks_disjoint_and_valid(self, karate):
        bfs = bfs_tree_for_roots(karate, [33])
        parent, _ = sample_forest(karate, np.array([33]), np.random.default_rng(3))
        fwd, rev = forest_masks(parent, bfs)
        assert not (fwd & rev).any()  # a BFS edge can't be traversed both ways
        assert not fwd[33] and not rev[33]
        # fwd[u] means the forest edge equals the BFS edge.
        for u in np.nonzero(fwd)[0]:
            assert parent[u] == bfs.parent[u]
        for u in np.nonzero(rev)[0]:
            assert parent[bfs.parent[u]] == u


class TestDiagonalEstimator:
    @pytest.mark.parametrize("S", [[33], [33, 0], [5, 20, 31]])
    def test_z_unbiased_karate(self, karate, S):
        L = laplacian_dense(karate)
        stats, _ = adaptive_forest_stats(None, karate, S, ones_row(karate.n, S), 0.2, seed=0, config=BIG)
        true = _dense_diag(L, S, karate.n)
        keep = true > 0
        rel = np.abs(stats.z[keep] - true[keep]) / true[keep]
        assert rel.max() < 0.12

    def test_z_zero_at_roots(self, karate):
        S = [33, 0]
        stats, _ = adaptive_forest_stats(None, karate, S, ones_row(karate.n, S), 0.2, seed=0, config=BIG)
        assert stats.z[33] == 0.0 and stats.z[0] == 0.0

    def test_z_on_grid(self, grid5):
        L = laplacian_dense(grid5)
        S = [0, 24]
        stats, _ = adaptive_forest_stats(None, grid5, S, ones_row(grid5.n, S), 0.2, seed=1, config=BIG)
        true = _dense_diag(L, S, grid5.n)
        keep = true > 0
        assert (np.abs(stats.z[keep] - true[keep]) / true[keep]).max() < 0.12


class TestWeightedEstimator:
    def test_y_unbiased(self, karate):
        L = laplacian_dense(karate)
        S = [33, 2]
        rng = np.random.default_rng(4)
        W = rng.choice([-1.0, 1.0], size=(4, karate.n))
        W[:, S] = 0.0
        stats, _ = adaptive_forest_stats(None, karate, S, W, 0.2, seed=2, config=BIG)
        M, keep = submatrix_inverse(L, S)
        true = np.zeros((4, karate.n))
        true[:, keep] = W[:, keep] @ M
        assert np.abs(stats.y - true).max() < 0.35  # abs err; entries are O(1..5)

    def test_ones_row_estimates_column_sums(self, karate):
        # Eq. (7): Φ̄_{1,S}(u) estimates 1ᵀ L_{-S}^{-1} e_u.
        L = laplacian_dense(karate)
        s = int(np.argmax(karate.degrees))
        ones = np.ones((1, karate.n))
        ones[0, s] = 0.0
        stats, _ = adaptive_forest_stats(None, karate, [s], ones, 0.2, seed=3, config=BIG)
        M, keep = submatrix_inverse(L, [s])
        true = np.zeros(karate.n)
        true[keep] = M.sum(axis=0)
        rel = np.abs(stats.y[0][keep] - true[keep]) / np.abs(true[keep])
        assert rel.max() < 0.15


class TestForestPathSums:
    @pytest.mark.parametrize("roots", [[0], [0, 3]])
    def test_mean_over_every_forest_is_exact(self, roots):
        # The uniform average over all rooted spanning forests is the
        # estimator's expectation, so it must equal W·L_{-S}^{-1} exactly.
        g = CSRGraph.from_edges(test_wilson.TestChunkSampler.CHORDED, 5)
        forests = np.array(test_wilson._rooted_forests(g, roots))
        W = np.random.default_rng(8).standard_normal((3, g.n))
        W[:, roots] = 0.0
        bfs = bfs_tree_for_roots(g, roots)
        BW_T = subtree_sums_T(bfs.parent, bfs.depth, np.ascontiguousarray(W.T))
        mean = forest_path_sums(bfs, BW_T, forests) / len(forests)
        M, keep = submatrix_inverse(laplacian_dense(g), roots)
        true = np.zeros((g.n, 3))
        true[keep] = M @ W[:, keep].T
        np.testing.assert_allclose(mean, true, rtol=0, atol=1e-12)

    def test_schur_roots_within_standard_errors(self, karate):
        # SCHUR's chunk: roots S ∪ T, W zero there, root counts on. Every
        # entry of Ŷ must lie within 4.5 chunk-level standard errors of
        # the dense W·L_{-(S∪T)}^{-1} (largest |z| over 108 entries: 2.61).
        from repro.core.schur_cfcm import select_T

        S = [26]
        T = [t for t in select_T(karate) if t not in S]
        roots = sorted(S + T)
        bfs = bfs_tree_for_roots(karate, roots)
        W = np.random.default_rng(6).choice([-1.0, 1.0], size=(4, karate.n))
        W[:, roots] = 0.0
        BW_T = subtree_sums_T(bfs.parent, bfs.depth, np.ascontiguousarray(W.T))
        t_col = np.full(karate.n, -1, dtype=np.int64)
        t_col[T] = np.arange(len(T))
        per_chunk = np.array([
            chunk_stats(karate, bfs, BW_T, t_col, len(T), 1000 + c, 16)[2] / 16
            for c in range(256)
        ])
        M, keep = submatrix_inverse(laplacian_dense(karate), roots)
        true = np.zeros((karate.n, 4))
        true[keep] = M @ W[:, keep].T
        mean = per_chunk.mean(axis=0)
        se = per_chunk.std(axis=0, ddof=1) / np.sqrt(len(per_chunk))
        # A node whose every path to S ∪ T is one edge has a fixed Ŷ
        # (karate node 11 hangs off root 0); it must be exact.
        fixed = se < 1e-12
        np.testing.assert_allclose(mean[fixed], true[fixed], rtol=0, atol=1e-12)
        z = (mean[~fixed] - true[~fixed]) / se[~fixed]
        assert np.abs(z).max() < 4.5


class TestPinvDiagEstimator:
    def test_first_iteration_scores(self, karate):
        # Lemma 3.5: x_u = L†_uu − (1/n²)1ᵀL_{-s}^{-1}1, estimated by sampling.
        from repro.core.forest_cfcm import first_node_scores
        from repro.core.params import Params

        L = laplacian_dense(karate)
        n = karate.n
        s = int(np.argmax(karate.degrees))
        M, _ = submatrix_inverse(L, [s])
        const = M.sum() / n**2
        true = np.diag(laplacian_pinv(L)) - const
        params = Params(eps=0.2, sample=BIG)
        x, _ = first_node_scores(None, karate, params)
        assert np.abs(x - true).max() < 0.05
        # Ranking agreement on the winner.
        assert int(np.argmin(x)) == int(np.argmin(true))


class TestAbsorptionEstimator:
    def test_f_hat_unbiased(self, karate):
        L = laplacian_dense(karate)
        S, T = [26], [33, 0]
        F_ex, U_ids, T_ids = absorption_probabilities(L, S, T)
        roots = sorted(S) + sorted(T)
        stats, _ = adaptive_forest_stats(
            None, karate, roots, ones_row(karate.n, roots), 0.2, t_nodes=sorted(T), seed=5, config=BIG
        )
        assert np.abs(stats.f_hat[U_ids] - F_ex).max() < 0.05

    def test_f_hat_rows_sum_to_one_without_s(self, karate):
        # With S empty-equivalent (all roots in T), absorption rows sum to 1.
        T = [33, 0, 32]
        stats, _ = adaptive_forest_stats(
            None, karate, T, ones_row(karate.n, T), 0.2, t_nodes=sorted(T), seed=6, config=BIG
        )
        U = [u for u in range(karate.n) if u not in T]
        np.testing.assert_allclose(stats.f_hat[U].sum(axis=1), 1.0, atol=1e-12)


class TestStatsAccumulator:
    def test_add_merges_counts(self, karate):
        cfg1 = SampleConfig(r_coeff=1)  # 153 forests on karate
        W = ones_row(karate.n, [33])
        a, _ = adaptive_forest_stats(None, karate, [33], W, 0.2, seed=1, config=cfg1)
        b, _ = adaptive_forest_stats(None, karate, [33], W, 0.2, seed=2, config=cfg1)
        za, zb = a.z.copy(), b.z.copy()
        na, nb = a.n_forests, b.n_forests
        merged = a.add(b)
        assert merged.n_forests == na + nb
        np.testing.assert_allclose(merged.z, (za * na + zb * nb) / (na + nb))


class TestChunkStats:
    def test_matches_sequential_estimator_statistically(self, karate):
        # The batched pipeline must estimate the same quantities as the
        # dense ground truth (transitively: as the sequential pipeline).
        from repro.linalg.laplacian import laplacian_dense, submatrix_inverse

        S = [33, 0]
        bfs = bfs_tree_for_roots(karate, S)
        rng = np.random.default_rng(0)
        W = rng.choice([-1.0, 1.0], size=(3, karate.n))
        W[:, S] = 0.0
        BW_T = subtree_sums_T(bfs.parent, bfs.depth, np.ascontiguousarray(W.T))
        n_tot, z_sum, y_sum_T, _ = chunk_stats(karate, bfs, BW_T, None, 0, 7, 4000)
        M, keep = submatrix_inverse(laplacian_dense(karate), S)
        diag_true = np.zeros(karate.n)
        diag_true[keep] = np.diag(M)
        z = z_sum / n_tot
        nz = diag_true > 0
        assert (np.abs(z[nz] - diag_true[nz]) / diag_true[nz]).max() < 0.12
        WM_true = np.zeros((karate.n, 3))
        WM_true[keep] = M @ W[:, keep].T
        assert np.abs(y_sum_T / n_tot - WM_true).max() < 0.4

    def test_root_counts(self, karate):
        bfs = bfs_tree_for_roots(karate, [5, 33, 0])
        t_col = np.full(karate.n, -1, dtype=np.int64)
        t_col[33], t_col[0] = 0, 1
        BW_T = np.zeros((karate.n, 1))
        n_tot, _, _, rc = chunk_stats(karate, bfs, BW_T, t_col, 2, 3, 500)
        # Counts bounded by the forest count; roots of S never counted.
        assert rc.max() <= n_tot
        assert rc[5].sum() == 0  # node 5 is a root itself
        U = [u for u in range(karate.n) if u not in (5, 33, 0)]
        assert rc[U].sum() > 0

    def test_adaptive_uses_chunks(self, karate):
        stats, _ = adaptive_forest_stats(None, karate, [33], ones_row(karate.n, [33]), 0.2, seed=1, config=BIG)
        assert stats.n_forests == 4566  # BIG at eps=0.2 on karate, in 286 chunks

    def test_z_and_root_counts_do_not_depend_on_weights(self, karate):
        # ẑ and the root counts read only the forests, so a chunk's sums
        # are bit-equal whatever weights ride along: the one-row W that
        # the z and root-count tests pass leaves their numbers alone.
        S, T = [5], [33, 0]
        bfs = bfs_tree_for_roots(karate, S + T)
        t_col = np.full(karate.n, -1, dtype=np.int64)
        t_col[T] = np.arange(len(T))
        W = np.random.default_rng(9).standard_normal((4, karate.n))
        W[:, S + T] = 0.0

        def run(w):
            BW_T = subtree_sums_T(bfs.parent, bfs.depth, np.ascontiguousarray(w.T))
            return chunk_stats(karate, bfs, BW_T, t_col, len(T), 11, 200)

        n1, z1, y1, rc1 = run(ones_row(karate.n, S + T))
        n4, z4, y4, rc4 = run(W)
        assert (n1, y1.shape, y4.shape) == (n4, (karate.n, 1), (karate.n, 4))
        np.testing.assert_array_equal(z1, z4)
        np.testing.assert_array_equal(rc1, rc4)
