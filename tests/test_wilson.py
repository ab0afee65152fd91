"""Wilson sampler: structural validity, distribution, helpers."""
from collections import Counter

import numpy as np
import pytest

from repro.forest.wilson import depth_buckets, forest_depths, sample_forest, subtree_sums_T
from repro.graph.csr import CSRGraph


@pytest.fixture(scope="module")
def triangle() -> CSRGraph:
    return CSRGraph.from_edges(np.array([[0, 1], [1, 2], [0, 2]]), 3)


def _check_forest(g: CSRGraph, roots: np.ndarray, parent: np.ndarray, root_of: np.ndarray):
    n = g.n
    in_roots = np.zeros(n, dtype=bool)
    in_roots[roots] = True
    for u in range(n):
        if in_roots[u]:
            assert parent[u] == -1
            assert root_of[u] == u
        else:
            p = parent[u]
            assert p >= 0 and p in g.neighbors(u), "forest edge must be a graph edge"
            # follow to root without cycling
            seen = set()
            v = u
            while parent[v] != -1:
                assert v not in seen
                seen.add(v)
                v = int(parent[v])
            assert in_roots[v]
            assert root_of[u] == v


class TestSampleForest:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_forest_karate(self, karate, seed):
        roots = np.array([33])
        parent, root_of = sample_forest(karate, roots, np.random.default_rng(seed))
        _check_forest(karate, roots, parent, root_of)

    @pytest.mark.parametrize("seed", range(3))
    def test_multiple_roots(self, karate, seed):
        roots = np.array([0, 16, 33])
        parent, root_of = sample_forest(karate, roots, np.random.default_rng(seed))
        _check_forest(karate, roots, parent, root_of)
        # every root owns at least itself
        assert set(root_of[roots]) == {0, 16, 33}

    def test_tree_graph_is_deterministic(self):
        # On a tree there is exactly one spanning forest per root set.
        e = np.array([[0, 1], [1, 2], [1, 3], [3, 4]])
        g = CSRGraph.from_edges(e, 5)
        parent, _ = sample_forest(g, np.array([0]), np.random.default_rng(0))
        assert parent.tolist() == [-1, 0, 1, 1, 3]

    def test_uniform_distribution_triangle(self, triangle):
        # Triangle rooted at 0 has 3 spanning trees; Wilson must hit each w.p. 1/3.
        counts = Counter()
        N = 3000
        for s in range(N):
            parent, _ = sample_forest(triangle, np.array([0]), np.random.default_rng(s))
            counts[(int(parent[1]), int(parent[2]))] += 1
        assert set(counts) == {(0, 0), (0, 1), (2, 0)}
        for v in counts.values():
            assert abs(v / N - 1 / 3) < 0.03

    def test_forest_count_two_roots(self):
        # Path 0-1-2 with roots {0, 2}: node 1 attaches to 0 or 2, w.p. 1/2.
        g = CSRGraph.from_edges(np.array([[0, 1], [1, 2]]), 3)
        counts = Counter()
        N = 2000
        for s in range(N):
            parent, root_of = sample_forest(g, np.array([0, 2]), np.random.default_rng(s))
            counts[int(root_of[1])] += 1
        assert abs(counts[0] / N - 0.5) < 0.04


class TestForestDepths:
    def test_simple_tree(self):
        parent = np.array([-1, 0, 1, 1, 3])
        assert forest_depths(parent).tolist() == [0, 1, 2, 2, 3]

    def test_multiple_trees(self):
        parent = np.array([-1, 0, -1, 2, 3])
        assert forest_depths(parent).tolist() == [0, 1, 0, 1, 2]

    def test_long_chain(self):
        n = 1000
        parent = np.arange(-1, n - 1)
        assert forest_depths(parent).tolist() == list(range(n))

    @pytest.mark.parametrize("seed", range(3))
    def test_consistent_with_parent(self, karate, seed):
        parent, _ = sample_forest(karate, np.array([33]), np.random.default_rng(seed))
        depth = forest_depths(parent)
        for u in range(karate.n):
            if parent[u] >= 0:
                assert depth[u] == depth[parent[u]] + 1


class TestDepthBuckets:
    def test_partition(self):
        depth = np.array([0, 1, 2, 1, 0, 2, 2])
        buckets = depth_buckets(depth)
        assert [b.tolist() for b in buckets] == [[0, 4], [1, 3], [2, 5, 6]]

    def test_total_coverage(self, karate):
        parent, _ = sample_forest(karate, np.array([0]), np.random.default_rng(1))
        depth = forest_depths(parent)
        buckets = depth_buckets(depth)
        assert sum(len(b) for b in buckets) == karate.n


class TestSubtreeSums:
    def test_brute_force_comparison(self, karate):
        parent, _ = sample_forest(karate, np.array([33]), np.random.default_rng(5))
        depth = forest_depths(parent)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, karate.n))
        S = subtree_sums_T(parent, depth, X.T).T
        # Brute force: subtree membership via ancestor walks.
        for a in [0, 5, 12, 20]:
            members = [
                v
                for v in range(karate.n)
                if _is_ancestor_or_self(parent, a, v)
            ]
            np.testing.assert_allclose(S[:, a], X[:, members].sum(axis=1), atol=1e-9)

    def test_ones_gives_subtree_sizes(self):
        parent = np.array([-1, 0, 0, 1, 1, 2])
        depth = forest_depths(parent)
        S = subtree_sums_T(parent, depth, np.ones((6, 1)))
        assert S[:, 0].tolist() == [6, 3, 2, 1, 1, 1]


def _is_ancestor_or_self(parent, a, v):
    while v != -1:
        if v == a:
            return True
        v = int(parent[v]) if parent[v] >= 0 else -1
    return False
