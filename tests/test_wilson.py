"""Wilson sampler: structural validity, distribution, helpers."""
import itertools
from collections import Counter

import numpy as np
import pytest

from repro.experiments.graphs import build_graph
from repro.forest.wilson import (
    depth_buckets,
    forest_depths,
    sample_forest,
    sample_forests,
    subtree_sums_T,
)
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


def _rooted_forests(g: CSRGraph, roots) -> list[tuple[int, ...]]:
    """Every spanning forest rooted at ``roots``, as its tuple of parents."""
    roots = set(roots)
    choices = [[-1] if u in roots else g.neighbors(u).tolist() for u in range(g.n)]
    out = []
    for parent in itertools.product(*choices):
        ok = True
        for u in range(g.n):
            v, steps = u, 0
            while parent[v] != -1 and steps <= g.n:
                v, steps = parent[v], steps + 1
            ok &= parent[v] == -1
        if ok:
            out.append(parent)
    return out


class TestChunkSampler:
    # 5-cycle with chords (0, 2) and (1, 3): 24 spanning trees rooted at {0},
    # 16 spanning forests rooted at {0, 3}.
    CHORDED = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2], [1, 3]])

    @pytest.mark.parametrize("roots, n_forests", [([0], 24), ([0, 3], 16)])
    def test_uniform_over_all_forests(self, roots, n_forests):
        g = CSRGraph.from_edges(self.CHORDED, 5)
        forests = _rooted_forests(g, roots)
        assert len(forests) == n_forests
        index = {f: i for i, f in enumerate(forests)}
        counts = np.zeros(n_forests)
        chunks, per_chunk = 2000, 16
        for c in range(chunks):
            parents, _ = sample_forests(g, np.array(roots), np.random.default_rng([11, c]), per_chunk)
            for p in parents:
                counts[index[tuple(int(x) for x in p)]] += 1
        expected = chunks * per_chunk / n_forests
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        dof = n_forests - 1
        assert (chi2 - dof) / np.sqrt(2 * dof) < 4.0

    @pytest.mark.parametrize("roots", [[33], [0, 5, 16, 25, 33]])
    def test_every_forest_of_a_chunk_is_valid_karate(self, karate, roots):
        roots = np.array(roots)
        parents, roots_of = sample_forests(karate, roots, np.random.default_rng(4), 16)
        assert parents.shape == roots_of.shape == (16, karate.n)
        for parent, root_of in zip(parents, roots_of):
            _check_forest(karate, roots, parent, root_of)

    def test_every_forest_of_a_chunk_is_valid_road(self):
        # High diameter and one root: the most popping rounds.
        g = build_graph("road-1000")
        roots = np.array([int(np.argmax(g.degrees))])
        parents, roots_of = sample_forests(g, roots, np.random.default_rng(2), 16)
        for parent, root_of in zip(parents, roots_of):
            _check_forest(g, roots, parent, root_of)

    def test_same_seed_and_count_same_arrays(self, karate):
        roots = np.array([0, 33])
        a = sample_forests(karate, roots, np.random.default_rng(9), 16)
        b = sample_forests(karate, roots, np.random.default_rng(9), 16)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_single_forest_is_first_of_batch(self, karate):
        roots = np.array([33])
        parent, root_of = sample_forest(karate, roots, np.random.default_rng(5))
        parents, roots_of = sample_forests(karate, roots, np.random.default_rng(5), 1)
        np.testing.assert_array_equal(parent, parents[0])
        np.testing.assert_array_equal(root_of, roots_of[0])


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

    @pytest.mark.parametrize("parent", [[-1, 2, 1], [1, 0]])
    def test_cycle_raises(self, parent):
        # Nodes 1 and 2 point at each other beside root 0; then a rootless 2-cycle.
        with pytest.raises(ValueError, match="2 of .* nodes never reach a root"):
            forest_depths(np.array(parent))

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
