"""CSRGraph structure, BFS, diameter."""
import numpy as np
import pytest

from repro.graph.csr import CSRGraph, estimate_diameter, local_bfs_tree
from repro.graph.generators import barabasi_albert, grid2d, karate_club


@pytest.fixture(scope="module")
def path4() -> CSRGraph:
    return CSRGraph.from_edges(np.array([[0, 1], [1, 2], [2, 3]]), 4)


class TestCSRStructure:
    def test_degrees(self, path4):
        assert path4.degrees.tolist() == [1, 2, 2, 1]

    def test_m(self, path4):
        assert path4.m == 3

    def test_neighbors_sorted(self, karate):
        for u in range(karate.n):
            nbrs = karate.neighbors(u)
            assert (np.diff(nbrs) > 0).all()

    def test_edge_array_roundtrip(self, karate):
        e = karate.edge_array()
        g2 = CSRGraph.from_edges(e, karate.n)
        assert np.array_equal(g2.indptr, karate.indptr)
        assert np.array_equal(g2.indices, karate.indices)

    def test_symmetry(self, ba200):
        e = ba200.edge_array()
        for a, b in e[:50]:
            assert a in ba200.neighbors(int(b))
            assert b in ba200.neighbors(int(a))

    def test_adj_matvec_matches_dense(self, karate):
        A = np.zeros((karate.n, karate.n))
        e = karate.edge_array()
        A[e[:, 0], e[:, 1]] = 1
        A[e[:, 1], e[:, 0]] = 1
        x = np.random.default_rng(0).random(karate.n)
        np.testing.assert_allclose(karate.adj_matvec(x), A @ x, rtol=1e-12)

    def test_adj_matvec_trailing_isolated_node(self):
        # Node 3 has degree 0 and the highest id: its segment starts at 2m.
        g = CSRGraph.from_edges(np.array([[0, 1], [1, 2]]), 4)
        assert g.adj_matvec(np.array([1.0, 2.0, 4.0, 8.0])).tolist() == [2.0, 5.0, 2.0, 0.0]

    def test_picklable(self, karate):
        import pickle

        g2 = pickle.loads(pickle.dumps(karate))
        assert np.array_equal(g2.indices, karate.indices)
        assert np.array_equal(g2.degrees, karate.degrees)


class TestFromEdgesValidation:
    @pytest.mark.parametrize(
        "edges, n, match",
        [
            # Triangle with edge (0, 1) doubled, once reversed.
            ([[0, 1], [1, 2], [0, 2], [1, 0]], 3, r"0 self-loop\(s\), 1 duplicate pair"),
            ([[0, 1], [1, 2], [0, 2], [0, 1]], 3, r"0 self-loop\(s\), 1 duplicate pair"),
            ([[0, 1], [1, 2], [0, 2], [2, 2]], 3, r"1 self-loop\(s\), 0 duplicate pair"),
            ([[0, 1], [1, 2], [0, 3], [-1, 2]], 3, r"2 out-of-range id\(s\) \[-1, 3\]"),
        ],
    )
    def test_rejects_non_simple_input(self, edges, n, match):
        with pytest.raises(ValueError, match=match):
            CSRGraph.from_edges(np.array(edges), n)


class TestLocalBFS:
    def test_path_graph_depths(self, path4):
        parent, depth, buckets = local_bfs_tree(path4, [0])
        assert depth.tolist() == [0, 1, 2, 3]
        assert parent.tolist() == [-1, 0, 1, 2]
        assert [b.tolist() for b in buckets] == [[0], [1], [2], [3]]

    def test_multi_source(self, path4):
        _, depth, _ = local_bfs_tree(path4, [0, 3])
        assert depth.tolist() == [0, 1, 1, 0]

    def test_parent_is_neighbor(self, ba200):
        parent, depth, _ = local_bfs_tree(ba200, [0])
        for u in range(1, ba200.n):
            assert parent[u] in ba200.neighbors(u)
            assert depth[u] == depth[parent[u]] + 1

    def test_covers_connected_graph(self, ba200):
        _, depth, _ = local_bfs_tree(ba200, [5])
        assert (depth >= 0).all()

    def test_grid_depth_is_manhattan(self, grid5):
        _, depth, _ = local_bfs_tree(grid5, [0])
        for r in range(5):
            for c in range(5):
                assert depth[r * 5 + c] == r + c


class TestDiameter:
    def test_path_graph_exact(self):
        n = 30
        e = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        g = CSRGraph.from_edges(e, n)
        assert estimate_diameter(g) == n - 1  # exact on trees

    def test_grid(self, grid5):
        assert estimate_diameter(grid5) == 8

    def test_lower_bound_on_karate(self, karate):
        # Known diameter is 5; double sweep reaches >= 4.
        assert 4 <= estimate_diameter(karate) <= 5
