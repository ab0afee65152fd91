"""Property-based tests (hypothesis) over random small graphs.

Randomized structural identities: canonicalization idempotence, CSR
round-trips, Laplacian invariants, downdate consistency, estimator
telescoping linearity, forest row sums against ancestor walks — each on
arbitrary generated graphs rather than the fixed fixtures.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest.estimators import bfs_tree_for_roots, telescope
from repro.forest.wilson import forest_depths, sample_forest, sample_forests, tree_sums
from repro.graph.csr import CSRGraph, local_bfs_tree
from repro.graph.generators import canonical_edges, erdos_renyi, is_connected_edges
from repro.linalg.laplacian import (
    laplacian_dense,
    remove_node_inverse_downdate,
    submatrix_inverse,
    trace_l_sub_inv,
)


@st.composite
def connected_graph(draw):
    n = draw(st.integers(min_value=4, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    edges = erdos_renyi(n, 0.3, seed=seed)
    return CSRGraph.from_edges(edges, n)


@st.composite
def edge_list(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    m = draw(st.integers(min_value=1, max_value=40))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m,
            max_size=m,
        )
    )
    return np.array(pairs, dtype=np.int64)


@settings(max_examples=25, deadline=None)
@given(edge_list())
def test_canonicalize_idempotent(pairs):
    once = canonical_edges(pairs)
    twice = canonical_edges(once)
    assert np.array_equal(once, twice)


@settings(max_examples=25, deadline=None)
@given(edge_list())
def test_canonicalize_no_loops_no_dupes(pairs):
    e = canonical_edges(pairs)
    if len(e):
        assert (e[:, 0] < e[:, 1]).all()
        assert len(np.unique(e, axis=0)) == len(e)


@settings(max_examples=15, deadline=None)
@given(connected_graph())
def test_csr_roundtrip(g):
    g2 = CSRGraph.from_edges(g.edge_array(), g.n)
    assert np.array_equal(g2.indptr, g.indptr)
    assert np.array_equal(g2.indices, g.indices)


@settings(max_examples=15, deadline=None)
@given(connected_graph())
def test_laplacian_invariants(g):
    L = laplacian_dense(g)
    np.testing.assert_allclose(L.sum(axis=0), 0, atol=1e-12)
    assert np.trace(L) == 2 * g.m


@settings(max_examples=10, deadline=None)
@given(connected_graph(), st.integers(0, 10_000))
def test_trace_monotone_under_growth(g, seed):
    # Supermodularity: adding any node to S strictly decreases the trace.
    rng = np.random.default_rng(seed)
    L = laplacian_dense(g)
    S = [int(rng.integers(0, g.n))]
    u = int(rng.choice([v for v in range(g.n) if v not in S]))
    assert trace_l_sub_inv(L, S + [u]) < trace_l_sub_inv(L, S)


@settings(max_examples=10, deadline=None)
@given(connected_graph(), st.integers(0, 10_000))
def test_downdate_identity_random(g, seed):
    rng = np.random.default_rng(seed)
    L = laplacian_dense(g)
    s = int(rng.integers(0, g.n))
    M, keep = submatrix_inverse(L, [s])
    idx = int(rng.integers(0, len(keep)))
    got = remove_node_inverse_downdate(M, idx)
    expect, _ = submatrix_inverse(L, [s, int(keep[idx])])
    np.testing.assert_allclose(got, expect, atol=1e-7)


@settings(max_examples=10, deadline=None)
@given(connected_graph(), st.integers(0, 10_000))
def test_wilson_forest_valid_random(g, seed):
    rng = np.random.default_rng(seed)
    root = int(rng.integers(0, g.n))
    parent, root_of = sample_forest(g, np.array([root]), rng)
    depth = forest_depths(parent)
    assert depth[root] == 0
    for u in range(g.n):
        if u != root:
            assert parent[u] in g.neighbors(u)
            assert depth[u] == depth[parent[u]] + 1
            assert root_of[u] == root


@settings(max_examples=10, deadline=None)
@given(connected_graph(), st.integers(0, 10_000), st.integers(1, 4))
def test_wilson_chunk_valid_random(g, seed, n_roots):
    rng = np.random.default_rng(seed)
    roots = rng.choice(g.n, size=min(n_roots, g.n), replace=False)
    parents, roots_of = sample_forests(g, roots, rng, 16)
    assert parents.shape == roots_of.shape == (16, g.n)
    is_root = np.zeros(g.n, dtype=bool)
    is_root[roots] = True
    for parent, root_of in zip(parents, roots_of):
        # n parent steps from every node end at its root: no cycles.
        v = np.arange(g.n)
        for _ in range(g.n):
            v = np.where(parent[v] >= 0, parent[v], v)
        np.testing.assert_array_equal(v, root_of)
        assert is_root[root_of].all()
        depth = forest_depths(parent)
        for u in range(g.n):
            if is_root[u]:
                assert parent[u] == -1 and depth[u] == 0
            else:
                assert parent[u] in g.neighbors(u)
                assert depth[u] == depth[parent[u]] + 1


@settings(max_examples=10, deadline=None)
@given(connected_graph(), st.integers(0, 10_000))
def test_telescope_linearity(g, seed):
    rng = np.random.default_rng(seed)
    bfs = bfs_tree_for_roots(g, [int(rng.integers(0, g.n))])
    a = rng.standard_normal(g.n)
    b = rng.standard_normal(g.n)
    lhs = telescope(bfs, 2.0 * a + b)
    rhs = 2.0 * telescope(bfs, a) + telescope(bfs, b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(connected_graph(), st.integers(0, 10_000))
def test_bfs_depths_are_shortest(g, seed):
    rng = np.random.default_rng(seed)
    root = int(rng.integers(0, g.n))
    _, depth = local_bfs_tree(g, [root])
    # BFS property: neighbouring depths differ by at most 1.
    for a, b in g.edge_array():
        assert abs(depth[a] - depth[b]) <= 1


def _path_to_root(parent, v):
    path = [v]
    while parent[path[-1]] >= 0:
        path.append(int(parent[path[-1]]))
    return path


@settings(max_examples=10, deadline=None)
@given(connected_graph(), st.integers(0, 10_000), st.integers(1, 4))
def test_tree_sums_match_ancestor_walks(g, seed, n_roots):
    # Wilson's forests from several roots: node ids are not in depth order.
    rng = np.random.default_rng(seed)
    roots = rng.choice(g.n, size=min(n_roots, g.n), replace=False)
    parents, _ = sample_forests(g, roots, rng, 4)
    X = rng.standard_normal((g.n, 3))
    for parent in parents:
        down, up = np.zeros_like(X), np.zeros_like(X)
        for v in range(g.n):
            path = _path_to_root(parent, v)
            down[v] = X[path].sum(axis=0)
            up[path] += X[v]
        np.testing.assert_allclose(tree_sums(parent, X.copy()), down, atol=1e-12)
        np.testing.assert_allclose(tree_sums(parent, X.copy(), up=True), up, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10), st.integers(1, 6), st.integers(0, 6), st.integers(0, 10_000))
def test_tree_sums_count_a_cycle_and_its_tail(n_tree, n_cycle, n_tail, seed):
    # Ids below n_tree form a valid forest (0 is a root), the next n_cycle
    # a cycle (a self-loop if n_cycle is 1), the rest a tail into it; then
    # the ids are shuffled.
    rng = np.random.default_rng(seed)
    n = n_tree + n_cycle + n_tail
    parent = np.array([rng.integers(-1, v) for v in range(n_tree)]
                      + [n_tree + (i + 1) % n_cycle for i in range(n_cycle)]
                      + [rng.integers(n_tree, v) for v in range(n_tree + n_cycle, n)])
    perm = rng.permutation(n)
    shuffled = np.empty(n, dtype=np.int64)
    shuffled[perm] = np.where(parent >= 0, perm[parent], -1)
    X = rng.standard_normal((n, 2))
    before = X.copy()
    for up in (False, True):
        with pytest.raises(ValueError, match=f"^{n_cycle + n_tail} of {n} nodes never reach a root"):
            tree_sums(shuffled, X, up=up)
    np.testing.assert_array_equal(X, before)
