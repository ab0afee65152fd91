"""Microbenchmarks of the sampling substrate.

Tracks the two kernels that dominate FORESTCFCM/SCHURCFCM wall time:
Wilson's walk and the per-chunk estimator pass (``chunk_stats``) — and
shows the hub-root speedup that motivates SCHURCFCM (walks rooted at
S ∪ hubs are cheaper than walks rooted at S alone).
"""
import numpy as np
import pytest

from repro.forest.estimators import bfs_tree_for_roots, chunk_stats
from repro.forest.wilson import sample_forest
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert


@pytest.fixture(scope="module")
def g() -> CSRGraph:
    return CSRGraph.from_edges(barabasi_albert(2000, 4, seed=2))


def _sample_many(g, roots, n, seed0):
    for s in range(n):
        sample_forest(g, roots, np.random.default_rng(seed0 + s))


def test_wilson_single_root(benchmark, g):
    roots = np.array([int(np.argmax(g.degrees))])
    benchmark.pedantic(_sample_many, args=(g, roots, 20, 0), rounds=3, iterations=1)


def test_wilson_hub_roots(benchmark, g):
    from repro.core.schur_cfcm import select_T

    roots = np.array(sorted(select_T(g)))
    benchmark.pedantic(_sample_many, args=(g, roots, 20, 0), rounds=3, iterations=1)


def test_estimator_pass(benchmark, g):
    # One 16-forest chunk of chunk_stats, the unit each Spark task runs.
    roots = np.array([int(np.argmax(g.degrees))])
    bfs = bfs_tree_for_roots(g, roots)
    W_T = np.random.default_rng(0).choice([-1.0, 1.0], size=(g.n, 32))
    W_T[roots] = 0.0
    benchmark.pedantic(chunk_stats, args=(g, bfs, W_T, None, 0, 7, 16), rounds=3, iterations=1)
