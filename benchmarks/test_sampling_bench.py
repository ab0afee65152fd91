"""Microbenchmarks of the sampling substrate.

Tracks the two kernels that dominate FORESTCFCM/SCHURCFCM wall time, each
on one 16-forest chunk, the unit a Spark task runs: the cycle-popping
sampler (``sample_forests``) and the per-chunk estimator pass
(``chunk_stats``, sampler included), the latter as FOREST's chunk (root
{s}) and SCHUR's (roots S ∪ hubs, with absorption counts). The two
sampler cases show the hub-root speedup that motivates SCHURCFCM
(forests rooted at S ∪ hubs pop fewer cycles than forests rooted at S
alone).
"""
import numpy as np
import pytest

from repro.forest.estimators import bfs_tree_for_roots, chunk_stats
from repro.forest.wilson import sample_forests
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert


@pytest.fixture(scope="module")
def g() -> CSRGraph:
    return CSRGraph.from_edges(barabasi_albert(2000, 4, seed=2))


def _sample_chunk(g, roots, seed):
    sample_forests(g, roots, np.random.default_rng(seed), 16)


def test_wilson_single_root(benchmark, g):
    roots = np.array([int(np.argmax(g.degrees))])
    benchmark.pedantic(_sample_chunk, args=(g, roots, 0), rounds=3, iterations=1)


def test_wilson_hub_roots(benchmark, g):
    from repro.core.schur_cfcm import select_T

    roots = np.array(sorted(select_T(g)))
    benchmark.pedantic(_sample_chunk, args=(g, roots, 0), rounds=3, iterations=1)


def test_estimator_pass(benchmark, g):
    # One 16-forest chunk of chunk_stats, the unit each Spark task runs.
    roots = np.array([int(np.argmax(g.degrees))])
    bfs = bfs_tree_for_roots(g, roots)
    W_T = np.random.default_rng(0).choice([-1.0, 1.0], size=(g.n, 32))
    W_T[roots] = 0.0
    benchmark.pedantic(chunk_stats, args=(g, bfs, W_T, None, 0, 7, 16), rounds=3, iterations=1)


def test_estimator_pass_schur(benchmark, g):
    # SCHUR's chunk: roots S ∪ select_T with absorption counts toward T.
    from repro.core.schur_cfcm import select_T

    s = int(np.argmax(g.degrees))
    T = [t for t in select_T(g) if t != s]
    roots = np.array(sorted([s] + T))
    bfs = bfs_tree_for_roots(g, roots)
    W_T = np.random.default_rng(0).choice([-1.0, 1.0], size=(g.n, 32))
    W_T[roots] = 0.0
    t_col = np.full(g.n, -1, dtype=np.int64)
    t_col[T] = np.arange(len(T))
    benchmark.pedantic(
        chunk_stats, args=(g, bfs, W_T, t_col, len(T), 7, 16), rounds=3, iterations=1
    )
