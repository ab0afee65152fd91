"""Benchmark for Table II: per-algorithm runtime on a miniature ladder.

The full table is produced by ``jobs/table2.py`` over the whole suite;
this pytest-benchmark target regenerates the table's comparison on a
small scale-free graph (the EXACT-feasible regime) so the ordering
EXACT ≫ APPROX > FOREST > SCHUR is tracked in CI-sized runs.
"""
import pytest

from repro.core.approx import approx_greedy
from repro.core.exact import exact_greedy
from repro.core.forest_cfcm import forest_cfcm
from repro.core.params import Params
from repro.core.schur_cfcm import schur_cfcm
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert

K = 5


@pytest.fixture(scope="module")
def bench_graph() -> CSRGraph:
    return CSRGraph.from_edges(barabasi_albert(600, 4, seed=0))


PARAMS = Params(eps=0.3)


def test_exact_greedy(benchmark, bench_graph):
    res = benchmark.pedantic(exact_greedy, args=(bench_graph, K), rounds=2, iterations=1)
    assert len(res.S) == K


def test_approx_greedy(benchmark, spark, bench_graph):
    res = benchmark.pedantic(
        approx_greedy, args=(spark, bench_graph, K, PARAMS), rounds=2, iterations=1
    )
    assert len(res.S) == K


def test_forest_cfcm(benchmark, spark, bench_graph):
    res = benchmark.pedantic(
        forest_cfcm, args=(spark, bench_graph, K, PARAMS), rounds=2, iterations=1
    )
    assert len(res.S) == K


def test_schur_cfcm(benchmark, spark, bench_graph):
    res = benchmark.pedantic(
        schur_cfcm, args=(spark, bench_graph, K, PARAMS), rounds=2, iterations=1
    )
    assert len(res.S) == K
