"""Benchmark for Fig. 4: runtime of FOREST/SCHUR across ε (miniature).

Over the whole suite, Fig. 4 is Table II's ε columns at k = 20
(``jobs/table2.py``); this target tracks the ε⁻² scaling and SCHUR's
edge on one graph.
"""
import pytest

from repro.core.forest_cfcm import forest_cfcm
from repro.core.params import Params
from repro.core.schur_cfcm import schur_cfcm
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert

K = 3


@pytest.fixture(scope="module")
def bench_graph() -> CSRGraph:
    return CSRGraph.from_edges(barabasi_albert(400, 3, seed=1))


@pytest.mark.parametrize("eps", [0.4, 0.2])
def test_forest_eps(benchmark, spark, bench_graph, eps):
    params = Params(eps=eps)
    res = benchmark.pedantic(
        forest_cfcm, args=(spark, bench_graph, K, params), rounds=1, iterations=1
    )
    assert len(res.S) == K


@pytest.mark.parametrize("eps", [0.4, 0.2])
def test_schur_eps(benchmark, spark, bench_graph, eps):
    params = Params(eps=eps)
    res = benchmark.pedantic(
        schur_cfcm, args=(spark, bench_graph, K, params), rounds=1, iterations=1
    )
    assert len(res.S) == K
