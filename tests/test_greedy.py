"""The greedy loop shared by FORESTCFCM, SCHURCFCM and APPROXGREEDY, and the input check EXACT shares."""
import numpy as np
import pytest

from repro.core.approx import approx_greedy
from repro.core.exact import exact_greedy
from repro.core.forest_cfcm import forest_cfcm
from repro.core.params import Params
from repro.core.schur_cfcm import schur_cfcm
from repro.graph.csr import CSRGraph


@pytest.mark.parametrize("graph", ["karate", "ba200"])
def test_schur_without_hubs_is_forest(request, graph, params_fast):
    # c = 0 gives T = [], so every SCHURDELTA call is FORESTDELTA.
    g = request.getfixturevalue(graph)
    schur = schur_cfcm(None, g, 4, params_fast, c=0)
    forest = forest_cfcm(None, g, 4, params_fast)
    assert schur.S == forest.S
    assert schur.forests_per_iter == forest.forests_per_iter


@pytest.mark.parametrize("alg", [forest_cfcm, schur_cfcm, approx_greedy])
@pytest.mark.parametrize("k", [0, 34])
def test_invalid_k(karate, alg, k):
    with pytest.raises(ValueError, match="1 <= k < n"):
        alg(None, karate, k, Params(eps=0.3))


@pytest.mark.parametrize(
    "run",
    [
        lambda g: forest_cfcm(None, g, 2, Params(eps=0.3)),
        lambda g: schur_cfcm(None, g, 2, Params(eps=0.3)),
        lambda g: approx_greedy(None, g, 2, Params(eps=0.3)),
        lambda g: exact_greedy(g, 2),
    ],
    ids=["forest", "schur", "approx", "exact"],
)
def test_disconnected_graph_rejected(run):
    two_triangles = CSRGraph.from_edges(np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]), 6)
    with pytest.raises(ValueError, match="3 of 6 nodes are unreachable"):
        run(two_triangles)


def test_approx_draws_no_forests(karate):
    res = approx_greedy(None, karate, 3, Params(eps=0.3))
    assert res.forests_per_iter == [0, 0, 0]
