"""The greedy loop shared by FORESTCFCM, SCHURCFCM and APPROXGREEDY."""
import pytest

from repro.core.approx import approx_greedy
from repro.core.forest_cfcm import forest_cfcm
from repro.core.params import Params
from repro.core.schur_cfcm import schur_cfcm


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


def test_approx_draws_no_forests(karate):
    res = approx_greedy(None, karate, 3, Params(eps=0.3))
    assert res.forests_per_iter == [0, 0, 0]
