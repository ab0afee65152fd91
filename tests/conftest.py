"""Shared fixtures: small graphs and fast sampling presets.

The session-scoped ``spark`` fixture comes from the repo-root conftest.
Everything here is deterministic (fixed seeds) so failures reproduce.
"""
import numpy as np
import pytest

from repro.core.params import Params
from repro.graph.csr import CSRGraph
from repro.graph.generators import barabasi_albert, grid2d, karate_club, ring_with_shortcuts


@pytest.fixture(scope="session")
def karate() -> CSRGraph:
    return CSRGraph.from_edges(karate_club(), 34)


@pytest.fixture(scope="session")
def ba200() -> CSRGraph:
    return CSRGraph.from_edges(barabasi_albert(200, 3, seed=7))


@pytest.fixture(scope="session")
def grid5() -> CSRGraph:
    return CSRGraph.from_edges(grid2d(5, 5), 25)


@pytest.fixture(scope="session")
def road120() -> CSRGraph:
    return CSRGraph.from_edges(ring_with_shortcuts(120, seed=3), 120)


@pytest.fixture()
def params_fast() -> Params:
    """Low-sample preset: quick, still accurate enough for argmax checks."""
    return Params(eps=0.15)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
