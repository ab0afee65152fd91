"""The synthetic graph suite mirroring the paper's dataset ladder.

Each graph stands in for one row of the paper's Table II; the row and
its published numbers are in EXPERIMENTS.md's paper table (Table II
section).
Sizes are laptop-scale (DESIGN.md §5): crossovers and scaling shapes — not
absolute seconds — are the reproduction target.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert,
    grid2d,
    karate_club,
    ring_with_shortcuts,
    tiny_graph,
)

__all__ = ["GraphSpec", "SUITE", "TINY", "build_graph", "graph_stats"]


@dataclass(frozen=True)
class GraphSpec:
    name: str
    build: Callable[[], np.ndarray]
    n: int


def _ba(n: int, d: int, seed: int) -> Callable[[], np.ndarray]:
    return lambda: barabasi_albert(n, d, seed=seed)


# Ladder ordered by node count, like Table II. Density ratios m/n track the
# analogous rows (sparse road net, mid-density social, dense social).
SUITE: dict[str, GraphSpec] = {
    s.name: s
    for s in [
        GraphSpec("road-1000", lambda: ring_with_shortcuts(1000, seed=0), 1000),
        GraphSpec("ba-2000-d8", _ba(2000, 8, 1), 2000),
        GraphSpec("ba-1500-d30", _ba(1500, 30, 2), 1500),  # the density row
        GraphSpec("ba-4000-d22", _ba(4000, 22, 3), 4000),
        GraphSpec("ba-4200-d3", _ba(4200, 3, 4), 4200),
        GraphSpec("ba-6500-d2", _ba(6500, 2, 5), 6500),
        GraphSpec("ba-8600-d3", _ba(8600, 3, 6), 8600),
        GraphSpec("ba-12000-d11", _ba(12000, 11, 7), 12000),
    ]
}

# Tiny graphs of Fig. 1 (karate is real; others are stand-ins, DESIGN.md §5).
TINY = ["zebra", "karate", "contusa", "dolphins"]


def build_graph(name: str) -> CSRGraph:
    """Build a suite graph or a Fig.-1 tiny graph by name."""
    if name in SUITE:
        edges = SUITE[name].build()
        return CSRGraph.from_edges(edges, SUITE[name].n)
    if name in TINY:
        edges, n = tiny_graph(name)
        return CSRGraph.from_edges(edges, n)
    raise ValueError(f"unknown experiment graph {name!r}")


def graph_stats(g: CSRGraph) -> dict:
    """The descriptive columns of Table II: n, m, τ, |T*|."""
    from repro.core.schur_cfcm import select_T
    from repro.graph.csr import estimate_diameter

    return {
        "n": g.n,
        "m": g.m,
        "tau": estimate_diameter(g),
        "t_star": len(select_T(g)),
    }
