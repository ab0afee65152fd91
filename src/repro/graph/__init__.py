"""Graph substrate: generators, CSR adjacency, and Spark DataFrame ops.

The paper evaluates on real-world graphs (KONECT/SNAP/Network Repository).
This package supplies the synthetic stand-ins (scale-free, small-world,
road-like, grid) plus Zachary's karate club, a compact CSR representation
used inside Spark tasks for random walks, and DataFrame/Catalyst
implementations of the relational graph operations (degrees, hubs,
connected components).
"""
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    barabasi_albert,
    erdos_renyi,
    grid2d,
    karate_club,
    ring_with_shortcuts,
    tiny_graph,
    watts_strogatz,
)

__all__ = [
    "CSRGraph",
    "barabasi_albert",
    "erdos_renyi",
    "grid2d",
    "karate_club",
    "ring_with_shortcuts",
    "tiny_graph",
    "watts_strogatz",
]
