"""Graph substrate: generators and CSR adjacency.

The paper evaluates on the largest connected components of real-world
graphs (KONECT/SNAP/Network Repository). This package supplies connected
synthetic stand-ins (scale-free, small-world, road-like, grid) plus
Zachary's karate club, and the compact CSR representation, with its
multi-source BFS, that Spark tasks use for random walks.
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
