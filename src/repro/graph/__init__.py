"""Graph substrate: generators and CSR adjacency.

The paper evaluates on the largest connected components of real-world
graphs (KONECT/SNAP/Network Repository). This package supplies connected
synthetic stand-ins (scale-free, small-world, road-like, grid) plus
Zachary's karate club, and the compact CSR representation, with its
multi-source BFS, that Spark tasks use for random walks.
"""
