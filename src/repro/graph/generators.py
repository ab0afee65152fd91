"""Deterministic synthetic graph generators.

All generators return an undirected simple graph as a numpy ``(m, 2)``
int64 array of canonical edges (``src < dst``, no self-loops, no
duplicates), the format :meth:`repro.graph.csr.CSRGraph.from_edges`
takes.

These stand in for the paper's real-world datasets (see DESIGN.md §5):

* :func:`barabasi_albert` — scale-free graphs; mirrors the social /
  collaboration / AS rows of Table II (small diameter, power-law hubs).
* :func:`ring_with_shortcuts` — sparse, high-diameter graphs; mirrors the
  road network row (*Euroroads*, ``τ = 62``).
* :func:`watts_strogatz` — small-world graphs for the tiny stand-ins.
* :func:`grid2d` — planar mesh; mirrors *Cont. USA* (contiguity graph).
* :func:`karate_club` — Zachary's karate club, a real graph used by the
  paper's Fig. 1, embedded verbatim.

Every generator returns a connected graph, so no input needs the paper's
largest-connected-component extraction. :func:`erdos_renyi` and
:func:`watts_strogatz` add a ring when their random draw comes out
disconnected; every generator then asserts connectivity.
"""
from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, local_bfs_tree

__all__ = [
    "barabasi_albert",
    "erdos_renyi",
    "grid2d",
    "karate_club",
    "ring_with_shortcuts",
    "tiny_graph",
    "watts_strogatz",
    "canonical_edges",
    "is_connected_edges",
]


def canonical_edges(pairs: np.ndarray) -> np.ndarray:
    """Canonicalize an edge array: undirected, ``src < dst``, sorted, unique.

    Self-loops are dropped. Accepts any integer ``(m, 2)`` array.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keep = lo != hi
    e = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    return e


def is_connected_edges(edges: np.ndarray, n: int) -> bool:
    """Whether a canonical edge array connects all of ``0..n-1`` (one BFS)."""
    _, depth = local_bfs_tree(CSRGraph.from_edges(edges, n), [0])
    return bool((depth >= 0).all())


def _assert_connected(edges: np.ndarray, n: int, name: str) -> np.ndarray:
    assert is_connected_edges(edges, n), f"{name} generator produced a disconnected graph"
    return edges


def barabasi_albert(n: int, m_attach: int, *, seed: int = 0) -> np.ndarray:
    """Barabási–Albert preferential attachment graph.

    Starts from a clique on ``m_attach + 1`` nodes; each new node attaches
    to ``m_attach`` distinct existing nodes chosen by degree-proportional
    sampling (repeated-endpoint trick: sample uniformly from the flat list
    of edge endpoints).
    """
    if m_attach < 1 or n <= m_attach + 1:
        raise ValueError("need n > m_attach + 1 >= 2")
    rng = np.random.default_rng(seed)
    n0 = m_attach + 1
    seed_edges = [(i, j) for i in range(n0) for j in range(i + 1, n0)]
    endpoints: list[int] = [v for e in seed_edges for v in e]
    edges = list(seed_edges)
    for v in range(n0, n):
        targets: set[int] = set()
        while len(targets) < m_attach:
            # Degree-proportional: uniform over endpoint multiset.
            t = endpoints[int(rng.integers(0, len(endpoints)))]
            targets.add(t)
        for t in targets:
            edges.append((t, v))
            endpoints.append(t)
            endpoints.append(v)
    out = canonical_edges(np.array(edges, dtype=np.int64))
    return _assert_connected(out, n, "barabasi_albert")


def ring_with_shortcuts(n: int, *, n_shortcuts: int | None = None, seed: int = 0) -> np.ndarray:
    """Ring lattice plus a few random chords — a road-network stand-in.

    With ``n_shortcuts ≈ n/4`` extra chords the graph stays sparse
    (``m ≈ 1.25 n``) with diameter ``Θ(√n)``-ish, qualitatively matching
    *Euroroads* (n=1039, m=1305, τ=62).
    """
    if n < 3:
        raise ValueError("ring needs n >= 3")
    rng = np.random.default_rng(seed)
    if n_shortcuts is None:
        n_shortcuts = n // 4
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    chords = rng.integers(0, n, size=(n_shortcuts, 2))
    out = canonical_edges(np.concatenate([ring, chords]))
    return _assert_connected(out, n, "ring_with_shortcuts")


def watts_strogatz(n: int, k_ring: int, p_rewire: float, *, seed: int = 0) -> np.ndarray:
    """Watts–Strogatz small-world graph (rewire one endpoint w.p. ``p``).

    The ring backbone is kept intact when a rewire would disconnect or
    duplicate, so the result is always connected for ``k_ring >= 2``.
    """
    if k_ring < 2 or k_ring % 2 != 0:
        raise ValueError("k_ring must be even and >= 2")
    rng = np.random.default_rng(seed)
    existing: set[tuple[int, int]] = set()
    for u in range(n):
        for d in range(1, k_ring // 2 + 1):
            v = (u + d) % n
            existing.add((min(u, v), max(u, v)))
    edges = sorted(existing)
    out: list[tuple[int, int]] = []
    for (u, v) in edges:
        if rng.random() < p_rewire:
            w = int(rng.integers(0, n))
            cand = (min(u, w), max(u, w))
            if w != u and cand not in existing:
                existing.add(cand)
                out.append(cand)
                continue
        out.append((u, v))
    result = canonical_edges(np.array(out, dtype=np.int64))
    if not is_connected_edges(result, n):  # rare for p small; repair by re-adding ring
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        result = canonical_edges(np.concatenate([result, ring]))
    return _assert_connected(result, n, "watts_strogatz")


def erdos_renyi(n: int, p: float, *, seed: int = 0) -> np.ndarray:
    """G(n, p) random graph, re-seeded ring added if disconnected."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    iu = np.triu_indices(n, k=1)
    sel = mask[iu]
    pairs = np.stack([iu[0][sel], iu[1][sel]], axis=1)
    result = canonical_edges(pairs)
    if not is_connected_edges(result, n):
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        result = canonical_edges(np.concatenate([result, ring]))
    return _assert_connected(result, n, "erdos_renyi")


def grid2d(rows: int, cols: int) -> np.ndarray:
    """``rows × cols`` 4-neighbour grid (planar mesh, Cont.-USA stand-in)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    out = canonical_edges(np.array(edges, dtype=np.int64))
    return _assert_connected(out, rows * cols, "grid2d")


# Zachary's karate club — 34 nodes, 78 edges (0-indexed, standard edge list).
_KARATE_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 10),
    (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31),
    (1, 2), (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21), (1, 30),
    (2, 3), (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28), (2, 32),
    (3, 7), (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16),
    (6, 16), (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32), (14, 33),
    (15, 32), (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33),
    (22, 32), (22, 33), (23, 25), (23, 27), (23, 29), (23, 32), (23, 33),
    (24, 25), (24, 27), (24, 31), (25, 31), (26, 29), (26, 33), (27, 33),
    (28, 31), (28, 33), (29, 32), (29, 33), (30, 32), (30, 33), (31, 32),
    (31, 33), (32, 33),
]


def karate_club() -> np.ndarray:
    """Zachary's karate club (real graph; used by the paper's Fig. 1)."""
    out = canonical_edges(np.array(_KARATE_EDGES, dtype=np.int64))
    return _assert_connected(out, 34, "karate_club")


def tiny_graph(name: str) -> tuple[np.ndarray, int]:
    """Named tiny graphs matching the node counts of the paper's Fig. 1.

    ``karate`` is the real Zachary graph; the other three are deterministic
    stand-ins at the paper's node counts (Zebra 23, Cont. USA 49,
    Dolphins 62) with comparable structure (see DESIGN.md §5).

    Returns ``(edges, n)``.
    """
    name = name.lower()
    if name == "karate":
        return karate_club(), 34
    if name == "zebra":  # 23-node dense-ish social contact stand-in
        return erdos_renyi(23, 0.4, seed=11), 23
    if name == "contusa":  # 49-node planar contiguity stand-in
        return grid2d(7, 7), 49
    if name == "dolphins":  # 62-node sparse social stand-in
        return watts_strogatz(62, 4, 0.2, seed=7), 62
    raise ValueError(f"unknown tiny graph {name!r}")
