"""Compact CSR adjacency used inside Spark tasks.

A :class:`CSRGraph` is a frozen numpy CSR of an undirected simple graph.
It is small (two int arrays), picklable, and broadcast to the executors
with every Spark job (``repro.fanout``); every random-walk / BFS /
matvec kernel in this repo runs against it. It is built from a canonical
numpy edge array (:func:`repro.graph.generators.canonical_edges`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CSRGraph", "local_bfs_tree", "estimate_diameter"]


@dataclass(frozen=True)
class CSRGraph:
    """Undirected graph in CSR form (both directions stored).

    Attributes
    ----------
    n : number of nodes (ids are ``0..n-1``)
    indptr : int64 array of length ``n + 1``
    indices : int64 array of length ``2m`` — neighbours of node ``u`` are
        ``indices[indptr[u]:indptr[u+1]]``, sorted ascending
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", np.diff(self.indptr).astype(np.int64))

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return int(len(self.indices) // 2)

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def edge_array(self) -> np.ndarray:
        """Canonical ``(m, 2)`` edge array (src < dst)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        keep = src < self.indices
        return np.stack([src[keep], self.indices[keep]], axis=1)

    def adj_matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for the adjacency matrix, via segment sums."""
        # Segments start only at nodes of degree > 0: ``reduceat`` needs every
        # start below ``2m``, and a degree-0 node at the end starts at ``2m``.
        nz = self.degrees > 0
        out = np.zeros_like(x)
        out[nz] = np.add.reduceat(x[self.indices], self.indptr[:-1][nz])
        return out

    @classmethod
    def from_edges(cls, edges: np.ndarray, n: int | None = None) -> "CSRGraph":
        """Build from a canonical ``(m, 2)`` edge array.

        Raises ``ValueError`` unless the edges form a simple graph on
        ``0..n-1``: a self-loop or a repeated pair would make the degrees,
        ``laplacian_dense`` and ``laplacian_matvec`` disagree.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if n is None:
            n = int(edges.max()) + 1 if len(edges) else 0
        lo, hi = edges.min(axis=1), edges.max(axis=1)
        loop = lo == hi
        keys = lo[~loop] * (int(hi.max(initial=0)) + 1) + hi[~loop]
        dups = len(keys) - len(np.unique(keys))
        bad_ids = np.unique(edges[(edges < 0) | (edges >= n)])
        if loop.any() or dups or len(bad_ids):
            raise ValueError(
                f"edges must form a simple graph on nodes 0..{n - 1}: {int(loop.sum())} self-loop(s), "
                f"{dups} duplicate pair(s) ((u, v) and (v, u) count as one pair), "
                f"{len(bad_ids)} out-of-range id(s) {bad_ids[:5].tolist()}"
            )
        both = np.concatenate([edges, edges[:, ::-1]])
        order = np.lexsort((both[:, 1], both[:, 0]))
        both = both[order]
        counts = np.bincount(both[:, 0], minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(n=n, indptr=indptr, indices=both[:, 1].copy())


def local_bfs_tree(g: CSRGraph, roots: np.ndarray | list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Multi-source BFS tree over the CSR graph.

    Returns ``(parent, depth)`` where ``parent[r] = -1`` for roots and
    ``depth[r] = 0``. Unreachable nodes keep ``parent = -1`` and
    ``depth = -1``; callers operating on a connected graph check full
    coverage.
    """
    roots = np.asarray(roots, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    depth = np.full(g.n, -1, dtype=np.int64)
    depth[roots] = 0
    frontier = roots
    while len(frontier):
        # Vectorized frontier expansion: gather all neighbours, keep unseen.
        reps = g.degrees[frontier]
        total = int(reps.sum())
        if total == 0:
            break
        srcs = np.repeat(frontier, reps)
        starts = g.indptr[frontier]
        # Global offsets into `indices` for every (frontier node, slot) pair.
        cum = np.cumsum(reps) - reps
        offs = np.repeat(starts - cum, reps) + np.arange(total)
        nbrs = g.indices[offs]
        unseen = depth[nbrs] == -1
        nbrs, srcs = nbrs[unseen], srcs[unseen]
        if len(nbrs) == 0:
            break
        # First writer wins within a level.
        uniq, first = np.unique(nbrs, return_index=True)
        parent[uniq] = srcs[first]
        depth[uniq] = depth[srcs[first]] + 1
        frontier = uniq
    return parent, depth


def estimate_diameter(g: CSRGraph) -> int:
    """Double-sweep lower-bound estimate of the diameter ``τ``.

    BFS from a start node, then BFS again from the farthest node found;
    repeated from 4 random starts (seed 0). Exact on trees; a tight lower
    bound in practice on real-world-like graphs — matches how ``τ`` is
    used in Table II (a descriptive graph statistic).
    """
    best = 0
    starts = np.random.default_rng(0).integers(0, g.n, size=4)
    for s in starts:
        _, d1 = local_bfs_tree(g, [int(s)])
        far = int(np.argmax(d1))
        _, d2 = local_bfs_tree(g, [far])
        best = max(best, int(d2.max()))
    return best
