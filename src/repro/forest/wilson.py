"""Wilson's algorithm for uniform rooted spanning forests (Algorithm 1).

The sampler is the cycle-popping formulation of Wilson's loop-erased
random walk [31]: walk from each unvisited source, overwriting the
tentative parent pointer at every visit; when the walk hits the forest,
retracing the parent pointers from the source yields exactly the
loop-erased path. The distribution over rooted forests with root set
``S`` is uniform and independent of the source order.

The paper's Algorithm 1 additionally returns a reverse-DFS order so the
counter updates of Algorithms 2–4 can be done in one pass. We instead
return the parent map and compute depths by vectorized pointer doubling
(:func:`forest_depths`), which gives the same parent-after-child
processing discipline as per-depth-level numpy passes
(:func:`subtree_sums_T`) — equivalent output, vectorized (DESIGN.md §2).
"""
from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "sample_forest",
    "forest_depths",
    "subtree_sums_T",
    "depth_buckets",
]

_RAND_BLOCK = 8192


class _BlockRand:
    """Blocked uniform reals: amortizes numpy RNG call overhead in the walk loop."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._buf = rng.random(_RAND_BLOCK)
        self._i = 0

    def next(self) -> float:
        if self._i >= _RAND_BLOCK:
            self._buf = self._rng.random(_RAND_BLOCK)
            self._i = 0
        v = self._buf[self._i]
        self._i += 1
        return v


def sample_forest(
    g: CSRGraph, roots: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one uniform spanning forest rooted at ``roots``.

    Returns ``(parent, root_of)``: ``parent[u]`` is the forest parent of
    ``u`` (``-1`` for roots), ``root_of[u]`` the root of ``u``'s tree.
    """
    n = g.n
    indptr, indices, deg = g.indptr, g.indices, g.degrees
    parent = np.full(n, -1, dtype=np.int64)
    root_of = np.full(n, -1, dtype=np.int64)
    in_forest = np.zeros(n, dtype=bool)
    in_forest[roots] = True
    root_of[roots] = roots
    rand = _BlockRand(rng)

    for u in range(n):
        if in_forest[u]:
            continue
        # Phase 1: random walk with cycle popping (parent overwrite).
        i = u
        while not in_forest[i]:
            j = indices[indptr[i] + int(rand.next() * deg[i])]
            parent[i] = j
            i = j
        r = root_of[i]
        # Phase 2: freeze the loop-erased path from u.
        i = u
        while not in_forest[i]:
            in_forest[i] = True
            root_of[i] = r
            i = parent[i]
    return parent, root_of


def forest_depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every node in its tree, by pointer doubling (O(log depth) passes)."""
    n = len(parent)
    is_root = parent < 0
    depth = (~is_root).astype(np.int64)
    ptr = np.where(is_root, np.arange(n, dtype=np.int64), parent)
    while True:
        new_depth = depth + depth[ptr]
        if np.array_equal(new_depth, depth):
            return depth
        depth = new_depth
        ptr = ptr[ptr]


def depth_buckets(depth: np.ndarray) -> list[np.ndarray]:
    """``buckets[d]`` = nodes at depth ``d`` (ascending ids), for level passes."""
    order = np.argsort(depth, kind="stable")
    sorted_d = depth[order]
    out: list[np.ndarray] = []
    maxd = int(depth.max()) if len(depth) else 0
    bounds = np.searchsorted(sorted_d, np.arange(maxd + 2))
    for d in range(maxd + 1):
        out.append(np.sort(order[bounds[d] : bounds[d + 1]]))
    return out


def subtree_sums_T(parent: np.ndarray, depth: np.ndarray, X_T: np.ndarray) -> np.ndarray:
    """Row-major subtree aggregates ``S[a, :] = Σ_{v ∈ subtree(a)} X_T[v, :]``.

    ``X_T`` has shape ``(n, w)``; processes depth levels bottom-up with a
    per-parent segment reduce so siblings sharing a parent accumulate
    correctly. These are the quantities
    ``Σ_v W_{jv} Ñ_{v,S}^{a→π_a}`` of Algorithm 2 line 9 for one forest.
    """
    ST = X_T.copy()
    maxd = int(depth.max()) if len(depth) else 0
    buckets = depth_buckets(depth)
    for d in range(maxd, 0, -1):
        nodes = buckets[d]
        if not len(nodes):
            continue
        # Group level nodes by parent and segment-reduce: equivalent to
        # np.add.at(ST, parent[nodes], ST[nodes]) but ~5× faster (buffered
        # reduceat instead of the unbuffered element-wise add.at loop).
        par = parent[nodes]
        order = np.argsort(par, kind="stable")
        par_sorted = par[order]
        uniq, starts = np.unique(par_sorted, return_index=True)
        sums = np.add.reduceat(ST[nodes[order]], starts, axis=0)
        ST[uniq] += sums
    return ST
