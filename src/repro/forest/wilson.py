"""Uniform rooted spanning forests by vectorized cycle popping (Algorithm 1).

Wilson's algorithm [31] is one order of Propp & Wilson's cycle popping:
give every non-root node a stack of uniform random arrows (one neighbor
each), look at the top arrows, and while they contain a cycle, pop the
arrows of a cycle's nodes. Cycles of the top arrows are disjoint, and
the popped set does not depend on the order, so popping *every* current
cycle at once yields the same uniform forest with root set ``S``.

:func:`sample_forests` does this for a whole batch of forests at once,
on flat ``(forest, node)`` ids:

1. every non-root draws an arrow;
2. pointer doubling to ``f^(2^⌈log₂ m⌉)`` over the ``m`` unresolved
   nodes of a forest tells which nodes reach a root or an already
   resolved node (they are final, and their root comes with the
   doubling) and which lie on cycles (the image of the rest);
3. only the cycle nodes redraw, and the loop repeats on the unresolved
   nodes until none are left.

The paper's Algorithm 1 additionally returns a reverse-DFS order so the
counter updates of Algorithms 2–4 can be done in one pass. We instead
return the parent map and compute depths by vectorized pointer doubling
(:func:`forest_depths`), so the estimators can walk a batch's forests
one depth level at a time, parents before children, over flat
``(forest, node)`` ids (DESIGN.md §2). :func:`subtree_sums_T` is the
bottom-up counterpart; the estimators run it on the BFS tree, not on
forests.
"""
from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "sample_forest",
    "sample_forests",
    "forest_depths",
    "subtree_sums_T",
    "depth_buckets",
]


def sample_forests(
    g: CSRGraph, roots: np.ndarray, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` independent uniform spanning forests rooted at ``roots``.

    Returns ``(parents, roots_of)``, both ``(count, n)``:
    ``parents[b, u]`` is the parent of ``u`` in forest ``b`` (``-1`` for
    roots) and ``roots_of[b, u]`` the root of ``u``'s tree.
    """
    n = g.n
    indptr, indices, deg = g.indptr, g.indices, g.degrees
    roots = np.asarray(roots, dtype=np.int64)
    is_root = np.zeros(n, dtype=bool)
    is_root[roots] = True
    offsets = np.arange(count, dtype=np.int64)[:, None] * n
    parent = np.full(count * n, -1, dtype=np.int64)  # flat ids
    root_of = np.full(count * n, -1, dtype=np.int64)  # node ids
    root_of[(offsets + roots).ravel()] = np.tile(roots, count)
    local = np.full(count * n, -1, dtype=np.int64)  # flat id -> index in todo
    todo = (offsets + np.flatnonzero(~is_root)).ravel()  # unresolved, ascending
    draw = todo  # nodes whose arrow is (re)drawn this round
    while len(todo):
        node = draw % n
        pick = (rng.random(len(draw)) * deg[node]).astype(np.int64)
        parent[draw] = draw - node + indices[indptr[node] + pick]
        m = len(todo)
        local[todo] = np.arange(m)
        # ptr = f^(2^j) over todo's indices 0..m-1, plus one fixed point
        # m + r per root node r, where a step into a resolved node lands.
        nxt = parent[todo]
        ptr = np.concatenate([local[nxt], np.arange(m, m + n)])
        into = ptr[:m] < 0
        ptr[:m][into] = m + root_of[nxt[into]]
        # A chain visits at most a forest's unresolved nodes before it
        # lands in a root slot or cycles, so after 2^⌈log₂ longest⌉ steps
        # every unresolved chain ends on its cycle, and the ends are the
        # cycle nodes.
        longest = int(np.bincount(todo // n, minlength=count).max())
        for _ in range((longest - 1).bit_length()):
            ptr = ptr[ptr]
        end = ptr[:m]
        done = end >= m
        root_of[todo[done]] = end[done] - m
        local[todo] = -1
        on_cycle = np.zeros(m, dtype=bool)
        on_cycle[end[~done]] = True
        draw = todo[on_cycle]
        todo = todo[~done]
    parents = np.where(parent >= 0, parent - offsets.repeat(n), -1).reshape(count, n)
    return parents, root_of.reshape(count, n)


def sample_forest(
    g: CSRGraph, roots: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One forest: ``sample_forests(g, roots, rng, 1)[0]`` as ``(parent, root_of)``."""
    parents, roots_of = sample_forests(g, roots, rng, 1)
    return parents[0], roots_of[0]


def forest_depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every node in its tree, by pointer doubling (O(log depth) passes).

    Raises ``ValueError`` if some node's parent chain never reaches a root
    (the map has a cycle).
    """
    n = len(parent)
    is_root = parent < 0
    depth = (~is_root).astype(np.int64)
    ptr = np.where(is_root, np.arange(n, dtype=np.int64), parent)
    # A chain has at most n - 1 edges: ⌈log₂ n⌉ passes reach every root,
    # and one more pass sees the depths stop changing.
    for _ in range((n - 1).bit_length() + 1):
        new_depth = depth + depth[ptr]
        if np.array_equal(new_depth, depth):
            return depth
        depth = new_depth
        ptr = ptr[ptr]
    raise ValueError(
        f"{int((~is_root[ptr]).sum())} of {n} nodes never reach a root; "
        "the parent map has a cycle"
    )


def depth_buckets(depth: np.ndarray) -> list[np.ndarray]:
    """``buckets[d]`` = nodes at depth ``d`` (ascending ids), for level passes."""
    maxd = int(depth.max()) if len(depth) else 0
    # A stable sort keeps equal depths in ascending id order; on the
    # smallest dtype that holds them, numpy radix-sorts 8- and 16-bit keys.
    order = np.argsort(depth.astype(np.min_scalar_type(maxd)), kind="stable")
    sorted_d = depth[order]
    bounds = np.searchsorted(sorted_d, np.arange(maxd + 2))
    return [order[bounds[d] : bounds[d + 1]] for d in range(maxd + 1)]


def subtree_sums_T(parent: np.ndarray, depth: np.ndarray, X_T: np.ndarray) -> np.ndarray:
    """Row-major subtree aggregates ``S[a, :] = Σ_{v ∈ subtree(a)} X_T[v, :]``.

    ``X_T`` has shape ``(n, w)``; processes depth levels bottom-up with a
    per-parent segment reduce so siblings sharing a parent accumulate
    correctly. The sampling call runs it once on the BFS tree (3–5
    levels on BA graphs), for the weights ``BW`` that each forest path
    then sums (DESIGN.md §2); any forest of parent pointers works.
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
        new_par = np.empty(len(par_sorted), dtype=bool)
        new_par[0] = True
        np.not_equal(par_sorted[1:], par_sorted[:-1], out=new_par[1:])
        starts = np.flatnonzero(new_par)
        sums = np.add.reduceat(ST[nodes[order]], starts, axis=0)
        ST[par_sorted[starts]] += sums
    return ST
