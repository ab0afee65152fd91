"""Per-forest estimator contributions (Algorithms 2–4, telescoped form).

For a BFS tree rooted at the forest's root set with parent map ``p(·)``,
one sampled forest with parent map ``π`` contributes

* ``z_f[u]  = z_f[p(u)]  + 1[π_u = p(u)] − 1[π_{p(u)} = u]`` — whose mean
  over forests is the unbiased estimator ``Φ̄_{u,S}(u)`` of
  ``(L_{-S}^{-1})_{uu}`` (Lemma 3.3);
* ``Y_f[:,u] = Y_f[:,p(u)] + SW[:,u]·1[π_u = p(u)] − SW[:,p(u)]·1[π_{p(u)} = u]``
  — whose mean is ``W·L_{-S}^{-1}`` row estimates ``Φ̄_{w_j,S}(u)``
  (Section III-B; with a row of ones this is ``Φ̄_{1,S}(u)`` of eq. 7);

where ``SW[:, a]`` are W-weighted forest-subtree sums (the counters of
Algorithm 2, lines 9–10). Equivalence with the paper's counter-based
formulation is proved in DESIGN.md §2 and tested against dense inverses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.forest.wilson import forest_depths, sample_forest, subtree_sums_T
from repro.graph.csr import CSRGraph, local_bfs_tree

__all__ = [
    "BFSTree",
    "bfs_tree_for_roots",
    "forest_masks",
    "telescope",
    "chunk_stats",
]


@dataclass(frozen=True)
class BFSTree:
    """BFS tree from a root set, with per-depth level buckets."""

    roots: np.ndarray
    parent: np.ndarray  # -1 at roots
    depth: np.ndarray
    buckets: list[np.ndarray]  # buckets[d] = nodes at BFS depth d


def bfs_tree_for_roots(g: CSRGraph, roots) -> BFSTree:
    roots = np.asarray(sorted(roots), dtype=np.int64)
    parent, depth, buckets = local_bfs_tree(g, roots)
    unreachable = int((depth < 0).sum())
    if unreachable:
        raise ValueError(
            f"{unreachable} of {g.n} nodes are unreachable from the roots; "
            "the graph must be connected (run on the largest connected component)"
        )
    return BFSTree(roots=roots, parent=parent, depth=depth, buckets=buckets)


def forest_masks(parent: np.ndarray, bfs: BFSTree) -> tuple[np.ndarray, np.ndarray]:
    """``(fwd, rev)`` boolean masks over nodes.

    ``fwd[u]``: the forest edge of ``u`` coincides with its BFS edge
    (``π_u = p(u)``); ``rev[u]``: the BFS parent's forest edge points back
    at ``u`` (``π_{p(u)} = u``). Roots are False in both.
    """
    n = len(parent)
    nonroot = bfs.parent >= 0
    safe_p = np.where(nonroot, bfs.parent, 0)
    fwd = nonroot & (parent == bfs.parent)
    rev = nonroot & (parent[safe_p] == np.arange(n))
    return fwd, rev


def telescope(bfs: BFSTree, delta: np.ndarray) -> np.ndarray:
    """Prefix-sum ``phi[u] = phi[p(u)] + delta[u]`` down the BFS tree.

    ``delta``'s first axis indexes nodes (shape ``(n,)`` or ``(n, w)``;
    row gathers are contiguous, which is what makes the per-chunk pass
    cheap at large ``n·w``). Root rows of the result are 0 (grounded
    voltage).
    """
    phi = np.zeros_like(delta, dtype=np.float64)
    for nodes in bfs.buckets[1:]:
        phi[nodes] = phi[bfs.parent[nodes]] + delta[nodes]
    return phi


def chunk_stats(
    g: CSRGraph,
    bfs: BFSTree,
    W_T: np.ndarray | None,
    t_col: np.ndarray | None,
    n_t: int,
    seed: int,
    count: int,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Sample ``count`` forests (one vectorized batch) and sum contributions.

    Returns ``(count, z_sum, z_sq, y_sum_T, root_counts)``; ``y_sum_T``
    is ``(n, w)``. One chunk is the atomic unit of determinism: the same
    ``(seed, count)`` gives the same sums on any executor.
    """
    n = g.n
    # Sequential per-forest walks (rng keyed by (seed, b)): a lockstep
    # batch walker that advances all forests' walks together is no faster
    # on scale-free graphs and suffers straggler blowup on high-diameter
    # graphs, where each per-source round waits for the slowest of the
    # batch's walks.
    forests = [
        sample_forest(g, bfs.roots, np.random.default_rng([seed, b]))
        for b in range(count)
    ]
    parents = np.stack([p for p, _ in forests])
    roots_of = np.stack([r for _, r in forests])
    z_sum = np.zeros(n)
    z_sq = np.zeros(n)
    delta_acc = np.zeros_like(W_T) if W_T is not None else None
    rc = np.zeros((n, n_t)) if n_t else None
    node_ids = np.arange(n)
    for b in range(count):
        parent = parents[b]
        fwd, rev = forest_masks(parent, bfs)
        z_f = telescope(bfs, fwd.astype(np.float64) - rev.astype(np.float64))
        z_sum += z_f
        z_sq += z_f**2
        if delta_acc is not None:
            # Y_f = telescope(delta_f) and telescoping is linear over the
            # shared BFS tree, so accumulate the (sparse) deltas and
            # telescope once per chunk instead of once per forest.
            depth_f = forest_depths(parent)
            SW_T = subtree_sums_T(parent, depth_f, W_T)
            fwd_idx = np.nonzero(fwd)[0]
            rev_idx = np.nonzero(rev)[0]
            delta_acc[fwd_idx] += SW_T[fwd_idx]
            delta_acc[rev_idx] -= SW_T[bfs.parent[rev_idx]]
        if rc is not None:
            cols = t_col[roots_of[b]]
            sel = cols >= 0
            np.add.at(rc, (node_ids[sel], cols[sel]), 1.0)
    y_sum_T = telescope(bfs, delta_acc) if delta_acc is not None else None
    return count, z_sum, z_sq, y_sum_T, rc
