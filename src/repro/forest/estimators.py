"""Per-forest estimator contributions (Algorithms 2–4, telescoped form).

For a BFS tree rooted at the forest's root set with parent map ``p(·)``,
one sampled forest with parent map ``π`` contributes

* ``z_f[u]  = z_f[p(u)]  + 1[π_u = p(u)] − 1[π_{p(u)} = u]`` — whose mean
  over forests is the unbiased estimator ``Φ̄_{u,S}(u)`` of
  ``(L_{-S}^{-1})_{uu}`` (Lemma 3.3), telescoped down the BFS tree;
* ``Y_f[:,u] = Y_f[:,π_u] + BW[:,u]·1[π_u = p(u)] − BW[:,π_u]·1[p(π_u) = u]``
  — whose mean is ``W·L_{-S}^{-1}`` row estimates ``Φ̄_{w_j,S}(u)``
  (Section III-B; with a row of ones this is ``Φ̄_{1,S}(u)`` of eq. 7),
  summed down ``u``'s own forest path;

where ``BW[:, a] = Σ_{v ∈ BFS-subtree(a)} W[:, v]`` is one subtree pass
over the BFS tree. Both are unbiased by Kirchhoff's theorem for forest
paths and the symmetry of ``L_{-S}^{-1}`` (DESIGN.md §2), and are tested
against dense inverses. :func:`chunk_stats` evaluates them for a whole
chunk of forests at once, with no per-forest Python loop.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.forest.wilson import depth_buckets, forest_depths, sample_forests, subtree_sums_T
from repro.graph.csr import CSRGraph, local_bfs_tree

__all__ = [
    "BFSTree",
    "bfs_tree_for_roots",
    "forest_masks",
    "telescope",
    "forest_path_sums",
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
    """``(fwd, rev)`` boolean masks over nodes, shaped like ``parent``.

    ``parent`` is one forest's ``(n,)`` parent map or a ``(count, n)``
    batch. ``fwd[u]``: the forest edge of ``u`` coincides with its BFS
    edge (``π_u = p(u)``); ``rev[u]``: the BFS parent's forest edge
    points back at ``u`` (``π_{p(u)} = u``). Roots are False in both.
    """
    n = parent.shape[-1]
    nonroot = bfs.parent >= 0
    safe_p = np.where(nonroot, bfs.parent, 0)
    fwd = nonroot & (parent == bfs.parent)
    rev = nonroot & (parent[..., safe_p] == np.arange(n))
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


def forest_path_sums(bfs: BFSTree, W_T: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """``Σ_f Ŷ_f`` as ``(n, w)`` over the forests of ``parents`` (``(count, n)``).

    The forests must be rooted at ``bfs.roots``.

    Each forest's ``Ŷ_f[:, u]`` sums, down ``u``'s own forest path, the
    BFS-subtree sum ``BW`` of every BFS edge the path uses, signed by
    direction (DESIGN.md §2). ``BW`` is one subtree pass over the BFS
    tree; the path sums are one gather-add per forest level over flat
    ``(forest, node)`` ids.
    """
    count, n = parents.shape
    BW_T = subtree_sums_T(bfs.parent, bfs.depth, W_T)
    nodes = np.arange(n)
    nonroot = parents >= 0
    safe = np.where(nonroot, parents, 0)
    # Forest edge u → π_u is BFS edge u → p(u) (row u of [BW; −BW; 0]),
    # its reverse (row n + π_u) or no BFS edge (the zero row 2n).
    up = nonroot & (parents == bfs.parent)
    down = nonroot & (bfs.parent[safe] == nodes)
    edge = np.where(up, nodes, np.where(down, n + safe, 2 * n)).ravel()
    Y = np.vstack([BW_T, -BW_T, np.zeros((1, BW_T.shape[1]))]).take(edge, axis=0)
    flat_parent = np.where(nonroot, safe + np.arange(count)[:, None] * n, -1).ravel()
    # Roots add nothing, so each level adds its parents' finished sums.
    for level in depth_buckets(forest_depths(flat_parent))[1:]:
        Y[level] = Y.take(level, axis=0) + Y.take(flat_parent[level], axis=0)
    return Y.reshape(count, n, -1).sum(axis=0)


def chunk_stats(
    g: CSRGraph,
    bfs: BFSTree,
    W_T: np.ndarray | None,
    t_col: np.ndarray | None,
    n_t: int,
    seed: int,
    count: int,
) -> tuple[int, np.ndarray, np.ndarray | None, np.ndarray]:
    """Sample ``count`` forests (one vectorized batch) and sum contributions.

    The forests come from one ``np.random.default_rng(seed)`` stream.

    Returns ``(count, z_sum, y_sum_T, root_counts)``; ``y_sum_T``
    is ``(n, w)`` and ``root_counts`` is ``(n, n_t)`` (``t_col`` may be
    None when ``n_t`` is 0). One chunk is the atomic unit of determinism:
    the same ``(seed, count)`` gives the same sums on any executor.
    """
    n = g.n
    # One batch for the whole chunk: the sampler pops the cycles of all
    # ``count`` forests together, and every pass below runs once per
    # chunk over ``(count, n)`` arrays or flat ``(forest, node)`` ids.
    parents, roots_of = sample_forests(g, bfs.roots, np.random.default_rng(seed), count)
    fwd, rev = forest_masks(parents, bfs)
    z = telescope(bfs, np.ascontiguousarray((fwd.astype(np.float64) - rev).T))
    z_sum = z.sum(axis=1)
    y_sum_T = None if W_T is None else forest_path_sums(bfs, W_T, parents)
    rc = np.zeros((n, n_t))
    if n_t:
        cols = t_col[roots_of]
        cells = (np.arange(n) * n_t + cols)[cols >= 0]
        rc = np.bincount(cells, minlength=n * n_t).reshape(n, n_t).astype(np.float64)
    return count, z_sum, y_sum_T, rc
