"""Uniform rooted spanning forests by Wilson's walk (Algorithm 1), in C.

Wilson's algorithm [31] grows a forest from the root set ``S``: from
each node not yet in it (in id order), walk to uniform random neighbors
until the walk hits the forest, erase the loops the walk closed, and add
the remaining path. The result is a uniform spanning forest rooted at
``S``, and the work is the number of arrows drawn.

:func:`sample_forests` runs the walk for a batch of forests in
``_wilson.c``, about 30 lines that this module compiles with
``cc -O2 -shared -fPIC`` into ``__pycache__/_wilson.<source hash>.so``
(a temporary file renamed into place, so concurrent Spark workers may
race to build it) and loads with :mod:`ctypes`. This happens at import,
once per source version: a missing compiler fails there, and no
sampling call pays the compile. The kernel draws its uniforms from the
caller's numpy ``Generator`` through the bit generator's C interface,
so one ``default_rng(seed)`` fixes a chunk of forests on any executor.
A C compiler is therefore required; there is no numpy fallback.

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

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "sample_forest",
    "sample_forests",
    "forest_depths",
    "subtree_sums_T",
    "depth_buckets",
]

_SOURCE = Path(__file__).with_name("_wilson.c")


def _build(out_dir: Path) -> Path:
    """Path of the compiled kernel in ``out_dir``, compiling it if it is not there yet."""
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    lib = out_dir / f"_wilson.{digest}.so"
    if lib.exists():
        return lib
    cc = shutil.which("cc")
    if cc is None:
        raise RuntimeError(
            f"repro.forest.wilson needs a C compiler to build {_SOURCE.name}: "
            "no `cc` on PATH"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_wilson.", suffix=".tmp", dir=out_dir)
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, str(_SOURCE)],
            capture_output=True,
            text=True,
        )
        if done.returncode:
            raise RuntimeError(f"`cc` failed to build {_SOURCE.name}:\n{done.stderr}")
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


_i64p = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_kernel = ctypes.CDLL(str(_build(_SOURCE.parent / "__pycache__"))).wilson_forests
_kernel.restype = None
_kernel.argtypes = [
    ctypes.c_int64, _i64p, _i64p, _i64p, ctypes.c_int64, ctypes.c_int64,
    ctypes.c_void_p, ctypes.c_void_p, _i64p, _i64p,
]


def sample_forests(
    g: CSRGraph, roots: np.ndarray, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` independent uniform spanning forests rooted at ``roots``.

    Returns ``(parents, roots_of)``, both ``(count, n)``:
    ``parents[b, u]`` is the parent of ``u`` in forest ``b`` (``-1`` for
    roots) and ``roots_of[b, u]`` the root of ``u``'s tree.

    Every node must reach a root (the graph's components each hold one);
    otherwise the walk never ends. ``bfs_tree_for_roots`` checks this for
    every program caller. Raises ``ValueError`` for an empty root set or
    a root id outside ``[0, n)``.
    """
    n = g.n
    roots = np.ascontiguousarray(roots, dtype=np.int64)
    if not len(roots):
        raise ValueError("the root set is empty; Wilson's walk needs at least one root")
    if roots.min() < 0 or roots.max() >= n:
        raise ValueError(f"root ids must lie in [0, {n}); got {roots.min()}..{roots.max()}")
    parents = np.empty((count, n), dtype=np.int64)
    roots_of = np.empty((count, n), dtype=np.int64)
    bitgen = rng.bit_generator
    with bitgen.lock:
        iface = bitgen.ctypes
        _kernel(
            n, g.indptr, g.indices, roots, len(roots), count,
            ctypes.cast(iface.next_double, ctypes.c_void_p), iface.state_address,
            parents, roots_of,
        )
    return parents, roots_of


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
