"""Uniform rooted spanning forests by Wilson's walk (Algorithm 1), in C.

Wilson's algorithm [31] grows a forest from the root set ``S``: from
each node not yet in it (in id order), walk to uniform random neighbors
until the walk hits the forest, erase the loops the walk closed, and add
the remaining path. The result is a uniform spanning forest rooted at
``S``, and the work is the number of arrows drawn.

:func:`sample_forests` runs the walk for a batch of forests in
``_wilson.c``, a few dozen lines that this module compiles with
``cc -O2 -shared -fPIC`` into ``__pycache__/_wilson.<source hash>.so``
(a temporary file renamed into place, so concurrent Spark workers may
race to build it) and loads with :mod:`ctypes`. This happens at import,
once per source version: a missing compiler fails there, and no
sampling call pays the compile. The kernel draws its uniforms from the
caller's numpy ``Generator`` through the bit generator's C interface,
so one ``default_rng(seed)`` fixes a chunk of forests on any executor.
A C compiler is therefore required; there is no numpy fallback.

The paper's Algorithm 1 additionally returns a node order so the
counter updates of Algorithms 2–4 can be done in one pass down each
tree. We return the parent map instead, and the same library's second
function, :func:`tree_sums`, lays out a parents-first order from it and
sums rows down the paths to the roots or up the subtrees in one pass.
Each parent-map walk of the estimators is one such call: the ``ẑ``
telescope and the ``Ŷ`` path sums over a chunk's flat ``(forest, node)``
ids are down-sums, and :func:`subtree_sums_T`, which they run on the
BFS tree, is an up-sum (DESIGN.md §2). :func:`forest_depths` is the
down-sum of the non-root indicator.
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
    "tree_sums",
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
_lib = ctypes.CDLL(str(_build(_SOURCE.parent / "__pycache__")))
_kernel = _lib.wilson_forests
_kernel.restype = None
_kernel.argtypes = [
    ctypes.c_int64, _i64p, _i64p, _i64p, ctypes.c_int64, ctypes.c_int64,
    ctypes.c_void_p, ctypes.c_void_p, _i64p, _i64p,
]
_tree_sums = _lib.tree_sums
_tree_sums.restype = ctypes.c_int64
_tree_sums.argtypes = [
    ctypes.c_int64, ctypes.c_int64, _i64p, ctypes.c_int,
    np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE"), _i64p,
    np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS"),
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


def tree_sums(parent: np.ndarray, X: np.ndarray, up: bool = False) -> np.ndarray:
    """Sum the rows of ``X`` along the forest ``parent`` in place; returns ``X``.

    ``parent`` maps each of the ``n`` nodes to its parent (``-1`` at
    roots), and ``X``'s first axis indexes the nodes. Down (the default),
    row ``v`` becomes the sum of the rows on ``v``'s path to its root; up,
    the sum of the rows of ``v``'s subtree. One pass of ``tree_sums`` in
    ``_wilson.c`` lays out a parents-first order and adds each row to its
    child's (down) or its parent's (up) along it.

    Raises ``ValueError``, leaving ``X`` unchanged, if ``parent`` is not
    1-D or has an id outside ``[-1, n)``, ``X`` has other than ``n`` rows
    or is not a writable C-contiguous float64 array, or some node's
    parent chain never reaches a root (the map has a cycle).
    """
    parent = np.ascontiguousarray(parent, dtype=np.int64)
    if parent.ndim != 1:
        raise ValueError(f"parent must be one map of node ids; got shape {parent.shape}")
    n = len(parent)
    if X.shape[:1] != (n,):
        raise ValueError(f"X of shape {X.shape} does not have one row per node of {n}")
    if X.dtype != np.float64 or not (X.flags.c_contiguous and X.flags.writeable):
        raise ValueError("X must be a writable C-contiguous float64 array; it is summed in place")
    if n and not -1 <= parent.min() <= parent.max() < n:
        raise ValueError(f"parent ids must lie in [-1, {n}); got {parent.min()}..{parent.max()}")
    bad = _tree_sums(n, X.size // max(n, 1), parent, up, X, np.empty(n, np.int64), np.zeros(n, np.int8))
    if bad:
        raise ValueError(f"{bad} of {n} nodes never reach a root; the parent map has a cycle")
    return X


def forest_depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every node in its tree: the down-sum of the non-root indicator.

    Raises ``ValueError`` as :func:`tree_sums` does, e.g. if some node's
    parent chain never reaches a root (the map has a cycle).
    """
    parent = np.asarray(parent)
    return tree_sums(parent, (parent >= 0).astype(np.float64)).astype(np.int64)


def subtree_sums_T(parent: np.ndarray, depth: np.ndarray, X_T: np.ndarray) -> np.ndarray:
    """Row-major subtree aggregates ``S[a, :] = Σ_{v ∈ subtree(a)} X_T[v, :]``.

    ``X_T`` has shape ``(n, w)`` and is not modified: this is the up-sum
    of :func:`tree_sums` on a copy. ``depth`` is unused; callers that
    have the forest's depths pass them. The sampling call runs it once on
    the BFS tree, for the weights ``BW`` that each forest path then sums
    (DESIGN.md §2); any forest of parent pointers works.
    """
    return tree_sums(parent, np.array(X_T, dtype=np.float64, order="C"), up=True)
