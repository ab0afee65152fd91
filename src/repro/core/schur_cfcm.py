"""SCHURCFCM — forest sampling accelerated by the Schur complement (Alg. 4–5).

Forests are rooted at ``S ∪ T`` where ``T`` is a small set of hubs, so
Wilson walks terminate sooner, and ``L_{-S}^{-1}`` is reconstructed from
the block identity (11) with the estimated Schur complement (eq. 15).
That reconstruction is the gain estimator body in
:mod:`repro.core.forest_cfcm`, which FORESTDELTA runs with ``T = ∅``.
SCHURCFCM is FORESTCFCM's greedy loop (:func:`repro.core.forest_cfcm.greedy`)
with ``T`` chosen once per run and ``T \\ S`` as the hub roots of each
iteration.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.forest_cfcm import (
    GreedyResult, _schur_delta, first_node_scores, greedy, schur_complement_from_counts,
)
from repro.core.params import Params
from repro.graph.csr import CSRGraph

__all__ = ["select_T", "schur_complement_from_counts", "schur_delta", "schur_cfcm"]


def select_T(g: CSRGraph, c: int | None = None) -> list[int]:
    """Hub root set ``T`` (Algorithm 5, line 1 + the ``|T*|`` rule of §V-A).

    Repeatedly removes the max-degree node of the remaining graph. With
    ``c`` given, returns the first ``c`` hubs; otherwise returns the
    prefix of size ``|T*| = argmin_{|T|} | |T| − d_max(T) |`` where
    ``d_max(T)`` is the max degree after removing ``T``.
    """
    n = g.n
    limit = c if c is not None else max(4, min(n // 3, 2000))
    deg = g.degrees.astype(np.int64).copy()
    removed = np.zeros(n, dtype=bool)
    order: list[int] = []
    dmax_after: list[int] = []
    for _ in range(min(limit, n - 1)):
        u = int(np.argmax(np.where(removed, -1, deg)))
        removed[u] = True
        deg[u] = 0
        nbrs = g.neighbors(u)
        live = nbrs[~removed[nbrs]]
        np.subtract.at(deg, live, 1)
        order.append(u)
        dmax_after.append(int(deg.max()))
    if c is not None:
        return order[:c]
    sizes = np.arange(1, len(order) + 1)
    best = int(np.argmin(np.abs(sizes - np.asarray(dmax_after))))
    return order[: best + 1]


def schur_delta(
    spark: SparkSession | None, g: CSRGraph, S: list[int], T: list[int], params: Params, *, seed: int
) -> tuple[np.ndarray, int]:
    """SCHURDELTA (Algorithm 4): ``(Δ'(u, S) array, forests sampled)``.

    With ``T = []`` this is FORESTDELTA, bit for bit.
    """
    return _schur_delta(spark, g, S, T, params, seed=seed)


def schur_cfcm(
    spark: SparkSession | None, g: CSRGraph, k: int, params: Params | None = None, *, c: int | None = None
) -> GreedyResult:
    """SCHURCFCM (Algorithm 5): greedy size-``k`` CFCM with hub root set."""
    params = params or Params()
    T: list[int] = []

    def first() -> tuple[np.ndarray, int]:
        T.extend(select_T(g, c))  # line 1, timed as part of the run
        return first_node_scores(spark, g, params)

    def step(S: list[int], seed: int) -> tuple[np.ndarray, int]:
        return schur_delta(spark, g, S, [t for t in T if t not in S], params, seed=seed)

    return greedy(g, k, params, first, step)
