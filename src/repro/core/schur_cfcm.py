"""SCHURCFCM — forest sampling accelerated by the Schur complement (Alg. 4–5).

Forests are rooted at ``S ∪ T`` where ``T`` is a small set of hubs, so
Wilson walks terminate sooner, and ``L_{-S}^{-1}`` is reconstructed from
the block identity (11) with the estimated Schur complement (eq. 15).
That reconstruction is the gain estimator body in
:mod:`repro.core.forest_cfcm`, which FORESTDELTA runs with ``T = ∅``.
SCHURCFCM is FORESTCFCM's greedy loop (:func:`repro.core.forest_cfcm.greedy`)
with ``T`` chosen once per run and ``T \\ S`` as the hub roots of each
iteration.

One sample per root set: iteration ``i`` roots its forests at
``R = S ∪ T``, so a pick inside ``T \\ S`` leaves ``R`` unchanged and the
next iteration would sample the same law. It reads the previous
iteration's forests and JL matrix again instead, with the pick moved from
``T'`` to ``S`` in the read-out, and draws a fresh sample (one Spark job)
only when a pick leaves ``R`` (DESIGN.md §5).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.forest_cfcm import (
    GreedyResult, RootedSample, first_node_scores, greedy, read_out, rooted_sample,
)
from repro.core.params import Params
from repro.graph.csr import CSRGraph

__all__ = ["select_T", "schur_delta", "schur_cfcm"]


def select_T(g: CSRGraph) -> list[int]:
    """Hub root set ``T*`` (Algorithm 5, line 1 + the ``|T*|`` rule of §V-A).

    Repeatedly removes the max-degree node of the remaining graph and
    returns the prefix of size ``|T*| = argmin_i |i − d_max(T_i)|`` (the
    first minimum), where ``d_max(T_i)`` is the max degree after removing
    the first ``i`` hubs. The gap ``i − d_max(T_i)`` strictly increases
    with ``i``, so the argmin is the first ``i`` with a gap ≥ 0 or the
    one before it, and the removals stop there.
    """
    deg = g.degrees.astype(np.int64).copy()
    removed = np.zeros(g.n, dtype=bool)
    order: list[int] = []
    gap = 0
    while True:
        u = int(np.argmax(np.where(removed, -1, deg)))
        removed[u] = True
        deg[u] = 0
        nbrs = g.neighbors(u)
        live = nbrs[~removed[nbrs]]
        np.subtract.at(deg, live, 1)
        order.append(u)
        prev, gap = gap, len(order) - int(deg.max())
        if gap >= 0:
            return order[:-1] if len(order) > 1 and -prev <= gap else order


def schur_delta(
    spark: SparkSession | None, g: CSRGraph, S: list[int], T: list[int], params: Params, *, seed: int,
    sample: RootedSample | None = None,
) -> tuple[np.ndarray, RootedSample]:
    """SCHURDELTA (Algorithm 4): ``(Δ'(u, S) array, the sample read)``.

    Draws forests rooted at ``S ∪ T`` with ``seed`` unless ``sample`` is
    given, in which case ``T`` and ``seed`` are unused. A sample drawn for
    ``S₀`` and ``T₀`` reads out at any ``S₀ ⊆ S ⊆ S₀ ∪ T₀``, bit for bit
    as a fresh draw for ``S`` and ``(S₀ ∪ T₀) \\ S`` with its seed would.
    With ``T = []`` this is FORESTDELTA, bit for bit.
    """
    if sample is None:
        sample = rooted_sample(spark, g, S, T, params, seed=seed)
    return read_out(g, sample, S), sample


def schur_cfcm(
    spark: SparkSession | None, g: CSRGraph, k: int, params: Params | None = None
) -> GreedyResult:
    """SCHURCFCM (Algorithm 5): greedy size-``k`` CFCM with hub root set.

    An iteration whose newest pick is a hub root of the previous
    iteration's sample reads that sample again and records 0 forests.
    """
    params = params or Params()
    T: list[int] = []
    sample: RootedSample | None = None

    def first() -> tuple[np.ndarray, int]:
        T.extend(select_T(g))  # line 1, timed as part of the run
        return first_node_scores(spark, g, params)

    def step(S: list[int], seed: int) -> tuple[np.ndarray, int]:
        nonlocal sample
        fresh = sample is None or S[-1] not in sample.T
        if fresh:
            sample = None  # free the old root set's forests before drawing the next
        delta, sample = schur_delta(spark, g, S, [t for t in T if t not in S], params, seed=seed, sample=sample)
        return delta, sample.stats.n_forests if fresh else 0

    return greedy(g, k, params, first, step)
