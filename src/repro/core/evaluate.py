"""CFCC evaluation of candidate groups.

Small graphs use the dense ground truth; larger graphs use a
Hutchinson trace estimator over CG solves (the paper likewise switches
to the conjugate-gradient method for large-graph effectiveness checks,
Section V-B2). The Hutchinson probes are distributed over Spark tasks.

Evaluation is paired: :func:`cfcc_of_set` always draws 64 probes with
seed 0, so all groups scored on a graph see the same probe draws, each
zeroed on its own group. Differences between algorithms' groups are then not
independent probe noise (``tests/test_heuristics_evaluate.py`` pins this).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.fanout import fan_out
from repro.graph.csr import CSRGraph
from repro.linalg.cg import solve_submatrix
from repro.linalg.laplacian import cfcc_group, laplacian_dense

__all__ = ["cfcc_of_set", "cfcc_dense", "cfcc_hutchinson", "relative_difference"]

_DENSE_LIMIT = 3000


def cfcc_dense(g: CSRGraph, S) -> float:
    """Exact ``C(S)`` via the dense inverse (small graphs)."""
    return cfcc_group(laplacian_dense(g), list(S))


def cfcc_hutchinson(
    spark: SparkSession | None, g: CSRGraph, S, *, n_probes: int = 64, seed: int = 0
) -> float:
    """``C(S) = n / Tr(L_{-S}^{-1})`` with Hutchinson + CG trace estimation."""
    S = list(S)
    mask = np.zeros(g.n, dtype=bool)
    mask[np.asarray(S, dtype=np.int64)] = True
    rng = np.random.default_rng(seed)
    probes = [np.where(mask, 0.0, rng.choice(np.array([-1.0, 1.0]), size=g.n)) for _ in range(n_probes)]

    vals = fan_out(spark, g, probes, lambda g, q: float(q @ solve_submatrix(g, q, S, tol=1e-7)))
    return g.n / float(np.mean(vals))


def cfcc_of_set(spark: SparkSession | None, g: CSRGraph, S) -> float:
    """Dense below ``_DENSE_LIMIT`` nodes, Hutchinson+CG (64 probes, seed 0) above."""
    if g.n <= _DENSE_LIMIT:
        return cfcc_dense(g, S)
    return cfcc_hutchinson(spark, g, S)


def relative_difference(c_algo: float, c_ref: float) -> float:
    """``(C_ref − C_algo) / C_ref`` — the Fig. 5 metric (vs EXACT)."""
    return (c_ref - c_algo) / c_ref
