"""APPROXGREEDY — the state-of-the-art baseline of Li et al. [29].

Marginal gains are estimated with JL projections whose rows are obtained
by solving Laplacian systems (here: Jacobi-CG, see ``repro.linalg.cg``
for the substitution rationale):

* ``(L_{-S}^{-1})_uu  ≈ Σ_j (q_jᵀ B_{-S} L_{-S}^{-1} e_u)²`` using
  ``L_{-S} = B_{-S}ᵀ B_{-S}`` (B = edge-node incidence matrix);
* ``(L_{-S}^{-2})_uu  ≈ Σ_j (p_jᵀ L_{-S}^{-1} e_u)²``;

i.e. ``2w`` linear systems per greedy iteration — the ``Õ(k ε⁻³ m)``
regime whose ``m``-dominated cost Table II exhibits. The ``w`` solves are
fanned out over Spark tasks against the broadcast CSR graph, one Spark job
per iteration. The greedy loop and the ``Δ'`` read-out are FORESTCFCM's
(``greedy`` and ``floored_gains`` in :mod:`repro.core.forest_cfcm`).
"""
from __future__ import annotations

import functools

import numpy as np
from pyspark.sql import SparkSession

from repro.core.forest_cfcm import GreedyResult, floored_gains, greedy
from repro.core.params import Params
from repro.fanout import fan_out
from repro.graph.csr import CSRGraph
from repro.linalg.cg import solve_pinv, solve_submatrix

__all__ = ["approx_greedy", "jl_diag_estimates"]


def _incidence_transpose_apply(edges: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """``Bᵀ q`` for the canonical-orientation incidence matrix (m → n)."""
    out = np.zeros(n)
    np.add.at(out, edges[:, 0], q)
    np.subtract.at(out, edges[:, 1], q)
    return out


def _task_solve(g: CSRGraph, pair, S, tol):
    """Both systems of one JL row; ``S is None`` means ``L†`` (first iteration)."""
    solve = solve_pinv if S is None else functools.partial(solve_submatrix, S=S)
    return tuple(None if b is None else solve(g, b, tol=tol) for b in pair)


def jl_diag_estimates(
    spark: SparkSession | None,
    g: CSRGraph,
    S: list[int] | None,
    params: Params,
    *,
    seed: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(diag(L_{-S}^{-2}) est, diag(L_{-S}^{-1}) est)`` — or ``(diag L†, None)``.

    With ``S is None`` returns the first-iteration ``diag(L†)`` estimate
    (numerator-style projection through the incidence matrix only).
    """
    n = g.n
    edges = g.edge_array()
    m = len(edges)
    w = params.jl_width(n)
    rng = np.random.default_rng(seed)
    rhs_pairs = []
    for _ in range(w):
        q = rng.choice(np.array([-1.0, 1.0]), size=m) / np.sqrt(w)
        b_den = _incidence_transpose_apply(edges, q, n)  # (Bᵀq) — diag(L^{-1}) probe
        if S is None:
            rhs_pairs.append((b_den, None))
        else:
            p = rng.choice(np.array([-1.0, 1.0]), size=n) / np.sqrt(w)
            p[np.asarray(S, dtype=np.int64)] = 0.0
            rhs_pairs.append((p, b_den))
    sols = fan_out(spark, g, rhs_pairs, lambda g, p: _task_solve(g, p, S, params.cg_tol))
    if S is None:
        Y = np.stack([y for y, _ in sols])  # rows q_jᵀ B L†
        return np.einsum("ij,ij->j", Y, Y), None
    Y_num = np.stack([y for y, _ in sols])  # rows p_jᵀ L_{-S}^{-1}
    Y_den = np.stack([y for _, y in sols])  # rows q_jᵀ B_{-S} L_{-S}^{-1}
    return (
        np.einsum("ij,ij->j", Y_num, Y_num),
        np.einsum("ij,ij->j", Y_den, Y_den),
    )


def approx_greedy(
    spark: SparkSession | None, g: CSRGraph, k: int, params: Params | None = None
) -> GreedyResult:
    """APPROXGREEDY: greedy CFCM with JL + Laplacian-solver gain estimates."""
    params = params or Params()

    def first() -> tuple[np.ndarray, int]:
        diag_pinv, _ = jl_diag_estimates(spark, g, None, params, seed=params.seed)
        return diag_pinv, 0

    def step(S: list[int], seed: int) -> tuple[np.ndarray, int]:
        num, den = jl_diag_estimates(spark, g, S, params, seed=seed)
        return floored_gains(g, S, num, den), 0

    return greedy(g, k, params, first, step)
