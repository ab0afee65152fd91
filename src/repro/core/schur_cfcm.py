"""SCHURCFCM — forest sampling accelerated by the Schur complement (Alg. 4–5).

Forests are rooted at ``S ∪ T`` where ``T`` is a small set of hubs, so
Wilson walks terminate sooner. ``L_{-S}^{-1}`` is reconstructed from the
block identity (11):

```
(L_{-S}^{-1})_uu = (L_UU^{-1})_uu + (F S̃⁻¹ Fᵀ)_uu        u ∈ U
(L_{-S}^{-1})_tt = (S̃⁻¹)_tt                               t ∈ T
[W Q] L_{-S}^{-1} = [W L_UU^{-1} + M S̃⁻¹ Fᵀ  |  M S̃⁻¹],  M = W F + Q
```

with ``F̃`` the forest-absorption probabilities (Lemma 4.2) and
``S̃ = S̃_T(L_{-S}) = L_TT + L_TU F̃`` the estimated Schur complement
(eq. 15), whose small ``|T|×|T|`` inverse is taken densely on the driver.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from repro.core.forest_cfcm import GreedyResult, first_node_scores, forest_delta
from repro.core.params import Params
from repro.forest.distributed import adaptive_forest_stats
from repro.graph.csr import CSRGraph
from repro.linalg.jl import rademacher_matrix

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


def schur_complement_from_counts(
    g: CSRGraph, T_ids: np.ndarray, F_hat: np.ndarray, roots_mask: np.ndarray
) -> np.ndarray:
    """``S̃_T(L_{-S}) = L_TT + L_TU F̃`` via eq. (15), from absorption counts.

    ``F_hat`` is ``(n, |T|)`` with nonzero rows only at ``U``;
    ``roots_mask`` marks ``S ∪ T``.
    """
    t = len(T_ids)
    S_tilde = np.zeros((t, t))
    # L_TT: full degrees on the diagonal, −1 for intra-T edges.
    S_tilde[np.arange(t), np.arange(t)] = g.degrees[T_ids].astype(np.float64)
    pos = {int(v): i for i, v in enumerate(T_ids)}
    for i, ti in enumerate(T_ids):
        nbrs = g.neighbors(int(ti))
        for v in nbrs:
            j = pos.get(int(v))
            if j is not None:
                S_tilde[i, j] -= 1.0
        u_nbrs = nbrs[~roots_mask[nbrs]]
        if len(u_nbrs):
            S_tilde[i, :] -= F_hat[u_nbrs, :].sum(axis=0)
    # Sampling noise can break symmetry / definiteness marginally.
    S_tilde = 0.5 * (S_tilde + S_tilde.T)
    S_tilde[np.arange(t), np.arange(t)] += 1e-10 * max(np.trace(S_tilde), 1.0)
    return S_tilde


def schur_delta(
    spark: SparkSession | None,
    g: CSRGraph,
    S: list[int],
    T: list[int],
    params: Params,
    *,
    seed: int,
) -> tuple[np.ndarray, int]:
    """SCHURDELTA (Algorithm 4): ``(Δ'(u, S) array, forests sampled)``."""
    if not T:
        return forest_delta(spark, g, S, params, seed=seed)
    n = g.n
    S_arr = np.asarray(sorted(S), dtype=np.int64)
    T_ids = np.asarray(sorted(T), dtype=np.int64)
    roots = np.concatenate([S_arr, T_ids])
    roots_mask = np.zeros(n, dtype=bool)
    roots_mask[roots] = True

    rng = np.random.default_rng(seed)
    w = params.jl_width(n)
    # [W | Q] spans V \ S; W rows weight U sources during sampling, Q is
    # the projection's T block (Algorithm 4 line 4).
    WQ = rademacher_matrix(w, n, rng=rng)
    WQ[:, S_arr] = 0.0
    W_u = WQ.copy()
    W_u[:, T_ids] = 0.0

    stats, _ = adaptive_forest_stats(
        spark,
        g,
        roots,
        W_u,
        params.eps,
        t_nodes=[int(t) for t in T_ids],
        seed=seed,
        config=params.sample,
    )
    F_hat = stats.f_hat  # (n, |T|), rows nonzero only on U
    S_tilde = schur_complement_from_counts(g, T_ids, F_hat, roots_mask)
    S_inv = np.linalg.inv(S_tilde)

    M = W_u @ F_hat + WQ[:, T_ids]  # (w, |T|)
    MS = M @ S_inv
    # Denominators (block-diagonal of L_{-S}^{-1}); diag(F S⁻¹ Fᵀ) via BLAS.
    z = stats.z + ((F_hat @ S_inv) * F_hat).sum(axis=1)
    z[T_ids] = np.diag(S_inv)
    # Numerator rows [W Q] L_{-S}^{-1}.
    Y = stats.y + MS @ F_hat.T
    Y[:, T_ids] = MS
    Y[:, S_arr] = 0.0

    num = np.einsum("ij,ij->j", Y, Y)
    den = np.maximum(z, 1.0 / np.maximum(g.degrees, 1))
    delta = num / den
    delta[S_arr] = -np.inf
    return delta, stats.n_forests


def schur_cfcm(
    spark: SparkSession | None,
    g: CSRGraph,
    k: int,
    params: Params | None = None,
    *,
    c: int | None = None,
) -> GreedyResult:
    """SCHURCFCM (Algorithm 5): greedy size-``k`` CFCM with hub root set."""
    params = params or Params()
    if not 1 <= k < g.n:
        raise ValueError("need 1 <= k < n")
    t0 = time.perf_counter()
    T = select_T(g, c)
    x, stats0 = first_node_scores(spark, g, params)
    S = [int(np.argmin(x))]
    forests = [stats0.n_forests]
    for i in range(1, k):
        T_rem = [t for t in T if t not in S]
        delta, n_f = schur_delta(spark, g, S, T_rem, params, seed=params.seed + 1000 * i)
        S.append(int(np.argmax(delta)))
        forests.append(n_f)
    return GreedyResult(S=S, seconds=time.perf_counter() - t0, forests_per_iter=forests)
