"""FORESTCFCM (Algorithm 3), the shared gain estimator and the greedy loop.

First iteration: root the forests at the maximum-degree node ``s`` and
estimate ``L†_uu`` up to the constant ``(1/n²)1ᵀL_{-s}^{-1}1`` via
Lemma 3.5 (the constant is identical for all ``u`` and is omitted, as the
paper notes). Subsequent iterations estimate
``Δ(u, S) = (L_{-S}^{-2})_{uu} / (L_{-S}^{-1})_{uu}`` with JL-projected
numerators and forest-sampled entries; the node of maximum estimated
gain is added.

FORESTDELTA (Algorithm 2) is the ``T = ∅`` case of SCHURDELTA
(Algorithm 4): with no hub roots, identity (11) reads
``L_UU^{-1} = L_{-S}^{-1}`` and every Schur term has width 0. So both
run one body with ``T`` possibly empty, in two steps: :func:`rooted_sample`
draws the forests rooted at ``S ∪ T`` (one sampling job) and
:func:`read_out` turns them into Δ' on the driver. SCHURCFCM reads one
sample for several ``S`` (:mod:`repro.core.schur_cfcm`).

:func:`greedy` is the one loop of FORESTCFCM, SCHURCFCM and
APPROXGREEDY: the timer, the seed schedule and the picks. EXACT keeps
its own loop, which carries a downdated inverse. Both loops start with
:func:`check_input`, so a bad ``k`` or a disconnected graph fails the
same way in all four algorithms.
"""
from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import SparkSession

from repro.core.params import Params
from repro.forest.distributed import ForestStats, adaptive_forest_stats
from repro.forest.estimators import bfs_tree_for_roots
from repro.graph.csr import CSRGraph
from repro.linalg.jl import rademacher_matrix

__all__ = ["GreedyResult", "check_input", "greedy", "floored_gains", "first_node_scores",
           "schur_complement_from_counts", "RootedSample", "rooted_sample", "read_out",
           "forest_delta", "forest_cfcm"]


@dataclass
class GreedyResult:
    """Output of a greedy CFCM run.

    ``forests_per_iter[i]`` is the number of forests drawn in iteration
    ``i``: 0 for APPROXGREEDY and for a SCHURCFCM iteration that reads the
    previous iteration's sample, so a run's sampling jobs are its nonzero
    entries.
    """

    S: list[int]
    seconds: float
    forests_per_iter: list[int] = field(default_factory=list)


def check_input(g: CSRGraph, k: int) -> None:
    """Raise ``ValueError`` unless ``1 <= k < n`` and ``g`` is connected."""
    if not 1 <= k < g.n:
        raise ValueError("need 1 <= k < n")
    bfs_tree_for_roots(g, [0])  # raises on unreachable nodes


def greedy(
    g: CSRGraph,
    k: int,
    params: Params,
    first: Callable[[], tuple[np.ndarray, int]],
    step: Callable[[list[int], int], tuple[np.ndarray, int]],
) -> GreedyResult:
    """Greedy size-``k`` group from ``first()`` then ``step(S, seed)`` per pick.

    ``first()`` returns ``(scores, forests drawn)`` and the first node
    minimizes the scores. ``step`` returns ``(Δ', forests drawn)`` for the current ``S``
    and the next node maximizes ``Δ'``; iteration ``i`` gets the seed
    ``params.seed + 1000·i``.
    """
    check_input(g, k)
    t0 = time.perf_counter()
    scores, n_f = first()
    S = [int(np.argmin(scores))]
    forests = [n_f]
    for i in range(1, k):
        delta, n_f = step(S, params.seed + 1000 * i)
        S.append(int(np.argmax(delta)))
        forests.append(n_f)
    return GreedyResult(S=S, seconds=time.perf_counter() - t0, forests_per_iter=forests)


def floored_gains(g: CSRGraph, S, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``Δ' = num / max(den, 1/d_u)``, −inf at nodes of ``S`` so callers can argmax.

    ``(L_{-S}^{-1})_{uu} >= 1/d_u`` (the Neumann bound in Lemma 3.9's
    proof), so flooring the noisy denominator keeps the ratio stable.
    """
    delta = num / np.maximum(den, 1.0 / np.maximum(g.degrees, 1))
    delta[np.asarray(S, dtype=np.int64)] = -np.inf
    return delta


def first_node_scores(
    spark: SparkSession | None, g: CSRGraph, params: Params
) -> tuple[np.ndarray, int]:
    """Estimated ``x_u = L†_uu − (1/n²)1ᵀL_{-s}^{-1}1`` and the forests drawn (lines 1–13).

    ``x_s = 0`` by Lemma 3.5; smaller ``x`` means larger single-node CFCC.
    """
    s = int(np.argmax(g.degrees))
    ones = np.ones((1, g.n))
    ones[0, s] = 0.0
    stats, _ = adaptive_forest_stats(
        spark, g, [s], ones, params.eps, seed=params.seed, config=params.sample
    )
    x = stats.z - (2.0 / g.n) * stats.y[0]
    x[s] = 0.0
    return x, stats.n_forests


def schur_complement_from_counts(
    g: CSRGraph, T_ids: np.ndarray, F_hat: np.ndarray, roots_mask: np.ndarray
) -> np.ndarray:
    """``S̃_T(L_{-S}) = L_TT + L_TU F̃`` via eq. (15), from absorption counts.

    ``F_hat`` is ``(n, |T|)``; only its rows at ``U`` are read.
    ``roots_mask`` marks ``S ∪ T``.
    """
    pos = np.full(g.n, -1)
    pos[T_ids] = np.arange(len(T_ids))
    # L_TT: full degrees on the diagonal, −1 for intra-T edges.
    S_tilde = np.diag(g.degrees[T_ids].astype(np.float64))
    for i, ti in enumerate(T_ids):
        nbrs = g.neighbors(int(ti))
        j = pos[nbrs]
        S_tilde[i, j[j >= 0]] -= 1.0
        S_tilde[i] -= F_hat[nbrs[~roots_mask[nbrs]]].sum(axis=0)
    # Sampling noise can break symmetry / definiteness marginally.
    S_tilde = 0.5 * (S_tilde + S_tilde.T)
    S_tilde[np.diag_indices(len(T_ids))] += 1e-10 * max(np.trace(S_tilde), 1.0)
    return S_tilde


@dataclass(frozen=True)
class RootedSample:
    """One SCHURDELTA sampling call: forests rooted at ``R = S ∪ T`` and its JL matrix.

    ``S`` and ``T`` are the sorted root sets at sampling time; ``T`` orders
    the columns of ``stats.f_hat``. ``WQ`` is the ``(w, n)`` JL matrix drawn
    from the call's seed, zero on ``S``, and ``W_u`` is ``WQ`` zeroed on all
    of ``R`` (the weights the forests carried). The sample reads out for any
    ``S'`` with ``S ⊆ S' ⊆ R`` (:func:`read_out`): the forests' law depends
    only on ``R``, and ``W_u`` is zero on all of it.
    """

    S: np.ndarray
    T: np.ndarray
    WQ: np.ndarray
    W_u: np.ndarray
    stats: ForestStats


def rooted_sample(
    spark: SparkSession | None, g: CSRGraph, S: list[int], T: list[int], params: Params, *, seed: int
) -> RootedSample:
    """Draw the forests of SCHURDELTA (Algorithm 4), rooted at ``S ∪ T``, in one sampling job."""
    n = g.n
    S_arr = np.asarray(sorted(S), dtype=np.int64)
    T_ids = np.asarray(sorted(T), dtype=np.int64)
    rng = np.random.default_rng(seed)
    # [W | Q] spans V \ S; W rows weight U sources during sampling, Q is
    # the projection's T block (Algorithm 4 line 4).
    WQ = rademacher_matrix(params.jl_width(n), n, rng=rng)
    WQ[:, S_arr] = 0.0
    W_u = WQ.copy()
    W_u[:, T_ids] = 0.0
    stats, _ = adaptive_forest_stats(
        spark, g, np.concatenate([S_arr, T_ids]), W_u, params.eps, t_nodes=T_ids.tolist(), seed=seed,
        config=params.sample,
    )
    return RootedSample(S_arr, T_ids, WQ, W_u, stats)


def read_out(g: CSRGraph, sample: RootedSample, S) -> np.ndarray:
    """Δ'(u, S) from ``sample`` (driver algebra only), for ``sample.S ⊆ S ⊆ R``.

    ``L_{-S}^{-1}`` is reconstructed from the block identity (11) with
    ``T' = R \\ S`` and ``U = V \\ R``:

    ```
    (L_{-S}^{-1})_uu = (L_UU^{-1})_uu + (F S̃⁻¹ Fᵀ)_uu        u ∈ U
    (L_{-S}^{-1})_tt = (S̃⁻¹)_tt                               t ∈ T'
    [W Q] L_{-S}^{-1} = [W L_UU^{-1} + M S̃⁻¹ Fᵀ  |  M S̃⁻¹],  M = W F + Q
    ```

    with ``F̃`` the forest-absorption probabilities into ``T'`` (Lemma 4.2),
    ``Q = WQ[:, T']`` and ``S̃ = S̃_{T'}(L_{-S}) = L_{T'T'} + L_{T'U} F̃`` the
    estimated Schur complement (eq. 15), whose small ``|T'|×|T'|`` inverse
    is taken densely. Only which roots count as ``S`` and which as ``T'``
    depends on ``S``; ``L_UU^{-1}``, ``W`` and the forests do not.
    """
    stats = sample.stats
    S_arr = np.asarray(sorted(S), dtype=np.int64)
    roots_mask = np.zeros(g.n, dtype=bool)
    roots_mask[sample.S] = True
    roots_mask[sample.T] = True
    keep = ~np.isin(sample.T, S_arr)
    T_ids = sample.T[keep]
    F_hat = np.ascontiguousarray(stats.f_hat[:, keep])  # (n, |T'|), laid out as a fresh draw's
    S_inv = np.linalg.inv(schur_complement_from_counts(g, T_ids, F_hat, roots_mask))
    MS = (sample.W_u @ F_hat + sample.WQ[:, T_ids]) @ S_inv  # M S̃⁻¹, (w, |T'|)
    # Denominators (block-diagonal of L_{-S}^{-1}); diag(F S⁻¹ Fᵀ) via BLAS.
    z = stats.z + ((F_hat @ S_inv) * F_hat).sum(axis=1)
    z[T_ids] = np.diag(S_inv)
    # Numerator rows [W Q] L_{-S}^{-1}; stats.y is a fresh array, so add in place.
    Y = stats.y
    Y += MS @ F_hat.T
    Y[:, T_ids] = MS
    return floored_gains(g, S_arr, np.einsum("ij,ij->j", Y, Y), z)


def forest_delta(
    spark: SparkSession | None, g: CSRGraph, S: list[int], params: Params, *, seed: int
) -> tuple[np.ndarray, int]:
    """FORESTDELTA (Algorithm 2): ``(Δ'(u, S) array, forests sampled)``.

    ``Δ'`` is −inf at nodes of ``S`` so callers can argmax directly.
    """
    sample = rooted_sample(spark, g, S, [], params, seed=seed)
    return read_out(g, sample, S), sample.stats.n_forests


def forest_cfcm(
    spark: SparkSession | None, g: CSRGraph, k: int, params: Params | None = None
) -> GreedyResult:
    """FORESTCFCM (Algorithm 3): greedy size-``k`` CFCM solution."""
    params = params or Params()
    return greedy(g, k, params, lambda: first_node_scores(spark, g, params),
                  lambda S, seed: forest_delta(spark, g, S, params, seed=seed))
