"""Spark fan-out of forest sampling: one fixed forest budget, one Spark job.

Implements the ``for i = 1..2^{r'} do in parallel`` loops of Algorithms
2–5: forest *chunks* (a seed plus a count) are fanned out with
:func:`repro.fanout.fan_out`. Each Spark task runs the cycle-popping
sampler against the broadcast payload (CSR graph, BFS tree, weights) and
sums dense counter arrays (the per-forest contributions of
``repro.forest.estimators``); partitions are combined with
``treeReduce``. Shuffle volume per call is O(w·n), independent of the
number of forests. A chunk is the atomic determinism unit: every chunk's
sums are identical on any executor. With ``spark=None`` the driver folds
the same chunks with the same function, so local and Spark runs differ
only in the order partition sums are added (last-bit float differences).

A call draws exactly ``SampleConfig.max_forests(n, eps)`` =
⌈r_c·ε⁻²·log₂ 2n⌉ forests in one Spark job. This deviates from the
paper, which samples in doubling rounds and stops once the empirical
Bernstein bound of Lemma 3.6 is met: at the default ``r_c`` that stop
never fired before the cap (84 calls: 7 graphs × 3 root sets × ε ∈
{0.4, 0.3, 0.2, 0.15}), so the rounds decided nothing and only added a
Spark job each. On 4 local cores a trivial job then cost about 0.35 s,
0.23 s of it each Python task re-reading ``pyspark.zip`` and the Spark
jar; since ``repro.fanout`` stops that, a job costs about 0.12 s. See
DESIGN.md §5.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.fanout import fan_out
from repro.forest.estimators import BFSTree, bfs_tree_for_roots, chunk_stats
from repro.graph.csr import CSRGraph

__all__ = ["ForestStats", "SampleConfig", "adaptive_forest_stats"]

_CHUNK = 16  # forests per vectorized batch / determinism unit


@dataclass
class ForestStats:
    """Additive accumulator of per-forest estimator contributions."""

    n_forests: int
    z_sum: np.ndarray  # (n,)   Σ_f z_f
    y_sum: np.ndarray | None  # (n, w) Σ_f Y_f (row-major)
    root_counts: np.ndarray  # (n, |T|) Σ_f 1[ρ_u = t]; n × 0 without T

    def add(self, other: "ForestStats") -> "ForestStats":
        self.n_forests += other.n_forests
        self.z_sum += other.z_sum
        if self.y_sum is not None:
            self.y_sum += other.y_sum
        self.root_counts += other.root_counts
        return self

    # --- Estimates -------------------------------------------------------
    @property
    def z(self) -> np.ndarray:
        """``ẑ_u ≈ (L_{-S}^{-1})_{uu}`` (zero at roots)."""
        return self.z_sum / self.n_forests

    @property
    def y(self) -> np.ndarray:
        """``Ŷ ≈ W · L_{-S}^{-1}`` as ``(w, n)`` (columns zero at roots)."""
        return self.y_sum.T / self.n_forests

    @property
    def f_hat(self) -> np.ndarray:
        """``F̃[u, j] ≈ Pr(ρ_u = T[j])`` — absorption probabilities (Lemma 4.2)."""
        return self.root_counts / self.n_forests


@dataclass(frozen=True)
class SampleConfig:
    """Fixed forest budget per sampling call: ⌈r_c·ε⁻²·log₂ 2n⌉ forests.

    Every call draws exactly ``max_forests(n, eps)`` forests in one Spark
    job, with no adaptive stop (the paper's Lemma 3.6 stop never fired
    before this cap; DESIGN.md §5). The paper's theoretical count is
    vacuous, so ``r_coeff`` is a practical constant.
    """

    r_coeff: float = 2.0  # forests = ceil(r_coeff * eps^-2 * log2(2n))

    def max_forests(self, n: int, eps: float) -> int:
        return int(np.ceil(self.r_coeff * eps**-2 * np.log2(2 * max(n, 2))))


def _chunk(payload: tuple, chunk: tuple[int, int]) -> ForestStats:
    """Stats of one ``(seed, count)`` chunk: the unit every task runs."""
    g, bfs, W_T, t_col, n_t = payload
    return ForestStats(*chunk_stats(g, bfs, W_T, t_col, n_t, *chunk))


def adaptive_forest_stats(
    spark: SparkSession | None,
    g: CSRGraph,
    roots,
    W: np.ndarray | None,
    eps: float,
    *,
    t_nodes: list[int] | None = None,
    seed: int = 0,
    config: SampleConfig = SampleConfig(),
) -> tuple[ForestStats, BFSTree]:
    """Sample ``config.max_forests(g.n, eps)`` forests rooted at ``roots``.

    The forests are drawn as 16-forest chunks in one Spark job (or one
    local fold when ``spark`` is None). ``W`` is the (w, n) weight matrix
    whose rows are telescoped into ``Ŷ`` (columns at roots must be zero).
    ``t_nodes`` requests absorption counts toward those roots
    (SCHURDELTA). Returns the accumulated stats and the BFS tree used for
    telescoping.
    """
    bfs = bfs_tree_for_roots(g, roots)
    W_T = np.ascontiguousarray(W.T) if W is not None else None
    t_col = None
    n_t = 0
    if t_nodes:
        t_col = np.full(g.n, -1, dtype=np.int64)
        for j, t in enumerate(t_nodes):
            t_col[t] = j
        n_t = len(t_nodes)

    cap = config.max_forests(g.n, eps)
    base_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
    chunks = [(base_seed + o, min(_CHUNK, cap - o)) for o in range(0, cap, _CHUNK)]
    payload = (g, bfs, W_T, t_col, n_t)
    return fan_out(spark, payload, chunks, _chunk, ForestStats.add), bfs
