"""Spark fan-out of forest sampling with adaptive doubling rounds.

Implements the ``for i = 1..2^{r'} do in parallel`` loops of Algorithms
2–5: forest *chunks* (a seed plus a count) are ``parallelize``-d, each
Spark task runs the cycle-popping sampler against the broadcast CSR graph and
accumulates dense counter arrays (sums of the per-forest contributions
of ``repro.forest.estimators``), and partitions are combined with
``treeReduce``. Shuffle volume per round is O(w·n),
independent of the number of forests. A chunk is the atomic determinism
unit: every chunk's sums are identical on any executor. With
``spark=None`` the driver folds the same chunks with the same function,
so local and Spark runs differ only in the order partition sums are
added (last-bit float differences).

Rounds double in size (Algorithm 2 line 5), up to the forest cap; after
each Spark job the empirical Bernstein bound (Lemma 3.6) on the diagonal
estimators ``ẑ_u`` decides early termination — see DESIGN.md §5 for why
the criterion is applied to the denominator estimates. No Spark job
draws fewer forests than the one before it: when the cap leaves a tail
round shorter than the round before it, both run in one job. A job has
a fixed cost of about 0.25–0.3 s on 4 local cores whatever it computes,
while the check skipped between the two rounds could save fewer forests
than the round already drawn. The chunks and their seeds are the same
either way, so the stats differ only if that check would have stopped
sampling.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.forest.estimators import BFSTree, bfs_tree_for_roots, chunk_stats
from repro.graph.csr import CSRGraph

__all__ = ["ForestStats", "SampleConfig", "adaptive_forest_stats", "bernstein_bound"]

_CHUNK = 16  # forests per vectorized batch / determinism unit (16 chunks
# per 256-forest round -> 4 per core on a 4-core local executor)


@dataclass
class ForestStats:
    """Additive accumulator of per-forest estimator contributions."""

    n_forests: int
    z_sum: np.ndarray  # (n,)   Σ_f z_f
    z_sq: np.ndarray  # (n,)   Σ_f z_f²   (for the Bernstein bound)
    y_sum: np.ndarray | None  # (n, w) Σ_f Y_f (row-major)
    root_counts: np.ndarray | None  # (n, |T|) Σ_f 1[ρ_u = t]

    def add(self, other: "ForestStats") -> "ForestStats":
        self.n_forests += other.n_forests
        self.z_sum += other.z_sum
        self.z_sq += other.z_sq
        if self.y_sum is not None:
            self.y_sum += other.y_sum
        if self.root_counts is not None:
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

    def z_var(self) -> np.ndarray:
        """Per-node empirical variance of the z contributions."""
        N = self.n_forests
        if N < 2:
            return np.full_like(self.z_sum, np.inf)
        mean = self.z_sum / N
        return np.maximum((self.z_sq - N * mean**2) / (N - 1), 0.0)


def bernstein_bound(var: np.ndarray, x_sup: np.ndarray, n: int, delta: float) -> np.ndarray:
    """Empirical Bernstein deviation ``f(n, Var, X_sup, δ)`` of Lemma 3.6."""
    log_term = np.log(3.0 / delta)
    return np.sqrt(2.0 * var * log_term / n) + 3.0 * x_sup * log_term / n


@dataclass(frozen=True)
class SampleConfig:
    """Practical sampling knobs (theoretical bounds are vacuous; DESIGN.md §5)."""

    batch0: int = 256  # first round size; rounds double afterwards
    r_coeff: float = 2.0  # max forests = ceil(r_coeff * eps^-2 * log2(2n))
    max_rounds: int = 12
    min_forests: int = 64

    def max_forests(self, n: int, eps: float) -> int:
        return max(
            self.min_forests,
            int(np.ceil(self.r_coeff * eps**-2 * np.log2(2 * max(n, 2)))),
        )


def _fold_chunks(payload: tuple, chunks: Iterable[tuple[int, int]]) -> ForestStats | None:
    """Sum the stats of ``chunks`` in order; the one runner for both paths."""
    g, bfs, W_T, t_col, n_t = payload
    acc: ForestStats | None = None
    for seed, count in chunks:
        stats = ForestStats(*chunk_stats(g, bfs, W_T, t_col, n_t, seed, count))
        acc = stats if acc is None else acc.add(stats)
    return acc


def _run_chunks_spark(
    spark: SparkSession, payload_bc, chunks: list[tuple[int, int]]
) -> ForestStats:
    sc = spark.sparkContext
    slices = min(len(chunks), max(2, sc.defaultParallelism))

    def part(it):
        acc = _fold_chunks(payload_bc.value, it)
        if acc is not None:
            yield acc

    rdd = sc.parallelize(chunks, numSlices=slices).mapPartitions(part)
    return rdd.treeReduce(lambda a, b: a.add(b))


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
    """Sample forests rooted at ``roots`` until the Bernstein stop or the cap.

    ``W`` is the (w, n) weight matrix whose rows are telescoped into ``Ŷ``
    (columns at roots must be zero). ``t_nodes`` requests absorption
    counts toward those roots (SCHURDELTA). Returns the accumulated stats
    and the BFS tree used for telescoping.
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

    delta = 1.0 / max(g.n, 2)  # failure probability of the Bernstein stop
    cap = config.max_forests(g.n, eps)
    nonroot = bfs.parent >= 0
    x_sup = np.maximum(bfs.depth, 1).astype(np.float64)

    payload = (g, bfs, W_T, t_col, n_t)
    payload_bc = spark.sparkContext.broadcast(payload) if spark is not None else None

    total: ForestStats | None = None
    done = 0
    batch = config.batch0
    base_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
    chunks: list[tuple[int, int]] = []
    try:
        for r in range(config.max_rounds):
            k = min(batch, cap - done)
            if k <= 0:
                break
            off = 0
            while off < k:
                c = min(_CHUNK, k - off)
                chunks.append((base_seed + done + off, c))
                off += c
            done += k
            batch *= 2
            # A tail shorter than this round is the next and last round:
            # it joins this round's job (see the module docstring).
            if 0 < cap - done < k and r + 1 < config.max_rounds:
                continue
            if payload_bc is not None:
                round_stats = _run_chunks_spark(spark, payload_bc, chunks)
            else:
                round_stats = _fold_chunks(payload, chunks)
            chunks = []
            total = round_stats if total is None else total.add(round_stats)
            # Empirical-Bernstein early stop on the diagonal estimators.
            err = bernstein_bound(total.z_var(), x_sup, total.n_forests, delta)
            z = total.z
            ok = err[nonroot] <= eps * np.maximum(z[nonroot] - err[nonroot], 0.0)
            if done >= config.min_forests and bool(ok.all()):
                break
    finally:
        if payload_bc is not None:
            payload_bc.destroy()
    assert total is not None
    return total, bfs
