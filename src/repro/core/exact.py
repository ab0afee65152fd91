"""EXACT greedy baseline and the brute-force optimum.

EXACT mirrors the paper's baseline: exact marginal gains from dense
matrix inverses. The first pick minimizes ``L†_uu`` (eq. 4); each later
iteration reads ``Δ(u,S) = (L_{-S}^{-2})_uu / (L_{-S}^{-1})_uu`` off the
maintained inverse ``M = L_{-S}^{-1}`` and removes the chosen row/column
with a Schur-complement downdate, making the loop O(n²) per iteration
after one O(n³) inversion.

``brute_force_optimum`` enumerates all C(n, k) groups (Fig. 1's optimum
reference) — tiny graphs only.
"""
from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from repro.core.forest_cfcm import GreedyResult, check_input
from repro.graph.csr import CSRGraph
from repro.linalg.laplacian import (
    laplacian_dense,
    laplacian_pinv,
    remove_node_inverse_downdate,
    submatrix_inverse,
    trace_l_sub_inv,
)

__all__ = ["exact_greedy", "brute_force_optimum"]


def exact_greedy(g: CSRGraph, k: int) -> GreedyResult:
    """Greedy CFCM with exact marginal gains (the paper's EXACT)."""
    check_input(g, k)
    t0 = time.perf_counter()
    L = laplacian_dense(g)
    diag_pinv = np.diag(laplacian_pinv(L))
    S = [int(np.argmin(diag_pinv))]
    if k > 1:
        M, keep = submatrix_inverse(L, S)
        for _ in range(1, k):
            num = np.einsum("ij,ij->j", M, M)  # diag(M @ M), M symmetric
            den = np.diag(M)
            j = int(np.argmax(num / den))
            S.append(int(keep[j]))
            M = remove_node_inverse_downdate(M, j)
            keep = np.delete(keep, j)
    return GreedyResult(S=S, seconds=time.perf_counter() - t0)


def brute_force_optimum(g: CSRGraph, k: int) -> tuple[list[int], float]:
    """Exhaustive CFCM optimum ``(S*, Tr(L_{-S*}^{-1}))`` — tiny graphs only."""
    L = laplacian_dense(g)
    best_tr = np.inf
    best: tuple[int, ...] = ()
    for S in combinations(range(g.n), k):
        tr = trace_l_sub_inv(L, list(S))
        if tr < best_tr:
            best_tr = tr
            best = S
    return list(best), float(best_tr)
