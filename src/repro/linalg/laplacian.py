"""Dense Laplacian toolkit — exact ground truth for every estimator.

Everything here is O(n²)–O(n³) numpy on the driver and intentionally so:
it implements the paper's EXACT baseline and the correctness oracle the
Monte-Carlo estimators are tested against. Node sets ``S`` are plain
Python lists/arrays of global node ids; submatrix index bookkeeping is
centralized in :func:`keep_indices`.
"""
from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "laplacian_dense",
    "laplacian_pinv",
    "keep_indices",
    "submatrix_inverse",
    "trace_l_sub_inv",
    "cfcc_group",
    "cfcc_single_all",
    "marginal_gain_exact",
    "marginal_gain_all_exact",
    "remove_node_inverse_downdate",
    "absorption_probabilities",
    "schur_complement",
]


def laplacian_dense(g: CSRGraph) -> np.ndarray:
    """Dense Laplacian ``L = D − A`` of an unweighted undirected graph."""
    L = np.zeros((g.n, g.n), dtype=np.float64)
    edges = g.edge_array()
    L[edges[:, 0], edges[:, 1]] = -1.0
    L[edges[:, 1], edges[:, 0]] = -1.0
    np.fill_diagonal(L, g.degrees.astype(np.float64))
    return L


def laplacian_pinv(L: np.ndarray) -> np.ndarray:
    """Moore–Penrose pseudoinverse via the rank-one shift identity.

    ``L† = (L + J/n)^{-1} − J/n`` with ``J = 11ᵀ`` — exact for connected
    graphs and cheaper/stabler than SVD.
    """
    n = L.shape[0]
    J = np.full((n, n), 1.0 / n)
    return np.linalg.inv(L + J) - J


def keep_indices(n: int, S) -> np.ndarray:
    """Sorted array of node ids not in ``S`` (the index set of ``L_{-S}``)."""
    mask = np.ones(n, dtype=bool)
    S = np.asarray(list(S), dtype=np.int64)
    mask[S] = False
    return np.nonzero(mask)[0]


def submatrix_inverse(L: np.ndarray, S) -> tuple[np.ndarray, np.ndarray]:
    """``(L_{-S}^{-1}, keep)`` where ``keep`` maps rows back to node ids."""
    keep = keep_indices(L.shape[0], S)
    return np.linalg.inv(L[np.ix_(keep, keep)]), keep


def trace_l_sub_inv(L: np.ndarray, S) -> float:
    """``Tr(L_{-S}^{-1})`` — the reciprocal of ``C(S)/n`` (eq. 3)."""
    keep = keep_indices(L.shape[0], S)
    sub = L[np.ix_(keep, keep)]
    # Dense inverse: the trace needs every diagonal entry of it.
    return float(np.trace(np.linalg.inv(sub)))


def cfcc_group(L: np.ndarray, S) -> float:
    """Group current-flow closeness centrality ``C(S) = n / Tr(L_{-S}^{-1})``."""
    return L.shape[0] / trace_l_sub_inv(L, S)


def cfcc_single_all(L: np.ndarray) -> np.ndarray:
    """CFCC of every single node: ``C(u) = n / (Tr(L†) + n·L†_uu)``."""
    n = L.shape[0]
    Ld = laplacian_pinv(L)
    diag = np.diag(Ld)
    return n / (np.trace(Ld) + n * diag)


def marginal_gain_exact(L: np.ndarray, S, u: int) -> float:
    """Exact ``Δ(u, S) = Tr(L_{-S}^{-1}) − Tr(L_{-(S∪u)}^{-1})`` for ``S ≠ ∅``."""
    return trace_l_sub_inv(L, S) - trace_l_sub_inv(L, list(S) + [u])


def marginal_gain_all_exact(L: np.ndarray, S) -> dict[int, float]:
    """Exact ``Δ(u, S)`` for every ``u ∉ S`` via eq. (5): ``(L_{-S}^{-2})_uu / (L_{-S}^{-1})_uu``."""
    M, keep = submatrix_inverse(L, S)
    num = np.einsum("ij,ij->j", M, M)  # column squared norms = diag(M @ M), M symmetric
    den = np.diag(M)
    return {int(u): float(num[i] / den[i]) for i, u in enumerate(keep)}


def remove_node_inverse_downdate(M: np.ndarray, idx: int) -> np.ndarray:
    """Inverse of the submatrix after deleting row/col ``idx`` of ``M^{-1}``.

    Given ``M = (L_{-S})^{-1}``, the inverse of ``L_{-(S∪u)}`` (``u`` at
    local index ``idx``) is ``M' = M_{-u,-u} − M_{-u,u} M_{u,-u} / M_{uu}``
    — the Schur-complement identity that makes EXACT greedy O(n²) per
    iteration instead of O(n³).
    """
    keep = np.arange(M.shape[0]) != idx
    col = M[keep, idx]
    return M[np.ix_(keep, keep)] - np.outer(col, col) / M[idx, idx]


def absorption_probabilities(L: np.ndarray, S, T) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact ``F = −L_UU^{-1} L_UT`` (Lemma 4.2), ``U = V \\ (S ∪ T)``.

    Returns ``(F, U_ids, T_ids)`` with ``F[i, j] = Pr(ρ_{U_ids[i]} = T_ids[j])``
    for forests rooted at ``S ∪ T``.
    """
    n = L.shape[0]
    T_ids = np.asarray(sorted(T), dtype=np.int64)
    U_ids = keep_indices(n, list(S) + list(T_ids))
    F = -np.linalg.solve(L[np.ix_(U_ids, U_ids)], L[np.ix_(U_ids, T_ids)])
    return F, U_ids, T_ids


def schur_complement(L: np.ndarray, S, T) -> np.ndarray:
    """Exact ``S_T(L_{-S}) = L_TT − L_TU L_UU^{-1} L_UT`` (Definition 4.1)."""
    n = L.shape[0]
    T_ids = np.asarray(sorted(T), dtype=np.int64)
    U_ids = keep_indices(n, list(S) + list(T_ids))
    LTT = L[np.ix_(T_ids, T_ids)]
    LTU = L[np.ix_(T_ids, U_ids)]
    LUT = L[np.ix_(U_ids, T_ids)]
    return LTT - LTU @ np.linalg.solve(L[np.ix_(U_ids, U_ids)], LUT)
