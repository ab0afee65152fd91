"""Jacobi-preconditioned conjugate gradient over the CSR Laplacian.

This is the Laplacian-solver substrate for the APPROXGREEDY baseline.
The paper's reference implementation uses the Julia approximate-Cholesky
solver of Kyng–Sachdeva [39]; that package is unavailable here, so we
substitute diagonally preconditioned CG, which is the classical
nearly-linear-per-iteration SDD solver (each iteration is one O(m)
matvec) and preserves the property Table II illustrates: APPROXGREEDY's
cost is dominated by the edge count ``m``. See DESIGN.md §5.

Two entry points:

* :func:`solve_submatrix` — ``L_{-S} x = b`` (SPD, always solvable).
* :func:`solve_pinv` — ``L x = b`` on ``1⊥`` (for ``L† b``).
"""
from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["laplacian_matvec", "solve_submatrix", "solve_pinv"]


def laplacian_matvec(g: CSRGraph, x: np.ndarray, mask_S: np.ndarray | None = None) -> np.ndarray:
    """``L_{-S} x`` (zero-padded to n) — or full ``L x`` when ``mask_S`` is None.

    ``mask_S`` is a boolean array, True at removed nodes. ``x`` entries at
    removed nodes are ignored; output entries there are zero.
    """
    if mask_S is not None:
        x = np.where(mask_S, 0.0, x)
    y = g.degrees * x - g.adj_matvec(x)
    if mask_S is not None:
        y = np.where(mask_S, 0.0, y)
    return y


def _cg(matvec, b: np.ndarray, M_inv: np.ndarray, *, tol: float) -> tuple[np.ndarray, int]:
    max_iter = max(200, 4 * int(np.sqrt(len(b))) * 10)
    x = np.zeros_like(b)
    r = b.copy()
    z = M_inv * r
    p = z.copy()
    rz = float(r @ z)
    b_norm = float(np.linalg.norm(b)) or 1.0
    for it in range(1, max_iter + 1):
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if pAp <= 0:  # numerically lost positive-definiteness; bail with best x
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= tol * b_norm:
            return x, it
        z = M_inv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, max_iter


def solve_submatrix(g: CSRGraph, b: np.ndarray, S, *, tol: float = 1e-8) -> np.ndarray:
    """Solve ``L_{-S} x = b`` (inputs/outputs zero at nodes of ``S``)."""
    mask = np.zeros(g.n, dtype=bool)
    mask[np.asarray(list(S), dtype=np.int64)] = True
    b = np.where(mask, 0.0, b)
    M_inv = np.where(mask, 0.0, 1.0 / np.maximum(g.degrees, 1))
    x, _ = _cg(lambda v: laplacian_matvec(g, v, mask), b, M_inv, tol=tol)
    return np.where(mask, 0.0, x)


def solve_pinv(g: CSRGraph, b: np.ndarray, *, tol: float = 1e-8) -> np.ndarray:
    """``x ≈ L† b``: CG on the 1-orthogonal complement (connected graphs)."""
    n = g.n
    b = b - b.mean()
    M_inv = 1.0 / np.maximum(g.degrees, 1)

    def mv(v: np.ndarray) -> np.ndarray:
        out = laplacian_matvec(g, v)
        return out - out.mean()  # stay on 1⊥ despite roundoff

    x, _ = _cg(mv, b, M_inv, tol=tol)
    return x - x.mean()
