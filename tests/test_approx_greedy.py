"""APPROXGREEDY baseline: JL+CG diagonal estimates and end-to-end greedy."""
import numpy as np
import pytest

from repro.core.approx import approx_greedy, jl_diag_estimates
from repro.core.evaluate import cfcc_dense
from repro.core.exact import exact_greedy
from repro.core.params import Params
from repro.linalg.laplacian import laplacian_dense, laplacian_pinv, submatrix_inverse

WIDE = Params(eps=0.2 / np.sqrt(32))  # wide projection for accuracy tests: w = 1018 on karate


class TestDiagEstimates:
    def test_pinv_diag(self, karate):
        diag_est, none = jl_diag_estimates(None, karate, None, WIDE, seed=0)
        assert none is None
        true = np.diag(laplacian_pinv(laplacian_dense(karate)))
        rel = np.abs(diag_est - true) / true
        assert np.median(rel) < 0.25
        assert int(np.argmin(diag_est)) == int(np.argmin(true))

    def test_submatrix_diags(self, karate):
        S = [33]
        num, den = jl_diag_estimates(None, karate, S, WIDE, seed=1)
        M, keep = submatrix_inverse(laplacian_dense(karate), S)
        d1 = np.diag(M)
        d2 = np.einsum("ij,ij->j", M, M)
        assert np.median(np.abs(den[keep] - d1) / d1) < 0.25
        assert np.median(np.abs(num[keep] - d2) / d2) < 0.3

    def test_zero_at_removed(self, karate):
        num, den = jl_diag_estimates(None, karate, [33, 0], Params(eps=0.3), seed=2)
        assert num[33] == 0.0 and den[0] == 0.0


class TestApproxGreedy:
    def test_returns_k_distinct(self, karate):
        res = approx_greedy(None, karate, 4, Params(eps=0.3))
        assert len(set(res.S)) == 4

    def test_quality_close_to_exact(self, karate):
        res = approx_greedy(None, karate, 4, WIDE)
        c_exact = cfcc_dense(karate, exact_greedy(karate, 4).S)
        assert cfcc_dense(karate, res.S) >= 0.9 * c_exact

    def test_deterministic(self, ba200):
        p = Params(eps=0.3)
        a = approx_greedy(None, ba200, 3, p)
        b = approx_greedy(None, ba200, 3, p)
        assert a.S == b.S

    def test_invalid_k(self, karate):
        with pytest.raises(ValueError):
            approx_greedy(None, karate, 0)
