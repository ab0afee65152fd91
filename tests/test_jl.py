"""JL projection properties (Lemma 3.4)."""
import numpy as np
import pytest

from repro.linalg.jl import rademacher_matrix


class TestRademacher:
    def test_shape_and_values(self, rng):
        Q = rademacher_matrix(16, 100, rng=rng)
        assert Q.shape == (16, 100)
        np.testing.assert_allclose(np.abs(Q), 1 / 4.0)  # ±1/√16

    def test_deterministic_under_seed(self):
        a = rademacher_matrix(8, 50, rng=np.random.default_rng(3))
        b = rademacher_matrix(8, 50, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_norm_preservation(self):
        # ‖Qv‖² concentrates around ‖v‖² as w grows.
        rng = np.random.default_rng(0)
        v = rng.standard_normal(500)
        Q = rademacher_matrix(2000, 500, rng=rng)
        ratio = np.linalg.norm(Q @ v) ** 2 / np.linalg.norm(v) ** 2
        assert 0.9 < ratio < 1.1

    def test_pairwise_distance_preservation(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 300))
        Q = rademacher_matrix(1500, 300, rng=rng)
        for i in range(5):
            for j in range(i + 1, 5):
                d_true = np.linalg.norm(X[i] - X[j]) ** 2
                d_proj = np.linalg.norm(Q @ X[i] - Q @ X[j]) ** 2
                assert abs(d_proj - d_true) / d_true < 0.2

    def test_unbiased_norm(self):
        # E[‖Qv‖²] = ‖v‖² exactly for Rademacher/√w entries.
        rng = np.random.default_rng(2)
        v = rng.standard_normal(50)
        vals = []
        for s in range(200):
            Q = rademacher_matrix(4, 50, rng=np.random.default_rng(s))
            vals.append(np.linalg.norm(Q @ v) ** 2)
        assert np.mean(vals) == pytest.approx(np.linalg.norm(v) ** 2, rel=0.1)


def test_params_width_practical():
    from repro.core.params import Params

    p = Params(eps=0.2)
    # The paper's bound w = ⌈24 (ε/7)⁻² log n⌉ (Algorithms 2/4, line 1).
    theoretical = int(np.ceil(24.0 * (0.2 / 7.0) ** -2 * np.log(1000)))
    assert 8 <= p.jl_width(1000) < theoretical
    assert p.jl_width(10**6) > p.jl_width(100)
    assert Params(eps=0.1).jl_width(1000) > Params(eps=0.3).jl_width(1000)
