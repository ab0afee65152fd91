"""Params / SampleConfig behaviour and scaling knobs."""
import numpy as np
import pytest

from repro.core.params import Params
from repro.forest.distributed import SampleConfig


class TestSampleConfig:
    def test_max_forests_eps_scaling(self):
        cfg = SampleConfig()
        assert cfg.max_forests(1000, 0.15) > cfg.max_forests(1000, 0.3)
        # ε⁻² scaling: quartering ε multiplies the cap by ~16.
        r1 = cfg.max_forests(10**6, 0.4)
        r2 = cfg.max_forests(10**6, 0.1)
        assert 12 < r2 / r1 < 20

    def test_max_forests_log_n_scaling(self):
        cfg = SampleConfig()
        assert cfg.max_forests(10**6, 0.2) > cfg.max_forests(100, 0.2)

    def test_frozen(self):
        with pytest.raises(Exception):
            SampleConfig().r_coeff = 1


class TestParams:
    def test_defaults(self):
        p = Params()
        assert p.eps == 0.2

    def test_jl_width_floor(self):
        assert Params(eps=10.0).jl_width(10) == 8

    def test_independent_sample_instances(self):
        # default_factory: two Params must not share a SampleConfig identity
        # in a way that mutating one (impossible: frozen) could leak. Check
        # equality semantics instead.
        assert Params().sample == Params().sample

    def test_frozen(self):
        with pytest.raises(Exception):
            Params().eps = 0.5
