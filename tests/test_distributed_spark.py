"""Spark fan-out of forest sampling and solver tasks.

Verifies the RDD path produces exactly the statistics the local path
produces (same seeds), is deterministic, that a tail round shorter
than the round before it shares that round's Spark job, and that full
algorithm runs work through Spark.
"""
import numpy as np
import pytest

from repro.core.approx import approx_greedy
from repro.core.forest_cfcm import forest_cfcm
from repro.core.params import Params
from repro.core.schur_cfcm import schur_cfcm
from repro.forest.distributed import SampleConfig, adaptive_forest_stats


def _cfg() -> SampleConfig:
    return SampleConfig(batch0=128, r_coeff=4, max_rounds=2)


def _sample_counting_jobs(spark, g, group: str, config: SampleConfig):
    """Stats rooted at node 33 (eps=0.3, seed=4) and the number of Spark jobs they ran."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        stats, _ = adaptive_forest_stats(spark, g, [33], None, 0.3, seed=4, config=config)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return stats, len(sc.statusTracker().getJobIdsForGroup(group))


class TestRoundPlan:
    # karate at eps=0.3: cap = ceil(r_coeff * eps^-2 * log2(68)) = 143,
    # so the doubling plan is 128 + 15.
    TAIL = SampleConfig(batch0=128, r_coeff=2.1, max_rounds=4)

    def test_short_tail_joins_first_job(self, spark, karate):
        cap = self.TAIL.max_forests(karate.n, 0.3)
        assert self.TAIL.batch0 < cap < 2 * self.TAIL.batch0
        stats, jobs = _sample_counting_jobs(spark, karate, "round-plan-tail", self.TAIL)
        assert jobs == 1
        assert stats.n_forests == cap

    def test_long_tail_runs_its_own_job(self, spark, karate):
        # _cfg draws 128 + 143: the second round is not shorter, so it keeps its job.
        stats, jobs = _sample_counting_jobs(spark, karate, "round-plan-two", _cfg())
        assert jobs == 2
        assert stats.n_forests == 271

    def test_folded_stats_equal_single_round(self, spark, karate):
        # batch0 = cap draws the same (seed, count) chunks in one round.
        cap = self.TAIL.max_forests(karate.n, 0.3)
        one = SampleConfig(batch0=cap, r_coeff=self.TAIL.r_coeff, max_rounds=1)
        folded, _ = adaptive_forest_stats(spark, karate, [33], None, 0.3, seed=4, config=self.TAIL)
        single, _ = adaptive_forest_stats(None, karate, [33], None, 0.3, seed=4, config=one)
        assert folded.n_forests == single.n_forests == cap
        np.testing.assert_allclose(folded.z_sum, single.z_sum, atol=1e-9)
        np.testing.assert_allclose(folded.z_sq, single.z_sq, atol=1e-9)


class TestSparkSampling:
    def test_matches_local_exactly(self, spark, karate):
        # Same seeds → identical per-forest contributions, any partitioning.
        loc, _ = adaptive_forest_stats(None, karate, [33], None, 0.3, seed=11, config=_cfg())
        dist, _ = adaptive_forest_stats(spark, karate, [33], None, 0.3, seed=11, config=_cfg())
        assert loc.n_forests == dist.n_forests
        np.testing.assert_allclose(loc.z_sum, dist.z_sum, atol=1e-9)
        np.testing.assert_allclose(loc.z_sq, dist.z_sq, atol=1e-9)

    def test_matches_local_with_weights(self, spark, karate):
        rng = np.random.default_rng(0)
        W = rng.choice([-1.0, 1.0], size=(4, karate.n))
        W[:, 33] = 0.0
        loc, _ = adaptive_forest_stats(None, karate, [33], W, 0.3, seed=5, config=_cfg())
        dist, _ = adaptive_forest_stats(spark, karate, [33], W, 0.3, seed=5, config=_cfg())
        np.testing.assert_allclose(loc.y_sum, dist.y_sum, atol=1e-9)

    def test_matches_local_with_root_counts(self, spark, karate):
        roots = [5, 33, 0]
        loc, _ = adaptive_forest_stats(
            None, karate, roots, None, 0.3, t_nodes=[0, 33], seed=6, config=_cfg()
        )
        dist, _ = adaptive_forest_stats(
            spark, karate, roots, None, 0.3, t_nodes=[0, 33], seed=6, config=_cfg()
        )
        np.testing.assert_allclose(loc.root_counts, dist.root_counts, atol=1e-9)

    def test_deterministic_across_runs(self, spark, karate):
        a, _ = adaptive_forest_stats(spark, karate, [33], None, 0.3, seed=3, config=_cfg())
        b, _ = adaptive_forest_stats(spark, karate, [33], None, 0.3, seed=3, config=_cfg())
        np.testing.assert_array_equal(a.z_sum, b.z_sum)


@pytest.fixture()
def spark_params() -> Params:
    return Params(eps=0.3, sample=SampleConfig(batch0=128, r_coeff=4, max_rounds=2))


class TestAlgorithmsOnSpark:
    def test_forest_cfcm(self, spark, ba200, spark_params):
        res = forest_cfcm(spark, ba200, 3, spark_params)
        assert len(set(res.S)) == 3

    def test_schur_cfcm(self, spark, ba200, spark_params):
        res = schur_cfcm(spark, ba200, 3, spark_params)
        assert len(set(res.S)) == 3

    def test_approx_greedy(self, spark, ba200, spark_params):
        res = approx_greedy(spark, ba200, 3, spark_params)
        assert len(set(res.S)) == 3

    def test_forest_spark_equals_local(self, spark, karate, spark_params):
        local_params = Params(
            eps=0.3, sample=SampleConfig(batch0=128, r_coeff=4, max_rounds=2)
        )
        a = forest_cfcm(spark, karate, 3, spark_params)
        b = forest_cfcm(None, karate, 3, local_params)
        assert a.S == b.S  # identical seeds → identical selections

    def test_approx_spark_equals_local(self, spark, karate):
        p = Params(eps=0.3)
        a = approx_greedy(spark, karate, 3, p)
        b = approx_greedy(None, karate, 3, p)
        assert a.S == b.S
