"""Spark fan-out of forest sampling and solver tasks.

Verifies the RDD path produces exactly the statistics the local path
produces (same seeds), is deterministic, that a sampling call draws its
whole forest budget in one Spark job, that each greedy iteration runs
one job, that every job goes through ``repro.fanout``, that its tasks start
without zip finders and read a small input without a delayed-ACK wait,
and that full algorithm runs work through Spark.
"""
import importlib
import re
import statistics
import sys
import time
import zipimport
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.approx import approx_greedy
from repro.core.evaluate import cfcc_hutchinson
from repro.core.forest_cfcm import forest_cfcm
from repro.core.params import Params
from repro.core.schur_cfcm import schur_cfcm
from repro.fanout import fan_out
from repro.forest.distributed import SampleConfig, adaptive_forest_stats
from tests.test_forest_estimators import ones_row


def _cfg() -> SampleConfig:
    return SampleConfig(r_coeff=4)


def _counting_jobs(spark, group: str, fn):
    """``fn()`` and the number of Spark jobs it ran."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


class TestSampleBudget:
    def test_whole_budget_in_one_job(self, spark, karate):
        # karate at eps=0.3: cap = ceil(8 * eps^-2 * log2(68)) = 542 forests.
        config = SampleConfig(r_coeff=8)
        (stats, _), jobs = _counting_jobs(
            spark,
            "sample-budget",
            lambda: adaptive_forest_stats(spark, karate, [33], ones_row(karate.n, [33]), 0.3, seed=4, config=config),
        )
        assert jobs == 1
        assert stats.n_forests == 542


def _zip_finders(_payload, _item) -> int:
    return sum(isinstance(f, zipimport.zipimporter) for f in sys.path_importer_cache.values())


def _import_in_task(_payload, name: str) -> str:
    return importlib.import_module(name).__name__


def _nothing(_payload, _item) -> None:
    return None


def _job_seconds(spark, items) -> float:
    t0 = time.perf_counter()
    fan_out(spark, None, items, _nothing)
    return time.perf_counter() - t0


class TestFanOut:
    def test_tasks_start_without_zip_finders(self, spark):
        # One item per partition, so every partition reports.
        slices = max(2, spark.sparkContext.defaultParallelism)
        counts = fan_out(spark, None, list(range(slices)), _zip_finders)
        assert counts == [0] * slices

    def test_task_imports_after_finders_dropped(self, spark):
        fan_out(spark, None, [0, 1], _zip_finders)
        # A pyspark submodule no task has imported: it comes from pyspark.zip
        # through a finder rebuilt after the drop.
        assert fan_out(spark, None, ["pyspark.ml.linalg"] * 2, _import_in_task) == ["pyspark.ml.linalg"] * 2

    def test_small_task_input_is_not_held(self, spark):
        # A partition's input of 64 KiB or more goes out at once, while a
        # small one waits for the worker to ACK the task's command: 40 ms of
        # delayed ACK unless the task sends it first. So jobs of tiny items
        # must not run slower than jobs of large ones.
        slices = max(2, spark.sparkContext.defaultParallelism)
        tiny, large = [0] * slices, [bytes(128 * 1024)] * slices
        for _ in range(5):
            _job_seconds(spark, tiny)
            _job_seconds(spark, large)
        rounds = [(_job_seconds(spark, tiny), _job_seconds(spark, large)) for _ in range(9)]
        tiny_s, large_s = (statistics.median(r) for r in zip(*rounds))
        assert tiny_s < large_s + 0.020, (tiny_s, large_s)

    def test_no_other_call_site(self):
        # Every Spark job in the program goes through fan_out, so every task
        # drops its zip finders and ACKs its command at once.
        src = Path(repro.__file__).parent
        call = re.compile(r"parallelize\(|\.broadcast\(")
        offenders = [
            f"{path.relative_to(src)}:{i}"
            for path in sorted(src.rglob("*.py"))
            if path.name != "fanout.py"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if call.search(line)
        ]
        assert not offenders


class TestJobsPerCall:
    @pytest.mark.parametrize("alg", [forest_cfcm, schur_cfcm, approx_greedy])
    def test_one_job_per_greedy_iteration(self, spark, karate, spark_params, alg):
        # A SCHUR iteration that reads the previous iteration's sample draws
        # no forests and runs no job.
        res, jobs = _counting_jobs(spark, f"jobs-{alg.__name__}", lambda: alg(spark, karate, 3, spark_params))
        assert len(res.S) == 3
        assert jobs == (sum(1 for f in res.forests_per_iter if f) if alg is schur_cfcm else 3)

    @pytest.mark.parametrize("seed,expected", [(0, 2), (2, 3)])
    def test_schur_one_job_per_root_set(self, spark, karate, spark_params, seed, expected):
        # karate's T* is [33, 0, 32, 1, 2]. Seed 0 picks 33, then 0 ∈ T*, so
        # the last iteration reads the second's forests; seed 2 picks 2, then
        # 6 ∉ T*, so every iteration samples.
        params = replace(spark_params, seed=seed)
        res, jobs = _counting_jobs(spark, f"jobs-schur-{seed}", lambda: schur_cfcm(spark, karate, 3, params))
        assert jobs == expected
        assert jobs == sum(1 for f in res.forests_per_iter if f)

    def test_hutchinson_one_job(self, spark, karate):
        c, jobs = _counting_jobs(spark, "jobs-hutchinson", lambda: cfcc_hutchinson(spark, karate, [0, 33]))
        assert c > 0
        assert jobs == 1


class TestSparkSampling:
    def test_matches_local_exactly(self, spark, karate):
        # Same seeds → identical per-forest contributions, any partitioning.
        W = ones_row(karate.n, [33])
        loc, _ = adaptive_forest_stats(None, karate, [33], W, 0.3, seed=11, config=_cfg())
        dist, _ = adaptive_forest_stats(spark, karate, [33], W, 0.3, seed=11, config=_cfg())
        assert loc.n_forests == dist.n_forests
        np.testing.assert_allclose(loc.z_sum, dist.z_sum, atol=1e-9)

    def test_matches_local_with_weights(self, spark, karate):
        rng = np.random.default_rng(0)
        W = rng.choice([-1.0, 1.0], size=(4, karate.n))
        W[:, 33] = 0.0
        loc, _ = adaptive_forest_stats(None, karate, [33], W, 0.3, seed=5, config=_cfg())
        dist, _ = adaptive_forest_stats(spark, karate, [33], W, 0.3, seed=5, config=_cfg())
        np.testing.assert_allclose(loc.y_sum, dist.y_sum, atol=1e-9)

    def test_matches_local_with_root_counts(self, spark, karate):
        roots = [5, 33, 0]
        W = ones_row(karate.n, roots)
        loc, _ = adaptive_forest_stats(
            None, karate, roots, W, 0.3, t_nodes=[0, 33], seed=6, config=_cfg()
        )
        dist, _ = adaptive_forest_stats(
            spark, karate, roots, W, 0.3, t_nodes=[0, 33], seed=6, config=_cfg()
        )
        np.testing.assert_allclose(loc.root_counts, dist.root_counts, atol=1e-9)

    def test_deterministic_across_runs(self, spark, karate):
        W = ones_row(karate.n, [33])
        a, _ = adaptive_forest_stats(spark, karate, [33], W, 0.3, seed=3, config=_cfg())
        b, _ = adaptive_forest_stats(spark, karate, [33], W, 0.3, seed=3, config=_cfg())
        np.testing.assert_array_equal(a.z_sum, b.z_sum)


@pytest.fixture()
def spark_params() -> Params:
    return Params(eps=0.3, sample=SampleConfig(r_coeff=4))


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
        local_params = Params(eps=0.3, sample=SampleConfig(r_coeff=4))
        a = forest_cfcm(spark, karate, 3, spark_params)
        b = forest_cfcm(None, karate, 3, local_params)
        assert a.S == b.S  # identical seeds → identical selections

    def test_approx_spark_equals_local(self, spark, karate):
        p = Params(eps=0.3)
        a = approx_greedy(spark, karate, 3, p)
        b = approx_greedy(None, karate, 3, p)
        assert a.S == b.S
