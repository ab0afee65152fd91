"""The fixed cost of one Spark job: a trivial 4-item job, two ways.

``test_fan_out_job`` runs the job through ``repro.fanout.fan_out``: a
broadcast payload, tasks that first drop the worker's zip finders, and
a destroyed broadcast. ``test_bare_job`` runs a plain
``parallelize().map().collect()``. The items do no work, so a round
times only the scheduling, task launch and result collection of one
job, and the difference between the cases is the helper's own cost
(the broadcast and its destroy). Both run on workers whose zip finders
a ``fan_out`` task has already dropped; a worker that still holds them
re-reads ``pyspark.zip`` and the ``spark-core`` jar in every task, which
adds about 0.25 s to a job on 4 local cores (DESIGN.md §5).
"""
import pytest

from repro.fanout import fan_out

ITEMS = list(range(4))


def _identity(_payload, x):
    return x


@pytest.fixture(scope="module", autouse=True)
def _warm(spark):
    # A session's first few dozen jobs run slower while the JVM warms up,
    # which would bill whichever case runs first. This also leaves the
    # workers without zip finders.
    for _ in range(30):
        fan_out(spark, None, ITEMS, _identity)


def test_fan_out_job(benchmark, spark):
    out = benchmark.pedantic(
        fan_out, args=(spark, None, ITEMS, _identity), rounds=15, iterations=1, warmup_rounds=1
    )
    assert out == ITEMS


def test_bare_job(benchmark, spark):
    sc = spark.sparkContext

    def job():
        return sc.parallelize(ITEMS, len(ITEMS)).map(abs).collect()

    out = benchmark.pedantic(job, rounds=15, iterations=1, warmup_rounds=1)
    assert out == ITEMS
