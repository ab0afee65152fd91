"""The one Spark fan-out path: broadcast a payload, map items, combine.

Every Spark job in ``repro`` runs through :func:`fan_out`. Each task
first drops the worker's ``zipimport`` finders from
``sys.path_importer_cache``. PySpark's worker calls
``importlib.invalidate_caches()`` at the start of every task, and on
CPython 3.11 a zip finder's ``invalidate_caches`` re-reads its archive's
whole central directory: ``pyspark.zip`` (about 1,300 entries), the py4j
zip and the ``spark-core`` jar (about 5,400 entries, cached under two
paths). That took 0.14–0.31 s per task on 4 local cores, about 0.23 s
of a trivial 4-task job's 0.35 s.

Dropping the finders is safe: the parsed directories stay in
``zipimport._zip_directory_cache``, so a later import from an archive
builds a new finder without reading it again, and files shipped with
``--py-files`` are new ``sys.path`` entries that the next
``invalidate_caches`` still sees. From a worker's second task on, the
call costs well under a millisecond.

With ``spark=None`` the items run on the driver in order with the same
function, and their results are combined left to right, as within one
partition. The driver's importer cache is left alone.
"""
from __future__ import annotations

import functools
import sys
import zipimport
from collections.abc import Callable, Sequence
from typing import Any

from pyspark.sql import SparkSession

__all__ = ["fan_out"]


def _drop_zip_finders() -> None:
    """Remove the ``zipimporter`` entries from ``sys.path_importer_cache``."""
    cache = sys.path_importer_cache
    for path, finder in list(cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            cache.pop(path, None)


def fan_out(
    spark: SparkSession | None,
    payload: Any,
    items: Sequence,
    fn: Callable[[Any, Any], Any],
    combine: Callable[[Any, Any], Any] | None = None,
) -> Any:
    """``fn(payload, item)`` for every item, in one Spark job.

    Without ``combine`` returns the results as a list in item order.
    With it, each partition folds its results left to right and the
    partition results are merged with ``treeReduce(combine)``, so the
    partition sums and their order depend only on the slice count,
    ``min(len(items), max(2, defaultParallelism))``. No slice is empty:
    pyspark ships the items in batches of ``len(items) // slices`` ≥ 1,
    at least one batch per slice. The payload is broadcast once per call and destroyed when the
    job ends.
    """
    if spark is None:
        results = (fn(payload, x) for x in items)
        return list(results) if combine is None else functools.reduce(combine, results)
    sc = spark.sparkContext
    slices = min(len(items), max(2, sc.defaultParallelism))
    payload_bc = sc.broadcast(payload)

    def part(it):
        _drop_zip_finders()
        p = payload_bc.value
        results = (fn(p, x) for x in it)
        return list(results) if combine is None else [functools.reduce(combine, results)]

    try:
        rdd = sc.parallelize(items, numSlices=slices).mapPartitions(part)
        return rdd.collect() if combine is None else rdd.treeReduce(combine)
    finally:
        payload_bc.destroy()
