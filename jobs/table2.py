"""Table II and Figs. 1, 2–3 and 5: one sweep, every table.

Usage:
    spark-submit jobs/table2.py [--graphs name1,name2]

Runs each ``(graph, algorithm, ε)`` greedy call once over the suite
graphs (default: all of ``SUITE``) and reads every table off the
results (``repro.experiments.table2``); Fig. 4 is Table II's ε columns.
Fig. 1 runs on the tiny graphs. Writes ``results/table2.md``,
``fig1.md``, ``fig23.md`` and ``fig5.md``.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from pyspark.sql import SparkSession

from repro.experiments import table2 as harness
from repro.experiments.graphs import SUITE

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def _write(file: str, table: harness.Table) -> None:
    text = harness.markdown(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / file).write_text(text)
    print(f"\n=== {file} ===\n{text}\nwritten to {RESULTS_DIR / file}", file=sys.stderr)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--graphs", default=",".join(SUITE), help="comma-separated suite names")
    names = ap.parse_args().graphs.split(",")
    if unknown := [n for n in names if n not in SUITE]:
        ap.error(f"unknown suite graphs {unknown}; choose from {list(SUITE)}")

    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '16g')} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell",
    )
    spark = SparkSession.builder.appName("table2").getOrCreate()
    try:
        runs = harness.sweep(spark, names)
        _write("table2.md", harness.table2(runs))
        _write("fig23.md", harness.fig23(spark, runs))
        _write("fig5.md", harness.fig5(spark, runs))
        _write("fig1.md", harness.fig1(spark))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
