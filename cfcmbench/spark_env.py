"""Spark lifecycle for the benchmark: environment, session, warm-up, stop.

Everything Spark and the JVM write goes to a scratch directory inside
the checkout. Stopping a session waits for its Python worker daemon to
exit, and :func:`shutdown_jvm` waits for the JVM itself, so no run
overlaps the next.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import time
from pathlib import Path

DRIVER_MEMORY = "2g"


def configure(tmp: Path, nproc: int) -> str:
    """Set the environment pyspark reads at JVM launch; returns the master."""
    master = f"local[{nproc}]"
    spark_dir = tmp / "spark"
    spark_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(spark_dir)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    confs = [f"spark.local.dir={spark_dir}", f"spark.sql.warehouse.dir={tmp / 'warehouse'}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {master}",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            *(f"--conf {shlex.quote(c)}" for c in confs),
            "pyspark-shell",
        ]
    )
    return master


def start(nproc: int):
    """SparkSession plus a warm-up job that primes one Python worker per core.

    Returns ``(spark, daemon_pids)``; the pids are the Python worker
    daemons the warm-up reached, which :func:`stop` waits for.
    """
    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("cfcmbench").getOrCreate()
    sc = spark.sparkContext
    sc.setLogLevel("ERROR")
    pids = sc.parallelize(range(nproc), nproc).map(lambda _: (os.getpid(), os.getppid())).collect()
    return spark, sorted({ppid for _, ppid in pids})


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state not in ("Z", "X")


def wait_gone(pids, timeout: float = 30.0) -> list[int]:
    """Wait until no pid in ``pids`` is running; returns those still alive."""
    deadline = time.monotonic() + timeout
    left = [p for p in pids if _alive(p)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [p for p in left if _alive(p)]
    return left


def stop(spark, daemon_pids) -> None:
    spark.stop()
    left = wait_gone(daemon_pids)
    if left:
        raise RuntimeError(f"Spark Python daemons still running after stop: {left}")


def shutdown_jvm() -> None:
    """Close the py4j gateway and wait for the JVM process to exit."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    try:
        gw.shutdown()
    finally:
        SparkContext._gateway = None
        SparkContext._jvm = None
        if proc is not None:
            # The JVM exits when its stdin closes (pyspark's launch contract).
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
