"""Spark DataFrame / Catalyst implementations of relational graph ops.

The paper's data-preparation pipeline (Section V-A) extracts the largest
connected component of each dataset and reads off degree statistics and
hub sets. These are relational computations, so they are implemented on
edge DataFrames (columns ``src``, ``dst``) and validated against the
DuckDB oracle in the tests.

Connected components is iterative and follows the standard Spark
pattern: bounded loop, per-round convergence check via an aggregate, and
``localCheckpoint`` to truncate lineage.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

__all__ = [
    "edges_to_df",
    "canonicalize_edges_df",
    "degrees_df",
    "top_degree_nodes",
    "connected_components_df",
    "largest_component_edges",
]


def edges_to_df(spark: SparkSession, edges: np.ndarray) -> DataFrame:
    """Create a canonical edge DataFrame from a numpy ``(m, 2)`` array."""
    import pandas as pd

    pdf = pd.DataFrame({"src": edges[:, 0].astype("int64"), "dst": edges[:, 1].astype("int64")})
    return spark.createDataFrame(pdf)


def canonicalize_edges_df(df: DataFrame) -> DataFrame:
    """Undirect, drop self-loops, dedupe: the canonical-edge Catalyst query."""
    return (
        df.select(
            F.least("src", "dst").alias("src"),
            F.greatest("src", "dst").alias("dst"),
        )
        .where(F.col("src") != F.col("dst"))
        .distinct()
    )


def _both_directions(df: DataFrame) -> DataFrame:
    return df.select("src", "dst").union(df.select(F.col("dst").alias("src"), F.col("src").alias("dst")))


def degrees_df(df: DataFrame) -> DataFrame:
    """Degree per node: ``(node, degree)`` from a canonical edge DataFrame."""
    return (
        _both_directions(df)
        .groupBy(F.col("src").alias("node"))
        .agg(F.count("*").alias("degree"))
    )


def top_degree_nodes(df: DataFrame, c: int) -> list[int]:
    """The ``c`` highest-degree nodes (ties broken by node id, ascending).

    This is the hub-selection query used to seed SCHURCFCM's additional
    root set ``T`` (Algorithm 5, line 1).
    """
    rows = (
        degrees_df(df)
        .orderBy(F.col("degree").desc(), F.col("node").asc())
        .limit(c)
        .collect()
    )
    return [int(r["node"]) for r in rows]


def connected_components_df(df: DataFrame, *, max_rounds: int = 64) -> DataFrame:
    """Connected components via min-label propagation with pointer jumping.

    Returns ``(node, component)`` where ``component`` is the smallest node
    id in the node's component. Each round takes the min label over the
    neighbourhood and then shortcuts ``label ← label[label]`` (pointer
    jump), giving O(log n)-ish convergence instead of O(diameter).
    """
    spark = df.sparkSession
    edges = _both_directions(df).localCheckpoint()
    labels = (
        edges.select(F.col("src").alias("node"))
        .distinct()
        .withColumn("label", F.col("node"))
        .localCheckpoint()
    )
    for _ in range(max_rounds):
        nbr_min = (
            edges.join(labels, on=F.col("dst") == F.col("node"))
            .groupBy("src")
            .agg(F.min("label").alias("nbr_label"))
        )
        updated = (
            labels.join(nbr_min, on=F.col("node") == F.col("src"), how="left")
            .select(
                "node",
                F.least(F.col("label"), F.coalesce("nbr_label", "label")).alias("label"),
            )
        )
        # Pointer jump: label <- label(label)
        jump_src = updated.select(F.col("node").alias("jnode"), F.col("label").alias("jlabel"))
        jumped = (
            updated.join(jump_src, on=F.col("label") == F.col("jnode"))
            .select("node", F.col("jlabel").alias("label"))
            .localCheckpoint()
        )
        changed = (
            jumped.alias("a")
            .join(labels.alias("b"), on="node")
            .where(F.col("a.label") != F.col("b.label"))
            .count()
        )
        labels = jumped
        if changed == 0:
            break
    return labels.select("node", F.col("label").alias("component"))


def largest_component_edges(df: DataFrame) -> tuple[DataFrame, DataFrame]:
    """Edges of the largest connected component + its node set.

    Returns ``(lcc_edges, lcc_nodes)`` where ``lcc_nodes`` has a single
    ``node`` column. Mirrors the paper's "we perform our experiments on
    the largest connected components" preprocessing.
    """
    comp = connected_components_df(df)
    biggest = (
        comp.groupBy("component")
        .agg(F.count("*").alias("sz"))
        .orderBy(F.col("sz").desc(), F.col("component").asc())
        .limit(1)
    )
    nodes = comp.join(biggest, on="component").select("node")
    lcc = (
        df.join(nodes.withColumnRenamed("node", "src"), on="src")
        .join(nodes.withColumnRenamed("node", "dst"), on="dst")
        .select("src", "dst")
    )
    return lcc, nodes
