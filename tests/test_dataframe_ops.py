"""Spark DataFrame graph ops, validated against the DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.csr import CSRGraph, local_connected_components
from repro.graph.dataframe_ops import (
    canonicalize_edges_df,
    connected_components_df,
    degrees_df,
    edges_to_df,
    largest_component_edges,
    top_degree_nodes,
)
from repro.graph.generators import barabasi_albert, karate_club
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def karate_df(spark):
    return edges_to_df(spark, karate_club()).cache()


@pytest.fixture(scope="module")
def karate_pdf():
    e = karate_club()
    return pd.DataFrame({"src": e[:, 0], "dst": e[:, 1]})


class TestCanonicalize:
    def test_oracle(self, spark, karate_pdf):
        # Feed a messy version (reversed + duplicated + self-loop).
        messy = pd.concat(
            [karate_pdf, karate_pdf.rename(columns={"src": "dst", "dst": "src"}),
             pd.DataFrame({"src": [3], "dst": [3]})]
        )
        got = canonicalize_edges_df(spark.createDataFrame(messy))
        assert_equivalent(
            got,
            """
            SELECT DISTINCT least(src, dst) AS src, greatest(src, dst) AS dst
            FROM messy WHERE src <> dst
            """,
            messy=messy,
        )

    def test_count(self, spark, karate_pdf):
        messy = pd.concat(
            [karate_pdf, karate_pdf.rename(columns={"src": "dst", "dst": "src"})]
        )
        assert canonicalize_edges_df(spark.createDataFrame(messy)).count() == 78


class TestDegrees:
    def test_oracle(self, karate_df, karate_pdf):
        got = degrees_df(karate_df)
        assert_equivalent(
            got,
            """
            SELECT node, count(*) AS degree FROM (
              SELECT src AS node FROM e UNION ALL SELECT dst AS node FROM e
            ) GROUP BY node
            """,
            e=karate_pdf,
        )

    def test_matches_csr(self, karate_df, karate):
        pdf = degrees_df(karate_df).toPandas().set_index("node").sort_index()
        np.testing.assert_array_equal(pdf["degree"].to_numpy(), karate.degrees)


class TestTopDegree:
    def test_oracle(self, spark, karate_df, karate_pdf):
        got = spark.createDataFrame(
            pd.DataFrame({"node": top_degree_nodes(karate_df, 5)})
        )
        assert_equivalent(
            got,
            """
            SELECT node FROM (
              SELECT node, count(*) AS degree FROM (
                SELECT src AS node FROM e UNION ALL SELECT dst AS node FROM e
              ) GROUP BY node
            ) ORDER BY degree DESC, node ASC LIMIT 5
            """,
            e=karate_pdf,
        )

    def test_known_hubs(self, karate_df):
        top2 = top_degree_nodes(karate_df, 2)
        assert top2 == [33, 0]  # instructor (17), president (16)


class TestConnectedComponents:
    def test_single_component(self, karate_df):
        comp = connected_components_df(karate_df)
        labels = {r["component"] for r in comp.collect()}
        assert labels == {0}

    def test_matches_local(self, spark):
        # Three components of different sizes.
        edges = np.array([[0, 1], [1, 2], [3, 4], [5, 6], [6, 7], [7, 8]])
        df = edges_to_df(spark, edges)
        comp = connected_components_df(df).toPandas().set_index("node")["component"]
        g = CSRGraph.from_edges(edges, 9)
        local = local_connected_components(g)
        for node, c in comp.items():
            assert local[node] == local[c]  # same partition structure

    def test_oracle_component_sizes(self, spark):
        edges = np.array([[0, 1], [1, 2], [3, 4], [5, 6], [6, 7], [7, 8]])
        df = edges_to_df(spark, edges)
        comp = connected_components_df(df)
        sizes = comp.groupBy("component").agg(F.count("*").alias("sz")).select("sz")
        import pandas as pd

        comp_pdf = comp.toPandas()
        assert_equivalent(
            sizes,
            "SELECT count(*) AS sz FROM comp GROUP BY component",
            comp=comp_pdf,
        )


class TestLargestComponent:
    def test_returns_lcc(self, spark):
        # karate (34 nodes) plus a disjoint triangle on ids 100-102.
        extra = np.array([[100, 101], [101, 102], [100, 102]])
        edges = np.concatenate([karate_club(), extra])
        df = edges_to_df(spark, edges)
        lcc, nodes = largest_component_edges(df)
        assert nodes.count() == 34
        assert lcc.count() == 78

    def test_whole_graph_when_connected(self, karate_df):
        lcc, nodes = largest_component_edges(karate_df)
        assert nodes.count() == 34
        assert lcc.count() == 78
