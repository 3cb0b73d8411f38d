"""Spark integration: curve-aware Parquet layout + DuckDB oracle checks.

Every query result produced through the curve-ordered table is diffed
against DuckDB executing the same SQL over the same input — a broken
curve value, mis-ordered write, or wrong pruning would surface here.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator
from repro.core.query import RangeQuery
from repro.oracle import assert_equivalent
from repro.sparkops.layout import (
    choose_layout,
    file_skipping_stats,
    run_range_query,
    write_curve_ordered,
)
from repro.workloads.datasets import osm_like, to_spark
from repro.workloads.queries import data_following

ELL = 10


@pytest.fixture(scope="module")
def points():
    return osm_like(20_000, ELL, seed=0)


@pytest.fixture(scope="module")
def workload(points):
    return data_following(points, 25, ELL, delta=32, aspect=16.0, seed=1)


class TestChooseLayout:
    def test_winner_is_argmin(self, workload):
        est = WorkloadCostEstimator(workload, 2, ELL)
        cands = [BMC.zc(2, ELL), BMC.lex(2, ELL)]
        best, scores = choose_layout(est, cands)
        assert best in cands
        assert est.cost(best) == min(s for _, s in scores)

    def test_wide_queries_prefer_x_low_layout(self, workload):
        est = WorkloadCostEstimator(workload, 2, ELL)
        x_low = BMC.from_string("Y" * ELL + "X" * ELL)
        y_low = BMC.from_string("X" * ELL + "Y" * ELL)
        best, _ = choose_layout(est, [x_low, y_low])
        assert best == x_low


class TestWriteAndQuery:
    def test_range_query_matches_duckdb(self, spark, points, workload, tmp_path):
        df = to_spark(spark, points, n_partitions=4)
        sigma = BMC.zc(2, ELL)
        path = str(tmp_path / "zc_table")
        write_curve_ordered(df, sigma, ["x", "y"], path, n_files=6)
        pdf = pd.DataFrame({"x": points[:, 0].astype("int64"), "y": points[:, 1].astype("int64")})
        for q in workload[:5]:
            got = run_range_query(spark, path, ["x", "y"], q)
            sql = (
                f"SELECT x, y FROM pts WHERE x BETWEEN {q.lo[0]} AND {q.hi[0]} "
                f"AND y BETWEEN {q.lo[1]} AND {q.hi[1]}"
            )
            assert_equivalent(got, sql, pts=pdf)

    def test_range_query_is_one_job(self, spark, points, workload, tmp_path):
        # the declared schema spares the schema-inference job of every read
        path = str(tmp_path / "one_job")
        write_curve_ordered(to_spark(spark, points), BMC.zc(2, ELL), ["x", "y"], path, n_files=4)
        sc = spark.sparkContext
        sc.setJobGroup("test-range-query", "one range query")
        try:
            run_range_query(spark, path, ["x", "y"], workload[0]).collect()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()  # job starts reach the tracker
        assert len(sc.statusTracker().getJobIdsForGroup("test-range-query")) == 1

    def test_int32_table_matches_duckdb(self, spark, points, workload, tmp_path):
        # INT32 coordinates widen to the BIGINT schema the query reads with
        pdf = pd.DataFrame({"x": points[:, 0].astype("int32"), "y": points[:, 1].astype("int32")})
        path = str(tmp_path / "int32_table")
        write_curve_ordered(spark.createDataFrame(pdf), BMC.zc(2, ELL), ["x", "y"], path, n_files=4)
        assert spark.read.parquet(path).schema["x"].dataType.simpleString() == "int"
        for q in workload[:3]:
            got = run_range_query(spark, path, ["x", "y"], q)
            sql = (
                f"SELECT x, y FROM pts WHERE x BETWEEN {q.lo[0]} AND {q.hi[0]} "
                f"AND y BETWEEN {q.lo[1]} AND {q.hi[1]}"
            )
            assert_equivalent(got, sql, pts=pdf.astype("int64"))

    def test_count_aggregate_matches_duckdb(self, spark, points, tmp_path):
        df = to_spark(spark, points)
        sigma = BMC.lex(2, ELL)
        path = str(tmp_path / "lex_table")
        write_curve_ordered(df, sigma, ["x", "y"], path, n_files=4)
        pdf = pd.DataFrame({"x": points[:, 0].astype("int64"), "y": points[:, 1].astype("int64")})
        got = (
            spark.read.parquet(path)
            .filter((F.col("x") < 200) & (F.col("y") >= 100))
            .groupBy((F.col("x") % 4).alias("bucket"))
            .agg(F.count("*").alias("cnt"), F.sum("y").alias("sum_y"))
        )
        sql = (
            "SELECT x % 4 AS bucket, count(*) AS cnt, sum(y) AS sum_y "
            "FROM pts WHERE x < 200 AND y >= 100 GROUP BY 1"
        )
        assert_equivalent(got, sql, pts=pdf)

    def test_files_are_value_disjoint(self, spark, points, tmp_path):
        df = to_spark(spark, points)
        sigma = BMC.zc(2, ELL)
        path = str(tmp_path / "disjoint")
        write_curve_ordered(df, sigma, ["x", "y"], path, n_files=5)
        ranges = (
            spark.read.parquet(path)
            .groupBy(F.input_file_name().alias("f"))
            .agg(F.min("curve_value").alias("lo"), F.max("curve_value").alias("hi"))
            .collect()
        )
        spans = sorted((r.lo, r.hi) for r in ranges)
        for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
            assert hi1 <= lo2  # repartitionByRange gives disjoint ranges


class TestSkipping:
    def test_good_layout_skips_more_files(self, spark, points, workload, tmp_path):
        # wide flat workload: x-low layout must touch fewer files than
        # the x-high (lexicographic-by-x) layout
        df = to_spark(spark, points)
        est = WorkloadCostEstimator(workload, 2, ELL)
        x_low = BMC.from_string("Y" * ELL + "X" * ELL)
        y_low = BMC.from_string("X" * ELL + "Y" * ELL)
        stats = {}
        for name, sigma in [("x_low", x_low), ("y_low", y_low)]:
            path = str(tmp_path / name)
            write_curve_ordered(df, sigma, ["x", "y"], path, n_files=16)
            stats[name] = file_skipping_stats(spark, path, sigma, ["x", "y"], workload)
        assert stats["x_low"].avg_files_touched < stats["y_low"].avg_files_touched
        # estimator ordering agrees with the physical outcome
        assert est.cost(x_low) < est.cost(y_low)

    def test_skipping_stats_shape(self, spark, points, tmp_path):
        df = to_spark(spark, points)
        sigma = BMC.zc(2, ELL)
        path = str(tmp_path / "stats")
        write_curve_ordered(df, sigma, ["x", "y"], path, n_files=4)
        qs = [RangeQuery((0, 0), ((1 << ELL) - 1, (1 << ELL) - 1))]
        s = file_skipping_stats(spark, path, sigma, ["x", "y"], qs)
        assert s.n_files >= 1
        assert s.avg_files_touched == s.n_files  # full-domain query reads all
        assert s.avg_rows_matched == len(points)

    def test_skipping_stats_count_in_one_aggregation(self, spark, points, workload, tmp_path):
        sigma = BMC.zc(2, ELL)
        path = str(tmp_path / "one_agg")
        write_curve_ordered(to_spark(spark, points), sigma, ["x", "y"], path, n_files=8)
        sc = spark.sparkContext
        sc.setJobGroup("test-skipping-stats", "file skipping stats")
        try:
            s = file_skipping_stats(spark, path, sigma, ["x", "y"], workload)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()  # job starts reach the tracker
        # one aggregation: one job, or two under AQE, which runs the
        # shuffle-map stage as a job of its own
        assert len(sc.statusTracker().getJobIdsForGroup("test-skipping-stats")) <= 2
        matched = [
            np.count_nonzero(np.all((points >= q.lo) & (points <= q.hi), axis=1))
            for q in workload
        ]
        assert s.avg_rows_matched == sum(matched) / len(workload)

    def test_skipping_stats_empty_workload_rejected(self, spark, points, tmp_path):
        path = str(tmp_path / "empty_wl")
        write_curve_ordered(to_spark(spark, points), BMC.zc(2, ELL), ["x", "y"], path, n_files=2)
        with pytest.raises(ValueError):
            file_skipping_stats(spark, path, BMC.zc(2, ELL), ["x", "y"], [])
