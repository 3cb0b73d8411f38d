"""Spark integration: curve-aware Parquet layout + DuckDB oracle checks.

Every query result produced through the curve-ordered table is diffed
against DuckDB executing the same SQL over the same input — a broken
curve value, mis-ordered write, or wrong pruning would surface here.
"""
import os
from unittest.mock import ANY

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
from pyspark.sql import functions as F

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator
from repro.core.query import RangeQuery
from repro.oracle import assert_equivalent
from repro.sparkops.layout import (
    PAGE_ROWS,
    admitted_files,
    choose_layout,
    read_manifest,
    run_range_query,
    scan_metrics,
    write_curve_ordered,
)
from repro.storage.blockstore import BlockStore
from repro.workloads.datasets import osm_like, to_spark
from repro.workloads.queries import data_following

ELL = 10


def jobs_of(spark, group, action):
    """Run ``action`` under a job group; return (its result, the jobs it started)."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = action()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()  # job starts reach the tracker
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


def query_and_collect(spark, path, q):
    got = run_range_query(spark, path, ["x", "y"], q)
    return got, got.collect()


def page_stores(path, manifest):
    """One block store per data file, its blocks the file's pages: the
    (x, y) rows in file order (curve values ``arange(n)`` keep that
    order), ``PAGE_ROWS`` a block."""
    out = {}
    for f in manifest["files"]:
        t = pq.read_table(os.path.join(path, f["file"]), columns=["x", "y"])
        xy = np.column_stack([t["x"].to_numpy(), t["y"].to_numpy()])
        out[f["file"]] = BlockStore(xy, np.arange(len(xy)), PAGE_ROWS)
    return out


def rows_of_pages_met(store, q):
    """The rows of the store's blocks whose box meets ``q``: the blocks
    ``accesses`` counts as ``examined``."""
    meets = np.all((store.box_lo <= q.hi) & (store.box_hi >= q.lo), axis=1)
    n = len(store.points)
    sizes = np.diff(np.minimum(np.arange(store.n_blocks + 1) * PAGE_ROWS, n))
    assert np.count_nonzero(meets) == store.accesses([q]).examined[0]
    return int(sizes[meets].sum())


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
        touched = {}
        for name, sigma in [("x_low", x_low), ("y_low", y_low)]:
            path = str(tmp_path / name)
            write_curve_ordered(df, sigma, ["x", "y"], path, n_files=16)
            manifest = read_manifest(path)
            touched[name] = sum(len(admitted_files(manifest, ["x", "y"], q)) for q in workload)
        assert touched["x_low"] < touched["y_low"]
        # estimator ordering agrees with the physical outcome
        assert est.cost(x_low) < est.cost(y_low)


class TestManifestPruning:
    def test_full_domain_query_over_40_files_is_one_job(self, spark, points, tmp_path):
        # 32 explicit paths or more would be listed by a Spark job of their own
        path = str(tmp_path / "forty")
        write_curve_ordered(to_spark(spark, points), BMC.zc(2, ELL), ["x", "y"], path, n_files=40)
        assert len(read_manifest(path)["files"]) == 40
        top = (1 << ELL) - 1
        q = RangeQuery((0, 0), (top, top))
        # planning lists the files, so the job count covers the query's creation
        (got, rows), jobs = jobs_of(spark, "test-forty-files", lambda: query_and_collect(spark, path, q))
        assert jobs == 1
        assert len(rows) == len(points)
        assert scan_metrics(got)["numFiles"] == 40
        pdf = pd.DataFrame({"x": points[:, 0].astype("int64"), "y": points[:, 1].astype("int64")})
        assert_equivalent(got, "SELECT x, y FROM pts", pts=pdf)

    def test_rewrite_replaces_manifest(self, spark, points, tmp_path):
        path = str(tmp_path / "rewritten")
        df = to_spark(spark, points)
        write_curve_ordered(df, BMC.zc(2, ELL), ["x", "y"], path, n_files=6)
        sigma = BMC.lex(2, ELL)
        write_curve_ordered(df, sigma, ["x", "y"], path, n_files=3)
        manifest = read_manifest(path)
        assert manifest["columns"] == ["x", "y", "curve_value"]
        data = sorted(f for f in os.listdir(path) if f.endswith(".parquet"))
        assert sorted(f["file"] for f in manifest["files"]) == data
        assert len(data) == 3
        for f in manifest["files"]:
            t = pq.read_table(os.path.join(path, f["file"]))
            xy = np.column_stack([t["x"].to_numpy(), t["y"].to_numpy()])
            assert np.array_equal(sigma.values(xy.astype(np.uint64)), t["curve_value"].to_numpy())
            cols = [t[c].to_numpy() for c in manifest["columns"]]
            assert f["rows"] == len(xy)
            assert f["min"] == [int(c.min()) for c in cols]
            assert f["max"] == [int(c.max()) for c in cols]

    def test_missing_manifest_raises(self, spark, points, tmp_path):
        path = str(tmp_path / "plain")
        to_spark(spark, points).write.parquet(path)
        q = RangeQuery((0, 0), (10, 10))
        with pytest.raises(FileNotFoundError, match=path):
            run_range_query(spark, path, ["x", "y"], q)

    def test_query_admitting_no_file_is_empty_and_starts_no_job(self, spark, points, tmp_path):
        half = 1 << (ELL - 1)
        low = points[np.all(points < half, axis=1)]  # the fixture's lower-left quadrant
        path = str(tmp_path / "quadrant")
        write_curve_ordered(to_spark(spark, low), BMC.zc(2, ELL), ["x", "y"], path, n_files=4)
        top = (1 << ELL) - 1
        q = RangeQuery((half, half), (top, top))
        assert not np.any(np.all((low >= q.lo) & (low <= q.hi), axis=1))
        assert admitted_files(read_manifest(path), ["x", "y"], q) == []
        (got, rows), jobs = jobs_of(spark, "test-no-file", lambda: query_and_collect(spark, path, q))
        assert rows == [] and jobs == 0
        assert got.schema.simpleString() == "struct<x:bigint,y:bigint>"
        assert scan_metrics(got)["numFiles"] == 0

    def test_engine_reads_the_admitted_files(self, spark, points, workload, tmp_path):
        path = str(tmp_path / "engine")
        write_curve_ordered(to_spark(spark, points), BMC.zc(2, ELL), ["x", "y"], path, n_files=16)
        manifest = read_manifest(path)
        admitted, read = [], []
        for q in workload:
            got, _ = query_and_collect(spark, path, q)
            admitted.append(len(admitted_files(manifest, ["x", "y"], q)))
            read.append(scan_metrics(got)["numFiles"])
        assert read == admitted
        assert max(read) < 16  # the box test prunes


class TestPagePruning:
    @pytest.mark.parametrize("curve", ["zc", "lex"])
    def test_engine_reads_the_pages_whose_box_meets_the_query(
        self, spark, points, workload, tmp_path, curve
    ):
        path = str(tmp_path / curve)
        sigma = getattr(BMC, curve)(2, ELL)
        write_curve_ordered(to_spark(spark, points), sigma, ["x", "y"], path, n_files=16)
        manifest = read_manifest(path)
        stores = page_stores(path, manifest)
        read, total = [], 0
        for q in workload:
            got, rows = query_and_collect(spark, path, q)
            want = points[np.all((points >= q.lo) & (points <= q.hi), axis=1)]
            assert sorted(map(tuple, rows)) == sorted(map(tuple, want.tolist()))
            files = admitted_files(manifest, ["x", "y"], q)
            read.append(scan_metrics(got)["numOutputRows"])
            assert read[-1] == sum(rows_of_pages_met(stores[f], q) for f in files)
            total += sum(f["rows"] for f in manifest["files"] if f["file"] in files)
        assert sum(read) < total  # pages prune inside the admitted files

    def test_every_column_chunk_has_a_column_index(self, spark, points, tmp_path):
        path = str(tmp_path / "indexed")
        write_curve_ordered(to_spark(spark, points), BMC.zc(2, ELL), ["x", "y"], path, n_files=4)
        for f in read_manifest(path)["files"]:
            meta = pq.read_metadata(os.path.join(path, f["file"]))
            for g in range(meta.num_row_groups):
                group = meta.row_group(g)
                for c in range(group.num_columns):
                    assert group.column(c).has_column_index

    def test_query_meeting_a_file_but_none_of_its_pages_reads_nothing(
        self, spark, points, tmp_path
    ):
        # one file of two pages: a page of lower-left points, then (on ZC)
        # the upper-right ones; the file's box is the whole grid
        half, top = 1 << (ELL - 1), (1 << ELL) - 1
        low = points[np.all(points < half, axis=1)][:PAGE_ROWS]
        high = points[np.all(points >= half, axis=1)][:PAGE_ROWS]
        assert len(low) == PAGE_ROWS and len(high)
        table = np.concatenate([low, high])
        path = str(tmp_path / "gap")
        write_curve_ordered(to_spark(spark, table), BMC.zc(2, ELL), ["x", "y"], path, n_files=1)
        manifest = read_manifest(path)
        q = RangeQuery((0, half), (half - 1, top))  # the upper-left quadrant
        files = admitted_files(manifest, ["x", "y"], q)
        assert len(files) == 1
        assert rows_of_pages_met(page_stores(path, manifest)[files[0]], q) == 0
        got, rows = query_and_collect(spark, path, q)
        assert rows == []
        assert scan_metrics(got) == {"numFiles": 1, "numOutputRows": 0, "filesSize": ANY}
        pdf = pd.DataFrame({"x": table[:, 0].astype("int64"), "y": table[:, 1].astype("int64")})
        sql = f"SELECT x, y FROM pts WHERE x BETWEEN 0 AND {half - 1} AND y BETWEEN {half} AND {top}"
        assert_equivalent(got, sql, pts=pdf)
