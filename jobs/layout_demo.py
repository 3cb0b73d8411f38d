"""End-to-end Spark demo: choose a BMC layout, write Parquet, run range queries.

This is the production embedding from the reproduction brief: the
constant-time estimator (its init from one Arrow collect of the query
workload, fitted on the driver) scores candidate curves; the winner
orders the Parquet write, which leaves a manifest of each file's min/max
box; each range query then reads only the files whose box meets it, and
only the pages of those files whose box meets it.  Files read and rows
read are what the engine's scan reports (``numFiles``,
``numOutputRows``); rows returned are the rows each query collects.

Usage: spark-submit jobs/layout_demo.py  (or python jobs/layout_demo.py)
"""
import argparse
import sys
import tempfile

from pyspark.sql import SparkSession

from repro.learn.quilts import design_candidates
from repro.sparkops.estimator import fit_estimator_distributed, queries_to_spark
from repro.sparkops.layout import (
    choose_layout,
    read_manifest,
    run_range_query,
    scan_metrics,
    write_curve_ordered,
)
from repro.workloads.datasets import make_dataset, to_spark
from repro.workloads.queries import data_following


def run(spark: SparkSession, n_pts: int = 100_000, ell: int = 16, out_dir: str | None = None):
    """Returns (winner BMC, per-candidate scores, scan stats).

    The scan stats hold the table's file count and, per report query,
    the files and rows the engine read and the rows the query returned."""
    points = make_dataset("OSM", n_pts, ell, seed=0)
    workload = data_following(points, 300, ell, delta=1024, aspect=1 / 16.0, seed=1)
    queries_df = queries_to_spark(spark, workload, n_partitions=8)
    est = fit_estimator_distributed(queries_df, 2, ell)
    best, scores = choose_layout(est, design_candidates(workload, 2, ell))
    out_dir = out_dir or tempfile.mkdtemp(prefix="layout_demo_")
    path = f"{out_dir}/points_by_curve"
    write_curve_ordered(to_spark(spark, points), best, ["x", "y"], path, n_files=16)
    stats = {
        "n_files": len(read_manifest(path)["files"]),
        "files_read": [],
        "rows_read": [],
        "rows_returned": [],
    }
    for q in workload[:50]:
        got = run_range_query(spark, path, ["x", "y"], q)
        stats["rows_returned"].append(len(got.collect()))
        m = scan_metrics(got)
        stats["files_read"].append(m["numFiles"])
        stats["rows_read"].append(m["numOutputRows"])
    return best, scores, stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-pts", type=int, default=100_000)
    ap.add_argument("--ell", type=int, default=16)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spark = SparkSession.builder.appName("layout_demo").getOrCreate()
    best, scores, stats = run(spark, args.n_pts, args.ell, args.out)
    print(f"chosen layout: {best}")
    for sigma, cost in sorted(scores, key=lambda t: t[1])[:5]:
        print(f"  candidate {sigma}: cost {cost}")
    avg = {k: sum(v) / len(v) for k, v in stats.items() if k != "n_files"}
    print(
        f"files: {stats['n_files']}, avg files read/query: {avg['files_read']:.2f}, "
        f"avg rows read: {avg['rows_read']:.1f}, avg rows returned: {avg['rows_returned']:.1f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
