"""End-to-end Spark demo: choose a BMC layout, write Parquet, measure skipping.

This is the production embedding from the reproduction brief: the
constant-time estimator (initialized by one Python task per core, each
folding its batches of the query workload into one partial) scores
candidate curves; the winner orders the Parquet write, which leaves a
manifest of each file's min/max box; each range query then reads only
the files whose box meets it.  "Files read" is the count the query's
scan opens (the same test the engine's ``numFiles`` follows), and the
matching rows come from one Spark aggregation.

Usage: spark-submit jobs/layout_demo.py  (or python jobs/layout_demo.py)
"""
import argparse
import sys
import tempfile

from pyspark.sql import SparkSession

from repro.core.bmc import BMC
from repro.learn.quilts import design_candidates
from repro.sparkops.estimator import fit_estimator_distributed, queries_to_spark
from repro.sparkops.layout import choose_layout, file_skipping_stats, write_curve_ordered
from repro.workloads.datasets import make_dataset, to_spark
from repro.workloads.queries import data_following


def run(spark: SparkSession, n_pts: int = 100_000, ell: int = 16, out_dir: str | None = None):
    """Returns (winner BMC, per-candidate scores, skipping stats)."""
    points = make_dataset("OSM", n_pts, ell, seed=0)
    workload = data_following(points, 300, ell, delta=1024, aspect=1 / 16.0, seed=1)
    queries_df = queries_to_spark(spark, workload, n_partitions=8)
    est = fit_estimator_distributed(queries_df, 2, ell)
    candidates = design_candidates(workload, 2, ell) + [BMC.zc(2, ell), BMC.lex(2, ell)]
    best, scores = choose_layout(est, candidates)
    out_dir = out_dir or tempfile.mkdtemp(prefix="layout_demo_")
    path = f"{out_dir}/points_by_curve"
    write_curve_ordered(to_spark(spark, points), best, ["x", "y"], path, n_files=16)
    stats = file_skipping_stats(spark, path, ["x", "y"], workload[:50])
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
    print(
        f"files: {stats.n_files}, avg files read/query: "
        f"{stats.avg_files_touched:.2f}, avg rows matched: {stats.avg_rows_matched:.1f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
