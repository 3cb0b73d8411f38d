"""Curve-aware Parquet layout — choose an SFC, order, write, skip.

This is the production embedding of the paper's contribution (per the
reproduction brief): before writing a table to Parquet, score candidate
BMC layouts against the expected query workload with the constant-time
estimator, then write the data ordered by the winning curve
(``repartitionByRange`` on the curve value + ``sortWithinPartitions``)
so each output file covers a narrow curve-value range.  Range queries
then prune files via min/max statistics exactly as the paper's B+-tree
prunes blocks — ``file_skipping_stats`` measures that benefit.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator
from repro.core.query import RangeQuery
from .curve_udf import with_curve_value


def choose_layout(
    estimator: WorkloadCostEstimator, candidates: list[BMC]
) -> tuple[BMC, list[tuple[BMC, int]]]:
    """Score every candidate (O(1) each) and return (winner, scores)."""
    scores = [(sigma, estimator.cost(sigma)) for sigma in candidates]
    best = min(scores, key=lambda t: t[1])[0]
    return best, scores


def write_curve_ordered(
    df: DataFrame,
    sigma: BMC,
    cols: list[str],
    path: str,
    n_files: int = 8,
) -> None:
    """Write ``df`` as Parquet physically ordered by the BMC value.

    ``repartitionByRange`` gives each output file a disjoint curve-value
    range; the within-file sort tightens row-group min/max stats."""
    out = with_curve_value(df, sigma, cols)
    (
        out.repartitionByRange(n_files, "curve_value")
        .sortWithinPartitions("curve_value")
        .write.mode("overwrite")
        .parquet(path)
    )


@dataclass
class SkippingStats:
    """Per-workload file-pruning outcome over a curve-ordered table."""

    n_files: int
    avg_files_touched: float
    avg_rows_matched: float


def _read_table(spark: SparkSession, path: str, cols: list[str]) -> DataFrame:
    """The table's ``cols`` read under a declared BIGINT schema: without one
    every read starts a schema-inference job over the Parquet footers.
    INT32 columns widen to BIGINT on read."""
    return spark.read.schema(", ".join(f"{c} BIGINT" for c in cols)).parquet(path)


def file_skipping_stats(
    spark: SparkSession,
    path: str,
    sigma: BMC,
    cols: list[str],
    queries: list[RangeQuery],
) -> SkippingStats:
    """How many files must be read per query, using curve-value min/max.

    A file can be skipped iff its [min, max] curve-value range misses
    the query's [F(p_s), F(p_e)] span (Corollary 1) — the same pruning
    Parquet readers do with column statistics.  One aggregation over
    one scan gives each file's curve-value range and the rows of that
    file matching each query."""
    if not len(queries):
        raise ValueError("empty workload")
    matches = []
    for q in queries:
        cond = None
        for i, c in enumerate(cols):
            clause = (F.col(c) >= int(q.lo[i])) & (F.col(c) <= int(q.hi[i]))
            cond = clause if cond is None else (cond & clause)
        matches.append(F.count_if(cond))
    files = (
        _read_table(spark, path, [*cols, "curve_value"])
        .groupBy(F.input_file_name().alias("file"))
        .agg(F.min("curve_value").alias("lo"), F.max("curve_value").alias("hi"), *matches)
        .collect()
    )
    if not files:
        raise ValueError(f"no parquet files under {path}")
    touched = 0
    for q in queries:
        span_lo, span_hi = sigma.value(q.lo), sigma.value(q.hi)
        touched += sum(1 for f in files if not (f.hi < span_lo or f.lo > span_hi))
    matched = sum(sum(f[3:]) for f in files)  # the count_if columns
    n = len(queries)
    return SkippingStats(
        n_files=len(files),
        avg_files_touched=touched / n,
        avg_rows_matched=matched / n,
    )


def run_range_query(
    spark: SparkSession, path: str, cols: list[str], q: RangeQuery
) -> DataFrame:
    """Execute a range query over the written table (Definition 1)."""
    df = _read_table(spark, path, cols)
    for i, c in enumerate(cols):
        df = df.filter((F.col(c) >= int(q.lo[i])) & (F.col(c) <= int(q.hi[i])))
    return df.select(*cols)
