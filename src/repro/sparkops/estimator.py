"""Distributed O(n) estimator initialization — the per-partition UDF.

The cost model's only O(n) work is its initialization: the global-cost
coefficient matrix ``A[j][k]`` (Eq. 6) and the d local-cost pattern
tables (Algorithm 1).  Both are *sums over queries*, so they distribute
perfectly: each partition of the query DataFrame computes its partial
statistics inside a ``mapInPandas`` UDF and emits them as one pickled
row; the driver merges the partials with the estimators' ``merge``.
After that, scoring each candidate BMC is O(d * ell) on the driver —
the constant-time property the paper proves, now over a workload that
never has to fit in one machine's memory.
"""
from __future__ import annotations

import pickle
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.cost_model import WorkloadCostEstimator
from repro.core.query import RangeQuery, Workload, queries_to_arrays

_PARTIAL_SCHEMA = "payload binary"


def queries_to_spark(
    spark: SparkSession, queries: Workload | list[RangeQuery], n_partitions: int = 8
) -> DataFrame:
    """Workload as a DataFrame with lo_<i>/hi_<i> integer columns."""
    lo, hi = queries_to_arrays(queries)
    data = {}
    for i in range(lo.shape[1]):
        data[f"lo_{i}"] = lo[:, i]
        data[f"hi_{i}"] = hi[:, i]
    return spark.createDataFrame(pd.DataFrame(data)).repartition(n_partitions)


def fit_estimator_distributed(
    queries_df: DataFrame, d: int, ell: int
) -> WorkloadCostEstimator:
    """Build a WorkloadCostEstimator with per-partition parallel init.

    Each query partition computes its own ``A`` matrix and pattern
    tables (both additive) inside the Python workers; only the tiny
    summaries (O(d * ell * (ell+1)^(d-1)) numbers) cross the wire.
    """
    lo_cols = [f"lo_{i}" for i in range(d)]
    hi_cols = [f"hi_{i}" for i in range(d)]
    missing = [c for c in lo_cols + hi_cols if c not in queries_df.columns]
    if missing:
        raise ValueError(f"query DataFrame lacks columns {missing}")

    def build_partial(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        pdfs = [pdf for pdf in batches if len(pdf)]
        if pdfs:
            pdf = pd.concat(pdfs)
            queries = Workload(pdf[lo_cols].to_numpy(), pdf[hi_cols].to_numpy())
            part = WorkloadCostEstimator(queries, d, ell)
            yield pd.DataFrame({"payload": [pickle.dumps(part)]})

    rows = (
        queries_df.select(*lo_cols, *hi_cols)
        .mapInPandas(build_partial, schema=_PARTIAL_SCHEMA)
        .collect()
    )
    parts = [pickle.loads(bytes(r.payload)) for r in rows]
    if not parts:
        raise ValueError("no queries in DataFrame")
    return WorkloadCostEstimator.merge(parts)
