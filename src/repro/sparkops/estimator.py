"""Distributed O(n) estimator initialization — one Python task per core.

The cost model's only O(n) work is its initialization: the global-cost
coefficient matrix ``A[j][k]`` (Eq. 6) and the d local-cost pattern
tables (Algorithm 1).  Both are *sums over queries*, so they distribute
perfectly: the query DataFrame is coalesced to one partition per task
slot, and each task's ``mapInPandas`` UDF fits every Arrow batch it
reads and folds it into one running partial with the estimators'
``merge``, then emits that partial as one pickled row; the driver
merges the partials the same way.  Every Python task has a fixed cost
(scheduling, the worker round trip, Arrow framing) far above its share
of the init, so the fit runs no more of them than can run at once.
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
from repro.core.query import Workload

_PARTIAL_SCHEMA = "payload binary"


def queries_to_spark(
    spark: SparkSession, queries: Workload, n_partitions: int = 8
) -> DataFrame:
    """Workload as a DataFrame with lo_<i>/hi_<i> integer columns; the
    grid is checked where the DataFrame is fitted."""
    if not len(queries):
        raise ValueError("empty workload")
    data = {}
    for i in range(queries.d):
        data[f"lo_{i}"] = queries.lo[:, i]
        data[f"hi_{i}"] = queries.hi[:, i]
    return spark.createDataFrame(pd.DataFrame(data)).repartition(n_partitions)


def fit_estimator_distributed(
    queries_df: DataFrame, d: int, ell: int
) -> WorkloadCostEstimator:
    """Build a WorkloadCostEstimator with one init task per task slot.

    The query columns are coalesced (narrow, no shuffle) to
    ``defaultParallelism`` partitions.  Each task fits its Arrow batches
    one at a time and folds them into one partial ``A`` matrix and set
    of pattern tables (both additive), so its memory is one batch plus
    the tables; only those tiny summaries (O(d * ell * (ell+1)^(d-1))
    numbers) cross the wire.
    """
    lo_cols = [f"lo_{i}" for i in range(d)]
    hi_cols = [f"hi_{i}" for i in range(d)]
    missing = [c for c in lo_cols + hi_cols if c not in queries_df.columns]
    if missing:
        raise ValueError(f"query DataFrame lacks columns {missing}")

    def build_partial(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        part = None
        for pdf in batches:
            if len(pdf):
                queries = Workload(pdf[lo_cols].to_numpy(), pdf[hi_cols].to_numpy())
                est = WorkloadCostEstimator(queries, d, ell)
                part = est if part is None else WorkloadCostEstimator.merge([part, est])
        if part is not None:
            yield pd.DataFrame({"payload": [pickle.dumps(part)]})

    rows = (
        queries_df.select(*lo_cols, *hi_cols)
        .coalesce(queries_df.sparkSession.sparkContext.defaultParallelism)
        .mapInPandas(build_partial, schema=_PARTIAL_SCHEMA)
        .collect()
    )
    parts = [pickle.loads(bytes(r.payload)) for r in rows]
    if not parts:
        raise ValueError("no queries in DataFrame")
    return WorkloadCostEstimator.merge(parts)
