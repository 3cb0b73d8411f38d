"""The estimator's O(n) init from a Spark query frame: one Arrow collect,
fitted on the driver.

The cost model's only O(n) work is its initialization: the global-cost
coefficient matrix ``A[j][k]`` (Eq. 6) and the d local-cost pattern
tables (Algorithm 1).  At the sizes the system fits (10^4 queries and
fewer) that init takes milliseconds on the driver, below the fixed cost
of one Python task on an executor, so the query columns cross to the
driver in one Arrow collect and are fitted there.  The driver holds
``2 * d`` int64 columns, 32 MB at 10^6 queries and d = 2.  After that,
scoring each candidate BMC is O(d * ell) on the driver — the
constant-time property the paper proves.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.core.cost_model import WorkloadCostEstimator
from repro.core.query import Workload


def queries_to_spark(
    spark: SparkSession, queries: Workload, n_partitions: int = 8
) -> DataFrame:
    """Workload as a DataFrame with lo_<i>/hi_<i> BIGINT columns in at
    most ``n_partitions`` partitions; the grid is checked where the
    DataFrame is fitted.

    Built from a ``pyarrow.Table``, which ``createDataFrame`` takes by
    Arrow whatever ``spark.sql.execution.arrow.pyspark.enabled`` says.
    The partitions are merged with ``coalesce`` (narrow, no shuffle):
    the fit collects the frame back to the driver, so a shuffle to
    spread it would be paid for nothing."""
    if not len(queries):
        raise ValueError("empty workload")
    cols = {}
    for i in range(queries.d):
        cols[f"lo_{i}"] = queries.lo[:, i]
        cols[f"hi_{i}"] = queries.hi[:, i]
    return spark.createDataFrame(pa.table(cols)).coalesce(n_partitions)


def fit_estimator_distributed(
    queries_df: DataFrame, d: int, ell: int
) -> WorkloadCostEstimator:
    """Collect the query columns with ``toArrow`` and build a
    WorkloadCostEstimator from them on the driver.

    A frame without the ``lo_<i>``/``hi_<i>`` columns is rejected with
    ``ValueError``, and so, by the estimator's workload check, is one
    without rows."""
    lo_cols = [f"lo_{i}" for i in range(d)]
    hi_cols = [f"hi_{i}" for i in range(d)]
    missing = [c for c in lo_cols + hi_cols if c not in queries_df.columns]
    if missing:
        raise ValueError(f"query DataFrame lacks columns {missing}")
    table = queries_df.select(*lo_cols, *hi_cols).toArrow()
    lo = np.column_stack([table[c].to_numpy() for c in lo_cols])
    hi = np.column_stack([table[c].to_numpy() for c in hi_cols])
    return WorkloadCostEstimator(Workload(lo, hi), d, ell)
