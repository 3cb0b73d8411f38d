"""Curve-aware Parquet layout — choose an SFC, order, write, skip.

This is the production embedding of the paper's contribution (per the
reproduction brief): before writing a table to Parquet, score candidate
BMC layouts against the expected query workload with the constant-time
estimator, then write the data ordered by the winning curve
(``repartitionByRange`` on the curve value + ``sortWithinPartitions``)
so each output file covers a narrow curve-value range, and so a small
box of the grid.

Beside the data files, ``write_curve_ordered`` leaves a file manifest
(``_curve_files.json``, hidden from Spark's reader by its leading
underscore): each file's row count and the min/max of the coordinate
columns and ``curve_value``, read from the Parquet footers on the
driver.  A range query admits a file iff the file's box meets the query
box — the zone-map test ``storage/blockstore.py`` applies to its
blocks, in place of the paper's B+-tree — and plans one scan of the
admitted files only.  Pruning thus happens at planning time, and the
files the engine opens are the files a good curve saves (§4.2):
``file_skipping_stats`` reports that count with the same test, and
``scan_metrics`` reads what the engine itself counted.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import pyarrow.parquet as pq
from pyspark.sql import DataFrame, DataFrameReader, SparkSession
from pyspark.sql import functions as F

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator
from repro.core.query import RangeQuery
from .curve_udf import with_curve_value

MANIFEST = "_curve_files.json"


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
    """Write ``df`` as Parquet physically ordered by the BMC value, and
    its file manifest beside it.

    ``repartitionByRange`` gives each output file a disjoint curve-value
    range; the within-file sort tightens row-group min/max stats.
    ``path`` is a local directory: the manifest is read from the footers
    with pyarrow, and starts no Spark job."""
    out = with_curve_value(df, sigma, cols)
    (
        out.repartitionByRange(n_files, "curve_value")
        .sortWithinPartitions("curve_value")
        .write.mode("overwrite")
        .parquet(path)
    )
    _write_manifest(path, [*cols, "curve_value"])


def _file_entry(file: str, columns: list[str]) -> dict:
    """A data file's row count and per-column min/max over its row groups
    (``None`` for a file with no row group)."""
    meta = pq.read_metadata(file)
    groups = [meta.row_group(g) for g in range(meta.num_row_groups)]
    stats = [
        [g.column(meta.schema.names.index(c)).statistics for g in groups] for c in columns
    ]
    return {
        "file": os.path.basename(file),
        "rows": meta.num_rows,
        "min": [min((s.min for s in col), default=None) for col in stats],
        "max": [max((s.max for s in col), default=None) for col in stats],
    }


def _write_manifest(path: str, columns: list[str]) -> None:
    """One entry per data file (names starting with ``_`` or ``.`` are
    Spark's hidden files), written under a temporary name and renamed
    into place."""
    files = sorted(f for f in os.listdir(path) if not f.startswith(("_", ".")))
    manifest = {
        "columns": columns,
        "files": [_file_entry(os.path.join(path, f), columns) for f in files],
    }
    tmp = os.path.join(path, MANIFEST + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(path, MANIFEST))


def read_manifest(path: str) -> dict:
    """The file manifest ``write_curve_ordered`` left under ``path``."""
    file = os.path.join(path, MANIFEST)
    try:
        with open(file) as f:
            return json.load(f)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no file manifest {file}: write the table with write_curve_ordered"
        ) from None


def admitted_files(manifest: dict, cols: list[str], q: RangeQuery) -> list[str]:
    """The data files whose bounding box over ``cols`` meets ``q``'s box:
    the only files that can hold a matching row, and the only ones
    ``run_range_query`` reads."""
    idx = [manifest["columns"].index(c) for c in cols]
    return [
        f["file"]
        for f in manifest["files"]
        if f["rows"]
        and all(f["min"][j] <= q.hi[i] and f["max"][j] >= q.lo[i] for i, j in enumerate(idx))
    ]


@dataclass
class SkippingStats:
    """Per-workload file-pruning outcome over a curve-ordered table."""

    n_files: int
    avg_files_touched: float
    avg_rows_matched: float


def _reader(spark: SparkSession, cols: list[str]) -> DataFrameReader:
    """A reader of ``cols`` under a declared BIGINT schema: without one
    every read starts a schema-inference job over the Parquet footers.
    INT32 columns widen to BIGINT on read."""
    return spark.read.schema(", ".join(f"{_quote(c)} BIGINT" for c in cols))


def _quote(col: str) -> str:
    return "`" + col.replace("`", "``") + "`"


def _predicate(cols: list[str], q: RangeQuery) -> str:
    """``q`` as one SQL predicate: one Catalyst parse, not a chain of filters."""
    return " AND ".join(
        f"{_quote(c)} BETWEEN {int(lo)} AND {int(hi)}" for c, lo, hi in zip(cols, q.lo, q.hi)
    )


def file_skipping_stats(
    spark: SparkSession,
    path: str,
    cols: list[str],
    queries: list[RangeQuery],
) -> SkippingStats:
    """How many files a query reads, and how many rows it matches.

    ``avg_files_touched`` counts the files ``admitted_files`` admits —
    the files ``run_range_query`` reads, which is the ``numFiles`` the
    engine reports for its scan.  The matching rows of every query come
    from one global aggregation over one scan of the table."""
    if not len(queries):
        raise ValueError("empty workload")
    manifest = read_manifest(path)
    counts = (
        _reader(spark, cols)
        .parquet(path)
        .agg(*(F.expr(f"count_if({_predicate(cols, q)})") for q in queries))
        .first()
    )
    touched = sum(len(admitted_files(manifest, cols, q)) for q in queries)
    n = len(queries)
    return SkippingStats(
        n_files=len(manifest["files"]),
        avg_files_touched=touched / n,
        avg_rows_matched=sum(counts) / n,
    )


def run_range_query(
    spark: SparkSession, path: str, cols: list[str], q: RangeQuery
) -> DataFrame:
    """Execute a range query over the written table (Definition 1).

    The scan lists only the admitted files, through a ``pathGlobFilter``
    on the table's directory: explicit file paths would be listed by a
    Spark job of their own from 32 files on, and this stays one job
    whatever the number admitted.  With no file admitted the predicate is
    false, which Catalyst plans as an empty relation: no job."""
    files = admitted_files(read_manifest(path), cols, q)
    if not files:
        return _reader(spark, cols).parquet(path).where("false")
    # a Hadoop glob alternation of the names, with its metacharacters escaped
    glob = "{" + ",".join(re.sub(r"([\\{}\[\]*?,])", r"\\\1", f) for f in files) + "}"
    return (
        _reader(spark, cols)
        .option("pathGlobFilter", glob)
        .parquet(path)
        .where(_predicate(cols, q))
    )


def scan_metrics(df: DataFrame) -> dict[str, int]:
    """``numFiles``, ``numOutputRows`` and ``filesSize`` summed over the
    file-scan leaves of ``df``'s executed plan: what the engine read.
    Read after an action on ``df``; a plan without a file scan reads 0."""
    out = {"numFiles": 0, "numOutputRows": 0, "filesSize": 0}
    leaves = df._jdf.queryExecution().executedPlan().collectLeaves().iterator()
    while leaves.hasNext():
        m = leaves.next().metrics()
        if m.contains("numFiles"):
            for k in out:
                out[k] += int(m.apply(k).value())
    return out
