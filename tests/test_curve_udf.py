"""Spark tests: native curve-value expressions match ``BMC.values``."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import LongType

from repro.core.bmc import BMC
from repro.sparkops.curve_udf import with_curve_value
from repro.workloads.datasets import to_spark, uni


def _spark_values(spark, sigma, pdf):
    """(coordinates, curve values) as Spark computes them over ``pdf``."""
    cols = list(pdf.columns)
    df = with_curve_value(spark.createDataFrame(pdf), sigma, cols)
    assert df.schema["curve_value"].dataType == LongType()
    out = df.orderBy(*cols).toPandas()
    return out[cols].to_numpy(), out["curve_value"].to_numpy()


def _random_curve(d, ell, seed):
    rng = np.random.default_rng(seed)
    return BMC(tuple(int(s) for s in rng.permutation(list(range(d)) * ell)))


def _points(d, ell, n, seed, dtype=np.int64):
    """``n`` random points plus the corners 0 and 2^ell - 1 of every axis."""
    top = (1 << ell) - 1
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.integers(0, top, size=(n, d), endpoint=True),
                     np.zeros((1, d), np.int64), np.full((1, d), top)])
    return pd.DataFrame({"xyzw"[i]: pts[:, i].astype(dtype) for i in range(d)})


class TestBmcUdf:
    def test_values_match_reference(self, spark):
        pts = uni(2000, 10, seed=0)
        df = to_spark(spark, pts, n_partitions=4)
        sigma = BMC.from_string("XYXYXYXYXYXYXYXYXYXY")
        out = (
            with_curve_value(df, sigma, ["x", "y"])
            .orderBy("x", "y")
            .toPandas()
        )
        ref_pts = out[["x", "y"]].to_numpy().astype(np.uint64)
        expected = sigma.values(ref_pts).astype(np.int64)
        assert np.array_equal(out["curve_value"].to_numpy(), expected)

    @pytest.mark.parametrize(
        "sigma",
        [BMC.zc(2, 16), BMC.lex(2, 16), _random_curve(2, 16, 3), _random_curve(3, 21, 4)],
        ids=["zc", "lc", "random", "d3_ell21"],
    )
    def test_values_match_bmc_values(self, spark, sigma):
        pts, got = _spark_values(spark, sigma, _points(sigma.d, sigma.ell, 500, seed=5))
        assert np.array_equal(got, sigma.values(pts).astype(np.int64))

    def test_int32_columns_do_not_overflow(self, spark):
        # d * ell = 62: a term shifts a coordinate bit up to rank 61, which an
        # INT32 column would lose without the cast to long
        sigma = _random_curve(2, 31, 6)
        pdf = _points(2, 31, 500, seed=7, dtype=np.int32)
        assert spark.createDataFrame(pdf).schema["x"].dataType.simpleString() == "int"
        pts, got = _spark_values(spark, sigma, pdf)
        assert np.array_equal(got, sigma.values(pts).astype(np.int64))

    def test_wrong_arity_rejected(self, spark):
        df = to_spark(spark, uni(10, 4, 0))
        with pytest.raises(ValueError):
            with_curve_value(df, BMC.zc(3, 4), ["x", "y"])

    def test_curve_value_orderable_by_catalyst(self, spark):
        # values land in a Long column Catalyst can sort natively
        df = with_curve_value(to_spark(spark, uni(500, 8, 1)), BMC.zc(2, 8), ["x", "y"])
        ordered = df.orderBy("curve_value").select("curve_value").toPandas()
        assert ordered["curve_value"].is_monotonic_increasing

    def test_no_python_worker(self, spark):
        df = with_curve_value(to_spark(spark, uni(10, 4, 0)), BMC.zc(2, 4), ["x", "y"])
        plan = df._jdf.queryExecution().executedPlan().toString()
        assert "ArrowEvalPython" not in plan and "BatchEvalPython" not in plan
