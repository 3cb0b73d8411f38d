"""Spark tests: Arrow curve-value UDFs match the numpy reference."""
import numpy as np
import pytest

from repro.core.bmc import BMC
from repro.core.hilbert import hilbert_values
from repro.sparkops.curve_udf import with_curve_value, with_hilbert_value
from repro.workloads.datasets import to_spark, uni


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

    def test_wrong_arity_rejected(self, spark):
        df = to_spark(spark, uni(10, 4, 0))
        with pytest.raises(ValueError):
            with_curve_value(df, BMC.zc(3, 4), ["x", "y"])

    def test_curve_value_orderable_by_catalyst(self, spark):
        # values land in a Long column Catalyst can sort natively
        df = with_curve_value(to_spark(spark, uni(500, 8, 1)), BMC.zc(2, 8), ["x", "y"])
        ordered = df.orderBy("curve_value").select("curve_value").toPandas()
        assert ordered["curve_value"].is_monotonic_increasing


class TestHilbertUdf:
    def test_values_match_reference(self, spark):
        pts = uni(1000, 8, seed=2)
        df = to_spark(spark, pts)
        out = with_hilbert_value(df, 8, ["x", "y"]).orderBy("x", "y").toPandas()
        ref_pts = out[["x", "y"]].to_numpy().astype(np.uint64)
        expected = hilbert_values(ref_pts, 8).astype(np.int64)
        assert np.array_equal(out["curve_value"].to_numpy(), expected)

