"""Spark tests: distributed per-partition estimator init (§4 + DESIGN §6)."""
import numpy as np
import pytest

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator
from repro.core.query import RangeQuery
from repro.sparkops.estimator import fit_estimator_distributed, queries_to_spark


def random_workload(n, d, ell, seed=0, max_edge=8):
    g = np.random.default_rng(seed)
    top = (1 << ell) - 1
    out = []
    for _ in range(n):
        lo = g.integers(0, top + 1, d)
        hi = np.minimum(top, lo + g.integers(0, max_edge, d))
        out.append(RangeQuery(tuple(int(x) for x in lo), tuple(int(x) for x in hi)))
    return out


class TestRoundTrip:
    def test_empty_workload_rejected(self, spark):
        with pytest.raises(ValueError):
            queries_to_spark(spark, [])


class TestDistributedFit:
    @pytest.mark.parametrize("d,ell", [(2, 8), (3, 5)])
    def test_matches_local_estimator(self, spark, d, ell):
        qs = random_workload(60, d, ell, seed=d)
        df = queries_to_spark(spark, qs, n_partitions=6)
        dist = fit_estimator_distributed(df, d, ell)
        local = WorkloadCostEstimator(qs, d, ell)
        g = np.random.default_rng(0)
        for _ in range(5):
            sigma = BMC(tuple(int(s) for s in g.permutation(list(range(d)) * ell)))
            assert dist.cost(sigma) == local.cost(sigma)
            assert dist.global_cost(sigma) == local.global_cost(sigma)
            assert dist.local_cost(sigma) == local.local_cost(sigma)
        assert dist.n == local.n

    def test_missing_columns_rejected(self, spark):
        qs = random_workload(5, 2, 6)
        df = queries_to_spark(spark, qs)
        with pytest.raises(ValueError):
            fit_estimator_distributed(df, 3, 6)

    def test_single_partition(self, spark):
        qs = random_workload(10, 2, 6, seed=9)
        df = queries_to_spark(spark, qs, n_partitions=1)
        dist = fit_estimator_distributed(df, 2, 6)
        local = WorkloadCostEstimator(qs, 2, 6)
        assert dist.cost(BMC.zc(2, 6)) == local.cost(BMC.zc(2, 6))
