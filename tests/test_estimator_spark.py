"""Spark tests: the estimator fit from one Arrow collect (§4 + DESIGN §6)."""
import numpy as np
import pytest
from pyspark.sql.types import LongType

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator
from repro.core.local_cost import EXACT_FLOAT_CELLS
from repro.core.query import Workload
from repro.sparkops.estimator import fit_estimator_distributed, queries_to_spark
from repro.workloads.datasets import make_dataset, to_spark


def random_workload(n, d, ell, seed=0, max_edge=8):
    g = np.random.default_rng(seed)
    top = (1 << ell) - 1
    lo, hi = [], []
    for _ in range(n):
        lo.append(g.integers(0, top + 1, d))
        hi.append(np.minimum(top, lo[-1] + g.integers(0, max_edge, d)))
    return Workload(lo, hi)


class TestRoundTrip:
    def test_empty_workload_rejected(self, spark):
        with pytest.raises(ValueError):
            queries_to_spark(spark, Workload(np.zeros((0, 2)), np.zeros((0, 2))))

    @pytest.mark.parametrize("n_partitions", [1, 64])
    def test_partitions_bounded_without_a_shuffle(self, spark, capsys, n_partitions):
        df = queries_to_spark(spark, random_workload(50, 2, 8), n_partitions=n_partitions)
        assert 1 <= df.rdd.getNumPartitions() <= n_partitions
        df.explain()
        assert "Exchange" not in capsys.readouterr().out


def assert_same_estimator(dist, local, d, ell):
    """Equal init statistics, table arithmetic and scores."""
    assert dist.n == local.n
    assert np.array_equal(dist.gc.A, local.gc.A)
    assert dist.lc.total_cells == local.lc.total_cells
    assert dist.lc.table.dtype == local.lc.table.dtype
    assert np.array_equal(dist.lc.table, local.lc.table)
    g = np.random.default_rng(1)
    curves = [BMC.zc(d, ell), BMC.lex(d, ell)] + [
        BMC(tuple(int(s) for s in g.permutation(list(range(d)) * ell))) for _ in range(5)
    ]
    for sigma in curves:
        assert dist.cost(sigma) == local.cost(sigma)


@pytest.fixture
def small_batches(spark):
    """Arrow batches of 3 rows, so the collect returns a many-chunk table."""
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    old = spark.conf.get(key)
    spark.conf.set(key, "3")
    yield
    spark.conf.set(key, old)


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

    def test_empty_frame_rejected(self, spark):
        df = queries_to_spark(spark, random_workload(5, 2, 6)).limit(0)
        with pytest.raises(ValueError):
            fit_estimator_distributed(df, 2, 6)

    def test_single_partition(self, spark):
        qs = random_workload(10, 2, 6, seed=9)
        df = queries_to_spark(spark, qs, n_partitions=1)
        dist = fit_estimator_distributed(df, 2, 6)
        local = WorkloadCostEstimator(qs, 2, 6)
        assert dist.cost(BMC.zc(2, 6)) == local.cost(BMC.zc(2, 6))

    @pytest.mark.parametrize("n,parts_per_slot", [(200, 2), (3, 4)])
    def test_many_batches_match_local(self, spark, small_batches, n, parts_per_slot):
        # 200 queries: many 3-row Arrow batches in the collect; 3 queries
        # over 4 partitions per slot: most partitions empty
        slots = spark.sparkContext.defaultParallelism
        qs = random_workload(n, 2, 8, seed=n)
        df = queries_to_spark(spark, qs).repartition(parts_per_slot * slots + 1)
        assert_same_estimator(
            fit_estimator_distributed(df, 2, 8), WorkloadCostEstimator(qs, 2, 8), 2, 8
        )

    def test_fit_crosses_to_python_int_tables(self, spark, small_batches):
        # d = 3, ell = 20: a box of 2^17 cells a side holds 2^51 cells, so
        # 3 queries fit float64 tables and 4 do not; two full-domain
        # queries (2^60 cells each) are in the workload as well
        d, ell, side = 3, 20, 1 << 17
        g = np.random.default_rng(7)
        lo = g.integers(0, (1 << ell) - side + 1, (30, d))
        full_lo = np.zeros((2, d), dtype=np.int64)
        full_hi = np.full((2, d), (1 << ell) - 1)
        qs = Workload(np.vstack([lo, full_lo]), np.vstack([lo + side - 1, full_hi]))
        assert WorkloadCostEstimator(qs[:3], d, ell).lc.table.dtype == np.int64
        local = WorkloadCostEstimator(qs, d, ell)
        assert local.lc.total_cells >= EXACT_FLOAT_CELLS
        assert local.lc.table.dtype == object
        slots = spark.sparkContext.defaultParallelism
        df = queries_to_spark(spark, qs).repartition(2 * slots + 1)
        assert_same_estimator(fit_estimator_distributed(df, d, ell), local, d, ell)


class TestArrowSettingOff:
    def test_frames_match_the_setting_on(self, spark, request):
        qs = random_workload(50, 2, 8, seed=5)
        points = make_dataset("OSM", 500, 8, seed=0)

        def contents():
            frames = [queries_to_spark(spark, qs, 3), to_spark(spark, points, 3)]
            return [(df.schema, sorted(df.collect())) for df in frames]

        on = contents()
        assert all(f.dataType == LongType() for schema, _ in on for f in schema)
        request.getfixturevalue("arrow_off")
        assert contents() == on

    @pytest.mark.parametrize("d,ell", [(2, 8), (3, 5)])
    def test_fit_matches_local_estimator(self, spark, arrow_off, d, ell):
        qs = random_workload(60, d, ell, seed=d)
        df = queries_to_spark(spark, qs, n_partitions=6)
        local = WorkloadCostEstimator(qs, d, ell)
        assert_same_estimator(fit_estimator_distributed(df, d, ell), local, d, ell)
