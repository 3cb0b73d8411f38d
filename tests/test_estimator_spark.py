"""Spark tests: distributed estimator init, one task per core (§4 + DESIGN §6)."""
import numpy as np
import pytest

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator
from repro.core.local_cost import EXACT_FLOAT_CELLS
from repro.core.query import Workload
from repro.sparkops.estimator import fit_estimator_distributed, queries_to_spark


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
    """Arrow batches of 3 rows, so every task folds several of them."""
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    old = spark.conf.get(key)
    spark.conf.set(key, "3")
    yield
    spark.conf.set(key, old)


class TestOneTaskPerSlot:
    def test_fit_runs_one_task_per_slot(self, spark):
        sc = spark.sparkContext
        slots = sc.defaultParallelism
        n_parts = 2 * slots + 1
        df = queries_to_spark(spark, random_workload(40, 2, 6, seed=3), n_partitions=n_parts)
        sc.setJobGroup("test-fit-tasks", "distributed estimator fit")
        try:
            fit_estimator_distributed(df, 2, 6)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()  # job ends reach the tracker
        tracker = sc.statusTracker()
        stages = [
            s
            for j in tracker.getJobIdsForGroup("test-fit-tasks")
            for s in tracker.getJobInfo(j).stageIds
        ]
        # the last stage reads the shuffle and runs mapInPandas
        assert tracker.getStageInfo(max(stages)).numTasks == min(n_parts, slots)

    @pytest.mark.parametrize("n,parts_per_slot", [(200, 2), (3, 4)])
    def test_folded_batches_match_local(self, spark, small_batches, n, parts_per_slot):
        # 200 queries: several 3-row batches per task; 3 queries over
        # 4 partitions per slot: most partitions, and some tasks, empty
        slots = spark.sparkContext.defaultParallelism
        qs = random_workload(n, 2, 8, seed=n)
        df = queries_to_spark(spark, qs, n_partitions=parts_per_slot * slots + 1)
        assert_same_estimator(
            fit_estimator_distributed(df, 2, 8), WorkloadCostEstimator(qs, 2, 8), 2, 8
        )

    def test_fold_crosses_to_python_int_tables(self, spark, small_batches):
        # d = 3, ell = 20: a box of 2^17 cells a side holds 2^51 cells, so
        # a 3-query batch fits float64 tables and two batches do not; two
        # full-domain queries (2^60 cells each) join the fold as well
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
        df = queries_to_spark(spark, qs, n_partitions=2 * slots + 1)
        assert_same_estimator(fit_estimator_distributed(df, d, ell), local, d, ell)
