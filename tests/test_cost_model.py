"""Tests for the combined cost model (Eq. 4) and its O(1) estimator."""
import numpy as np
import pytest

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator, naive_cost
from repro.core.global_cost import GlobalCostEstimator
from repro.core.local_cost import PatternTables
from repro.core.query import Workload


def random_workload(rng, n, d, ell, max_edge=6):
    top = (1 << ell) - 1
    lo, hi = [], []
    for _ in range(n):
        lo.append(rng.integers(0, top + 1, d))
        hi.append(np.minimum(top, lo[-1] + rng.integers(0, max_edge, d)))
    return Workload(lo, hi)


class TestCombinedCost:
    @pytest.mark.parametrize("d,ell", [(2, 6), (3, 4)])
    def test_estimator_equals_naive(self, d, ell):
        rng = np.random.default_rng(d * ell)
        queries = random_workload(rng, 20, d, ell)
        est = WorkloadCostEstimator(queries, d, ell)
        for _ in range(6):
            sigma = BMC(tuple(int(s) for s in rng.permutation(list(range(d)) * ell)))
            assert est.cost(sigma) == naive_cost(sigma, queries)
            assert est.cost(sigma) == est.global_cost(sigma) * est.local_cost(sigma)

    def test_best_of_picks_minimum(self):
        rng = np.random.default_rng(1)
        queries = random_workload(rng, 16, 2, 6)
        est = WorkloadCostEstimator(queries, 2, 6)
        cands = [BMC.zc(2, 6), BMC.lex(2, 6), BMC.from_string("YYYYYYXXXXXX")]
        best, cost = est.best_of(cands)
        assert cost == min(est.cost(c) for c in cands)
        assert est.cost(best) == cost

    def test_best_of_empty_rejected(self):
        est = WorkloadCostEstimator(Workload([[0, 0]], [[1, 1]]), 2, 4)
        with pytest.raises(ValueError):
            est.best_of([])

    def test_merge_matches_whole(self):
        rng = np.random.default_rng(4)
        queries = random_workload(rng, 24, 2, 5)
        whole = WorkloadCostEstimator(queries, 2, 5)
        merged = WorkloadCostEstimator.merge(
            [
                WorkloadCostEstimator(queries[:8], 2, 5),
                WorkloadCostEstimator(queries[8:], 2, 5),
            ]
        )
        for s in ["XYXYXYXYXY", "XXYYXYXYXY", "YXYXYXYXYX"]:
            sigma = BMC.from_string(s)
            assert merged.cost(sigma) == whole.cost(sigma)

    @pytest.mark.parametrize(
        "cls", [GlobalCostEstimator, PatternTables, WorkloadCostEstimator], ids=lambda c: c.__name__
    )
    def test_merge_nothing_rejected(self, cls):
        with pytest.raises(ValueError, match="nothing to merge"):
            cls.merge([])


class TestCostDiscriminates:
    def test_query_aligned_curve_wins(self):
        # workload of wide flat queries: a curve keeping x in the low
        # bits must be cheaper than one keeping y in the low bits
        lo = [(0, 3), (8, 9), (16, 40)]
        queries = Workload(lo, [(i + 14, j) for i, j in lo])
        est = WorkloadCostEstimator(queries, 2, 6)
        x_low = BMC.from_string("YYYYYYXXXXXX")
        y_low = BMC.from_string("XXXXXXYYYYYY")
        assert est.cost(x_low) < est.cost(y_low)
