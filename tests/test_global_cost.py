"""Tests for global cost estimation (§4.1): NGC == GC == direct span."""
import numpy as np
import pytest

from repro.core.bmc import BMC
from repro.core.global_cost import (
    GlobalCostEstimator,
    global_cost_single,
    naive_global_cost,
)
from repro.core.query import RangeQuery, Workload


def random_workload(rng, n, d, ell, max_edge=8):
    top = (1 << ell) - 1
    lo, hi = [], []
    for _ in range(n):
        lo.append(rng.integers(0, top + 1, d))
        hi.append(np.minimum(top, lo[-1] + rng.integers(0, max_edge, d)))
    return Workload(lo, hi)


class TestSingleQuery:
    def test_definition_matches_curve_values(self):
        # Definition 2: Cg = F(p_e) - F(p_s) + 1
        sigma = BMC.from_string("XYXYXY")
        q = RangeQuery((0, 2), (4, 3))
        assert global_cost_single(sigma, q) == sigma.value((4, 3)) - sigma.value((0, 2)) + 1

    def test_single_cell_costs_one(self):
        for s in ["XYXY", "YYXX", "XYZXYZ"]:
            sigma = BMC.from_string(s)
            q = RangeQuery((1,) * sigma.d, (1,) * sigma.d)
            assert global_cost_single(sigma, q) == 1

    def test_full_domain_cost(self):
        sigma = BMC.zc(2, 4)
        top = (1 << 4) - 1
        q = RangeQuery((0, 0), (top, top))
        assert global_cost_single(sigma, q) == 1 << 8


class TestNaiveVsEstimator:
    @pytest.mark.parametrize("d,ell", [(2, 6), (2, 10), (3, 5), (4, 4)])
    def test_agreement_random(self, d, ell):
        rng = np.random.default_rng(d * 100 + ell)
        queries = random_workload(rng, 32, d, ell)
        est = GlobalCostEstimator(queries, d, ell)
        for _ in range(10):
            slots = tuple(int(s) for s in rng.permutation(list(range(d)) * ell))
            sigma = BMC(slots)
            expected = sum(global_cost_single(sigma, q) for q in queries)
            assert naive_global_cost(sigma, queries) == expected
            assert est.cost(sigma) == expected

    def test_estimator_rejects_wrong_shape(self):
        rng = np.random.default_rng(0)
        est = GlobalCostEstimator(random_workload(rng, 4, 2, 6), 2, 6)
        with pytest.raises(ValueError):
            est.cost(BMC.zc(2, 5))
        with pytest.raises(ValueError):
            est.cost(BMC.zc(3, 6))

    def test_estimator_rejects_oversized_queries(self):
        with pytest.raises(ValueError):
            GlobalCostEstimator(Workload([[0, 0]], [[64, 64]]), 2, 6)


class TestCostOrdering:
    def test_curve_choice_changes_cost(self):
        # a tall thin query should prefer y-major ordering (smaller span)
        tall = Workload([[5, 0]], [[5, 63]])  # 1 x 64 query, ell = 6
        est = GlobalCostEstimator(tall, 2, 6)
        y_major = BMC.from_string("XXXXXXYYYYYY")  # y contiguous low bits
        x_major = BMC.from_string("YYYYYYXXXXXX")
        assert est.cost(y_major) < est.cost(x_major)
