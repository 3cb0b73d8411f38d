"""Tests for the QUILTS competitor implementation."""
import numpy as np
import pytest

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator
from repro.core.query import Workload
from repro.learn.quilts import design_candidates, quilts


def flat_queries(ell=8, n=10, w=16, h=2, seed=0):
    g = np.random.default_rng(seed)
    top = (1 << ell) - 1
    lo = []
    for _ in range(n):
        lo.append((int(g.integers(0, top - w + 2)), int(g.integers(0, top - h + 2))))
    return Workload(lo, [(x + w - 1, y + h - 1) for x, y in lo])


class TestCandidates:
    def test_all_valid_and_unique(self):
        qs = flat_queries()
        cands = design_candidates(qs, 2, 8)
        assert len(cands) == len({c.slots for c in cands})
        for c in cands:
            assert c.d == 2 and c.ell == 8

    def test_includes_standard_curves(self):
        qs = flat_queries()
        cands = {c.slots for c in design_candidates(qs, 2, 8)}
        assert BMC.zc(2, 8).slots in cands
        assert BMC.lex(2, 8).slots in cands

    def test_tile_aligned_candidate_present(self):
        # queries of 16 x 2 -> a_x = 4, a_y = 1: some candidate must place
        # 4 x-bits and 1 y-bit in the lowest 5 slots
        qs = flat_queries(w=16, h=2)
        found = False
        for c in design_candidates(qs, 2, 8):
            low5 = c.slots[:5]
            if low5.count(0) == 4 and low5.count(1) == 1:
                found = True
        assert found

    def test_d3_candidates(self):
        qs = Workload([[0, 0, 0], [2, 2, 2]], [[7, 3, 1], [9, 5, 3]])
        cands = design_candidates(qs, 3, 6)
        assert all(c.d == 3 and c.ell == 6 for c in cands)
        assert len(cands) >= 4


class TestSelection:
    def test_quilts_beats_or_ties_zc_for_flat_queries(self):
        qs = flat_queries(w=32, h=2, n=20)
        est = WorkloadCostEstimator(qs, 2, 8)
        res = quilts(est, qs)
        assert res.best_cost <= est.cost(BMC.zc(2, 8))
        assert res.n_candidates >= 4
        assert res.learn_seconds >= 0

    def test_quilts_cost_is_minimum_of_candidates(self):
        qs = flat_queries(seed=4)
        est = WorkloadCostEstimator(qs, 2, 8)
        res = quilts(est, qs)
        assert res.best_cost == min(est.cost(c) for c in design_candidates(qs, 2, 8))

    def test_square_queries_prefer_balanced_curve(self):
        # for square queries the tile candidate degenerates toward ZC
        starts = range(0, 200, 13)
        qs = Workload([(i, i) for i in starts], [(i + 7, i + 7) for i in starts])
        est = WorkloadCostEstimator(qs, 2, 8)
        res = quilts(est, qs)
        lex_cost = est.cost(BMC.lex(2, 8))
        assert res.best_cost <= lex_cost
