"""Tests for LBMC (Algorithm 3) and the hill-climbing reference."""
import hashlib

import numpy as np
import pytest

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator
from repro.core.query import Workload
from repro.learn.lbmc import LBMC, encode, greedy_hill_climb, valid_action_mask


def wide_workload(ell=6, n=12, seed=0):
    """Wide flat queries: the optimal BMC puts x in the low bits."""
    g = np.random.default_rng(seed)
    top = (1 << ell) - 1
    lo = []
    for _ in range(n):
        lo.append((int(g.integers(0, top - 15)), int(g.integers(0, top + 1))))
    return Workload(lo, [(x + 15, y) for x, y in lo])


class TestEncoding:
    def test_one_hot_shape_and_sum(self):
        sigma = BMC.from_string("XYXYXY")
        v = encode(sigma)
        assert v.shape == (12,)
        assert v.sum() == 6  # one hot bit per slot

    def test_encoding_distinguishes_curves(self):
        a, b = BMC.from_string("XYXY"), BMC.from_string("YXXY")
        assert not np.array_equal(encode(a), encode(b))

    def test_paper_example_xyz(self):
        # §5: X->[0,0,1] style one-hot; each slot contributes exactly one 1
        sigma = BMC.from_string("XYZ"[::-1] + "XYZ"[::-1])  # any valid 3-d curve
        v = encode(sigma)
        assert v.shape == (sigma.nbits * 3,)
        for r in range(sigma.nbits):
            assert v[r * 3 : (r + 1) * 3].sum() == 1


class TestActionMask:
    def test_mask_matches_can_swap(self):
        sigma = BMC.from_string("XXYYXY")
        mask = valid_action_mask(sigma)
        assert mask.shape == (5,)
        for a in range(1, 6):
            assert mask[a - 1] == sigma.can_swap(a)


class TestLearning:
    def test_lbmc_improves_on_bad_start(self):
        queries = wide_workload()
        est = WorkloadCostEstimator(queries, 2, 6)
        bad = BMC.from_string("XXXXXXYYYYYY")  # worst for wide queries
        res = LBMC(est, episodes=4, seed=0).learn(bad)
        assert res.best_cost < res.initial_cost
        assert est.cost(res.best) == res.best_cost

    def test_lbmc_never_worse_than_start(self):
        queries = wide_workload(seed=5)
        est = WorkloadCostEstimator(queries, 2, 6)
        res = LBMC(est, episodes=2, seed=1).learn()
        assert res.best_cost <= res.initial_cost

    def test_lbmc_deterministic_under_seed(self):
        queries = wide_workload(seed=2)
        est = WorkloadCostEstimator(queries, 2, 6)
        r1 = LBMC(est, episodes=2, seed=42).learn()
        r2 = LBMC(est, episodes=2, seed=42).learn()
        assert r1.best == r2.best and r1.best_cost == r2.best_cost

    def test_history_length_and_reward_evals(self):
        queries = wide_workload(seed=3)
        est = WorkloadCostEstimator(queries, 2, 6)
        res = LBMC(est, episodes=3, seed=0).learn()
        # 3 episodes x 3*d*ell steps + the final greedy rollout of as many
        assert len(res.cost_history) == (3 + 1) * 36
        # at least one reward eval per step (+1 initial); exploitation
        # steps add one O(1) eval per candidate swap (lookahead)
        assert res.n_reward_evals >= 1 + (3 + 1) * 36

    def test_pinned_trajectory(self):
        # the exact run at a small fixed configuration: a change to the
        # seeds, the ε schedule, the replay warm-up, the TD step or the
        # lookahead moves these values
        est = WorkloadCostEstimator(wide_workload(seed=3), 2, 6)
        res = LBMC(est, episodes=3, seed=0).learn()
        assert res.best.slots == (0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1)
        assert res.best_cost == 163020
        assert res.n_reward_evals == 739
        assert len(res.cost_history) == 144
        history = ",".join(x.hex() for x in res.cost_history)
        assert hashlib.sha1(history.encode()).hexdigest()[:12] == "26621f276e3f"

    def test_shape_mismatch_rejected(self):
        est = WorkloadCostEstimator(wide_workload(), 2, 6)
        with pytest.raises(ValueError):
            LBMC(est).learn(BMC.zc(2, 5))

    def test_lbmc_approaches_hill_climb_quality(self):
        # small search space (8 slots): RL should match pure exploitation
        g = np.random.default_rng(7)
        lo = [(int(g.integers(0, 8)), int(g.integers(0, 16))) for _ in range(12)]
        queries = Workload(lo, [(x + 7, y) for x, y in lo])
        est = WorkloadCostEstimator(queries, 2, 4)
        hc_sigma, hc_cost = greedy_hill_climb(est)
        res = LBMC(est, episodes=12, seed=0).learn()
        # RL should land within 2x of pure exploitation on this easy case
        assert res.best_cost <= 2 * hc_cost


class TestHillClimb:
    def test_monotone_improvement(self):
        queries = wide_workload(seed=9)
        est = WorkloadCostEstimator(queries, 2, 6)
        sigma, cost = greedy_hill_climb(est)
        assert cost <= est.cost(BMC.zc(2, 6))

    def test_finds_x_low_curve_for_wide_queries(self):
        # for purely wide queries the optimum puts all x bits low;
        # hill climbing from ZC should at least push x bits downward
        ys = range(0, 64, 7)
        queries = Workload([(0, y) for y in ys], [(63, y) for y in ys])
        est = WorkloadCostEstimator(queries, 2, 6)
        sigma, cost = greedy_hill_climb(est)
        x_low = BMC.from_string("YYYYYYXXXXXX")
        assert cost == est.cost(x_low)
