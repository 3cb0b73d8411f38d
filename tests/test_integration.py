"""Cross-cutting integration tests: higher dimensions, boundary ℓ,
full pipeline consistency (estimator -> learner -> storage metric)."""
import numpy as np
import pytest

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator, naive_cost
from repro.core.local_cost import exact_sections, sections_via_patterns
from repro.core.query import RangeQuery, Workload
from repro.learn.bmtree import BMTreeLite
from repro.learn.lbmc import LBMC
from repro.learn.quilts import design_candidates, quilts
from repro.storage.blockstore import BlockStore
from repro.workloads.datasets import osm_like, uni
from repro.workloads.queries import data_following, random_squares


class TestThreeDimensions:
    """The paper evaluates d in {2,3,4}; exercise the full stack at d=3."""

    def setup_method(self):
        g = np.random.default_rng(0)
        self.ell = 6
        top = (1 << self.ell) - 1
        lo, hi = [], []
        for _ in range(20):
            lo.append(g.integers(0, top + 1, 3))
            hi.append(np.minimum(top, lo[-1] + g.integers(0, 6, 3)))
        self.queries = Workload(lo, hi)

    def test_estimator_agrees_with_naive_d3(self):
        est = WorkloadCostEstimator(self.queries, 3, self.ell)
        g = np.random.default_rng(1)
        for _ in range(5):
            sigma = BMC(tuple(int(s) for s in g.permutation([0, 1, 2] * self.ell)))
            assert est.cost(sigma) == naive_cost(sigma, self.queries)

    def test_lbmc_runs_d3(self):
        est = WorkloadCostEstimator(self.queries, 3, self.ell)
        res = LBMC(est, episodes=2, seed=0).learn()
        assert res.best.d == 3 and res.best_cost <= res.initial_cost

    def test_quilts_runs_d3(self):
        est = WorkloadCostEstimator(self.queries, 3, self.ell)
        res = quilts(est, self.queries)
        assert res.best.d == 3

    def test_bmtree_runs_d3(self):
        g = np.random.default_rng(2)
        pts = g.integers(0, 1 << self.ell, size=(2000, 3)).astype(np.uint64)
        tree = BMTreeLite(3, self.ell, h=3, reward="lc", seed=0)
        tree.fit(pts, self.queries)
        vals = tree.values(pts)
        assert len(vals) == 2000


class TestLargeEll:
    """ℓ=20 (the paper's query-experiment setting): 40-bit curve values."""

    def test_cost_model_at_ell20(self):
        queries = random_squares(16, ell=20, delta=1024, seed=0)
        est = WorkloadCostEstimator(queries, 2, 20)
        zc, lex = BMC.zc(2, 20), BMC.lex(2, 20)
        for sigma in (zc, lex):
            assert est.cost(sigma) == naive_cost(sigma, queries)

    def test_sections_match_at_ell20(self):
        sigma = BMC.zc(2, 20)
        q = RangeQuery((123_456, 654_321), (123_470, 654_339))
        assert sections_via_patterns(sigma, q) == exact_sections(sigma, q)

    def test_curve_values_at_ell20(self):
        pts = uni(1000, 20, seed=0)
        vals = BMC.zc(2, 20).values(pts)
        assert vals.max() < 1 << 40


class TestPiecewiseOrderConsistency:
    """A BMTree's piecewise values must be a globally consistent order:
    every point in leaf A (earlier in tree order) precedes leaf B."""

    def test_leaf_value_ranges_disjoint(self):
        ell = 5
        grid = np.array(
            [(x, y) for x in range(32) for y in range(32)], dtype=np.uint64
        )
        queries = Workload([[0, 0], [20, 3]], [[7, 31], [25, 9]])
        tree = BMTreeLite(2, ell, h=3, reward="gc", seed=1).fit(grid, queries)
        ranges = []
        for leaf in tree.leaves:
            mask = np.ones(len(grid), dtype=bool)
            for i in range(2):
                mask &= (grid[:, i] >= leaf.lo[i]) & (grid[:, i] <= leaf.hi[i])
            vals = tree.values(grid[mask])
            ranges.append((int(vals.min()), int(vals.max())))
        ranges.sort()
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 < lo2  # strictly disjoint, consistent global order


class TestPipelineConsistency:
    def test_estimator_ranking_predicts_block_accesses(self):
        """Eq. 4's purpose: lower estimated cost => fewer block accesses
        — verified on an extreme pair of curves where the gap is huge."""
        ell = 10
        pts = osm_like(30_000, ell, seed=0)
        qs = data_following(pts, 60, ell, delta=64, aspect=16.0, seed=1)
        est = WorkloadCostEstimator(qs, 2, ell)
        x_low = BMC.from_string("Y" * ell + "X" * ell)
        y_low = BMC.from_string("X" * ell + "Y" * ell)
        assert est.cost(x_low) < est.cost(y_low)
        acc = {}
        for name, sigma in [("good", x_low), ("bad", y_low)]:
            store = BlockStore(pts, sigma.values(pts), 64)
            acc[name] = store.avg_block_accesses(qs)
        assert acc["good"] < acc["bad"]

    def test_lbmc_warm_start_never_worse_than_quilts(self):
        ell = 10
        pts = osm_like(10_000, ell, seed=2)
        qs = data_following(pts, 50, ell, delta=64, aspect=1 / 8.0, seed=3)
        est = WorkloadCostEstimator(qs, 2, ell)
        q_res = quilts(est, qs)
        l_res = LBMC(est, episodes=2, seed=0).learn(
            warm_start=design_candidates(qs, 2, ell)
        )
        assert l_res.best_cost <= q_res.best_cost
