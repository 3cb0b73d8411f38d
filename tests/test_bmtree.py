"""Tests for BMTree-lite (piecewise BMC learner, §6.3 host)."""
import numpy as np
import pytest

from repro.core.bmc import BMC
from repro.core.query import RangeQuery, Workload
from repro.learn.bmtree import BMTreeLite, _fill_curve
from repro.storage.blockstore import BlockStore
from repro.workloads.datasets import osm_like, uni
from repro.workloads.queries import data_following


class TestFillCurve:
    def test_empty_prefix_is_interleave(self):
        assert _fill_curve([], 2, 3).to_string() == "XYXYXY"

    def test_prefix_goes_to_top(self):
        sigma = _fill_curve([1, 1], 2, 3)  # two Y bits first
        assert sigma.to_string().startswith("YY")
        assert sigma.d == 2 and sigma.ell == 3

    def test_prefix_exhausting_dimension(self):
        sigma = _fill_curve([0, 0, 0], 2, 3)
        assert sigma.to_string() == "XXXYYY"

    def test_over_budget_prefix_rejected(self):
        with pytest.raises(ValueError):
            _fill_curve([0, 0, 0, 0], 2, 3)


class TestConstruction:
    def setup_method(self):
        self.ell = 8
        self.pts = osm_like(4000, self.ell, seed=0)
        self.queries = data_following(self.pts, 40, self.ell, delta=8, seed=1)

    @pytest.mark.parametrize("reward", ["sp", "gc", "lc"])
    def test_fit_produces_partition(self, reward):
        tree = BMTreeLite(2, self.ell, h=4, reward=reward, sample_rate=0.05, seed=0)
        tree.fit(self.pts, self.queries)
        assert 1 <= tree.stats.n_leaves <= 16
        # leaves partition the grid: values() covers every point exactly once
        vals = tree.values(self.pts)
        assert len(vals) == len(self.pts)

    def test_values_bijective_on_grid(self):
        ell = 3
        tree = BMTreeLite(2, ell, h=2, reward="gc", seed=0)
        grid = np.array(
            [(x, y) for x in range(8) for y in range(8)], dtype=np.uint64
        )
        queries = Workload([[0, 0], [4, 2]], [[3, 3], [6, 7]])
        tree.fit(grid, queries)
        vals = tree.values(grid)
        assert len(set(vals.tolist())) == 64
        assert vals.max() == 63

    @pytest.mark.parametrize(
        "d,ell,h,reward", [(2, 5, 1, "gc"), (2, 6, 4, "sp"), (2, 5, 10, "lc"), (3, 4, 5, "gc")]
    )
    def test_values_match_the_leaf_holding_each_point(self, d, ell, h, reward):
        # reference: find each point's leaf by its box, then its BMC's value
        rng = np.random.default_rng(h)
        pts = rng.integers(0, 1 << ell, size=(300, d)).astype(np.uint64)
        lo = rng.integers(0, 1 << ell, size=(20, d))
        hi = np.minimum(lo + 3, (1 << ell) - 1)
        tree = BMTreeLite(d, ell, h=h, reward=reward, sample_rate=0.2, seed=0)
        tree.fit(pts, Workload(lo, hi))
        assert len(tree.leaves) == 2**h
        expected = []
        for p in pts.tolist():
            (leaf,) = [lf for lf in tree.leaves if RangeQuery(lf.lo, lf.hi).contains(p)]
            expected.append(leaf.sigma.value(p))
        assert tree.values(pts).tolist() == expected

    def test_values_requires_fit(self):
        tree = BMTreeLite(2, 4, h=2)
        with pytest.raises(RuntimeError):
            tree.values(np.zeros((1, 2), dtype=np.uint64))

    def test_out_of_domain_points_rejected(self):
        tree = BMTreeLite(2, 3, h=1, reward="gc")
        tree.fit(uni(100, 3, 0), Workload([[0, 0]], [[3, 3]]))
        with pytest.raises(ValueError):
            tree.values(np.array([[100, 0]], dtype=np.uint64))

    @pytest.mark.parametrize("reward", ["sp", "gc"])
    def test_workload_off_the_grid_rejected(self, reward):
        tree = BMTreeLite(2, 4, h=2, reward=reward, sample_rate=0.5)
        pts = uni(50, 4, 0)
        with pytest.raises(ValueError, match="1-dimensional"):
            tree.fit(pts, Workload([[1], [3]], [[5], [9]]))
        with pytest.raises(ValueError, match="exceed"):
            tree.fit(pts, Workload([[1, 1]], [[16, 2]]))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BMTreeLite(2, 4, h=2, reward="xx")
        with pytest.raises(ValueError):
            BMTreeLite(2, 4, h=0)
        with pytest.raises(ValueError):
            BMTreeLite(2, 4, h=2, sample_rate=0)


class TestRewardAccounting:
    def test_equal_eval_counts_across_variants(self):
        # the paper's comparison requires all variants to perform the
        # same number of reward evaluations
        pts = osm_like(2000, 6, seed=1)
        qs = data_following(pts, 30, 6, delta=4, seed=2)
        counts = set()
        for reward in ("sp", "gc", "lc"):
            tree = BMTreeLite(2, 6, h=3, reward=reward, sample_rate=0.1, seed=0)
            tree.fit(pts, qs)
            counts.add(tree.stats.n_reward_evals)
        assert len(counts) == 1

    def test_sp_samples_at_rate(self):
        pts = uni(10_000, 8, 0)
        qs = data_following(pts, 10, 8, delta=4, seed=0)
        tree = BMTreeLite(2, 8, h=2, reward="sp", sample_rate=0.01, seed=0)
        tree.fit(pts, qs)
        assert tree.stats.sample_size == 100

    def test_gc_lc_ignore_data_size(self):
        qs = Workload([[0, 0]], [[7, 7]])
        for reward in ("gc", "lc"):
            tree = BMTreeLite(2, 6, h=2, reward=reward)
            tree.fit(uni(50, 6, 0), qs)
            assert tree.stats.sample_size == 0


class TestQueryQuality:
    def test_learned_tree_not_much_worse_than_zc(self):
        # sanity: the learned piecewise curve should be competitive with
        # plain ZC on its own learning workload
        ell = 8
        pts = osm_like(6000, ell, seed=3)
        qs = data_following(pts, 60, ell, delta=16, aspect=16.0, seed=4)
        zc_store = BlockStore(pts, BMC.zc(2, ell).values(pts))
        zc_cost = zc_store.avg_block_accesses(qs)
        tree = BMTreeLite(2, ell, h=4, reward="lc", seed=0).fit(pts, qs)
        tree_cost = BlockStore(pts, tree.values(pts)).avg_block_accesses(qs)
        assert tree_cost <= 1.5 * zc_cost
