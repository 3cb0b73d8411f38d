"""Tests for query-workload generators (§6.1)."""
import numpy as np
import pytest

from repro.workloads.datasets import osm_like
from repro.workloads.queries import (
    data_following,
    learning_and_test_workloads,
    random_squares,
)


class TestRandomSquares:
    def test_count_shape_and_size(self):
        qs = random_squares(64, ell=10, delta=16, seed=0)
        assert len(qs) == 64
        for q in qs:
            assert q.hi[0] - q.lo[0] + 1 == 16 and q.hi[1] - q.lo[1] + 1 == 16
            assert q.hi[0] < 1 << 10 and q.hi[1] < 1 << 10

    def test_d3(self):
        qs = random_squares(8, ell=6, delta=4, seed=0, d=3)
        assert all(q.d == 3 and q.n_cells == 64 for q in qs)

    def test_deterministic(self):
        assert random_squares(10, 8, 4, seed=3) == random_squares(10, 8, 4, seed=3)

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            random_squares(1, ell=3, delta=100)


class TestDataFollowing:
    def test_shapes_respect_aspect(self):
        pts = osm_like(5000, 10, 0)
        wide = data_following(pts, 32, 10, delta=16, aspect=16.0, seed=0)
        tall = data_following(pts, 32, 10, delta=16, aspect=1 / 16.0, seed=0)
        for q in wide:
            assert q.hi[0] - q.lo[0] + 1 == 64 and q.hi[1] - q.lo[1] + 1 == 4
        for q in tall:
            assert q.hi[0] - q.lo[0] + 1 == 4 and q.hi[1] - q.lo[1] + 1 == 64

    def test_queries_in_domain(self):
        pts = osm_like(5000, 8, 0)
        for q in data_following(pts, 100, 8, delta=32, seed=1):
            assert 0 <= q.lo[0] and q.hi[0] < 256
            assert 0 <= q.lo[1] and q.hi[1] < 256

    def test_follows_data(self):
        # queries centred on skewed data should concentrate where data is
        from repro.workloads.datasets import skew

        pts = skew(5000, 10, 0)
        qs = data_following(pts, 200, 10, delta=8, seed=0)
        centers = np.array([(q.lo[0] + q.hi[0]) / 2 for q in qs])
        assert np.median(centers) < 150


class TestLearnTestSplit:
    def test_disjoint_seeds(self):
        pts = osm_like(3000, 8, 0)
        learn, test = learning_and_test_workloads(pts, 8, delta=8, n_learn=50, n_test=80)
        assert len(learn) == 50 and len(test) == 80
        assert learn != test[: len(learn)]
