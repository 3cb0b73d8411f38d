"""Tests for the array-native ``Workload`` and the generators that build it."""
import math
import re

import numpy as np
import pytest

from repro.core.cost_model import WorkloadCostEstimator
from repro.core.global_cost import GlobalCostEstimator
from repro.core.local_cost import PatternTables
from repro.core.query import RangeQuery, Workload, queries_to_arrays
from repro.workloads.datasets import make_dataset, osm_like
from repro.workloads.queries import data_following, random_squares


def _box_at(center, w, h, ell):
    """Reference: one clipped w x h box, built query by query."""
    top = (1 << ell) - 1
    cx, cy = int(center[0]), int(center[1])
    lo_x = max(0, min(cx - w // 2, top - (w - 1)))
    lo_y = max(0, min(cy - h // 2, top - (h - 1)))
    return RangeQuery((lo_x, lo_y), (min(top, lo_x + w - 1), min(top, lo_y + h - 1)))


def reference_data_following(points, n, ell, delta, aspect=1.0, seed=0):
    g = np.random.default_rng(seed)
    w = max(1, int(round(delta * math.sqrt(aspect))))
    h = max(1, int(round(delta / math.sqrt(aspect))))
    centers = points[g.integers(0, len(points), size=n)]
    return [_box_at(c, w, h, ell) for c in centers]


def reference_random_squares(n, ell, delta, seed=0, d=2):
    g = np.random.default_rng(seed)
    top = (1 << ell) - 1
    out = []
    for _ in range(n):
        lo = g.integers(0, top - delta + 2, size=d)
        out.append(
            RangeQuery(tuple(int(x) for x in lo), tuple(int(x) + delta - 1 for x in lo))
        )
    return out


def _plain_ints(queries):
    return all(type(x) is int for q in queries for x in (*q.lo, *q.hi))


class TestWorkload:
    def setup_method(self):
        self.qs = [
            RangeQuery((0, 1), (2, 3)), RangeQuery((4, 4), (5, 6)), RangeQuery((1, 0), (1, 7))
        ]
        self.w = Workload([[0, 1], [4, 4], [1, 0]], [[2, 3], [5, 6], [1, 7]])

    def test_len_index_iter(self):
        assert len(self.w) == 3 and self.w.d == 2
        assert self.w[1] == self.qs[1] and self.w[-1] == self.qs[-1]
        assert list(self.w) == self.qs
        assert _plain_ints(self.w) and _plain_ints([self.w[0]])

    def test_slice_is_workload(self):
        part = self.w[1:]
        assert isinstance(part, Workload)
        assert list(part) == self.qs[1:]
        assert len(self.w[:0]) == 0

    def test_equality(self):
        assert self.w == Workload(self.w.lo, self.w.hi)
        assert self.w != self.w[:2]
        assert self.w != Workload(self.w.lo, self.w.hi + 1)

    def test_arrays_are_read_only(self):
        with pytest.raises(ValueError):
            self.w.lo[0, 0] = 9

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Workload([[2, 0]], [[1, 5]])
        with pytest.raises(ValueError):
            Workload([[-1, 0]], [[1, 5]])
        with pytest.raises(ValueError):
            Workload([[0, 0]], [[1, 5, 6]])
        with pytest.raises(ValueError):
            Workload([0, 0], [1, 5])

    def test_queries_to_arrays_returns_workload_arrays(self):
        lo, hi = queries_to_arrays(self.w, 2, 3)
        assert lo is self.w.lo and hi is self.w.hi
        with pytest.raises(ValueError):
            queries_to_arrays(self.w[:0], 2, 3)


class TestGeneratorsPinned:
    """The generators return exactly what the per-query loops return."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 1001, 2002])
    @pytest.mark.parametrize("aspect", [1.0, 16.0, 1 / 16.0, 4.0, 1 / 3.0])
    def test_data_following(self, seed, aspect):
        pts = osm_like(5000, 12, seed=3)
        got = data_following(pts, 300, 12, 256, aspect, seed=seed)
        want = reference_data_following(pts, 300, 12, 256, aspect, seed=seed)
        assert list(got) == want and _plain_ints(got)

    @pytest.mark.parametrize("delta", [1, 3, 1024, 5000])
    def test_data_following_clipped_to_grid(self, delta):
        # boxes wider than the grid, and centres near its edges
        pts = make_dataset("SKEW", 2000, 10, seed=1)
        for aspect in (1.0, 16.0):
            got = data_following(pts, 200, 10, delta, aspect, seed=5)
            assert list(got) == reference_data_following(pts, 200, 10, delta, aspect, seed=5)

    @pytest.mark.parametrize("seed", [0, 3, 11, 1001])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("ell,delta", [(10, 16), (16, 1024), (20, 1000), (8, 256)])
    def test_random_squares(self, seed, d, ell, delta):
        got = random_squares(500, ell, delta, seed=seed, d=d)
        assert list(got) == reference_random_squares(500, ell, delta, seed=seed, d=d)
        assert _plain_ints(got)


BAD_WORKLOADS = [
    (Workload(np.zeros((0, 2)), np.zeros((0, 2))), 2, 4, "empty workload"),
    (Workload([[0, 0, 0]], [[1, 1, 1]]), 2, 4, "workload is 3-dimensional, expected 2"),
    (Workload([[0, 0]], [[16, 1]]), 2, 4, "query coordinates exceed 2^4 - 1"),
    (Workload([[0, 0]], [[1, 1]]), 2, 32, "d*ell = 64 exceeds 63 bits"),
]


@pytest.mark.parametrize(
    "cls", [GlobalCostEstimator, PatternTables, WorkloadCostEstimator], ids=lambda c: c.__name__
)
def test_estimators_check_the_workload_alike(cls):
    """Every estimator takes a ``Workload`` only, and rejects an empty one,
    the wrong ``d``, a coordinate of ``2^ell`` and ``d * ell > 63`` with
    the same error."""
    with pytest.raises(TypeError):
        cls([RangeQuery((0, 0), (1, 1))], 2, 4)
    for w, d, ell, message in BAD_WORKLOADS:
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(w, d, ell)
