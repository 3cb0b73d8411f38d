"""Tests for the curve-ordered block storage substrate (§4.2 intuition)."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.bmc import BMC
from repro.core.query import RangeQuery, Workload
from repro.storage import blockstore
from repro.storage.blockstore import BlockStore, order_by_curve


def grid_points(ell):
    n = 1 << ell
    return np.array([(x, y) for x in range(n) for y in range(n)], dtype=np.uint64)


class TestBasics:
    def test_sorted_by_value(self):
        pts = grid_points(3)
        sigma = BMC.zc(2, 3)
        store = BlockStore(pts, sigma.values(pts), block_size=4)
        assert np.all(np.diff(store.values.astype(np.int64)) >= 0)

    def test_n_blocks(self):
        pts = grid_points(2)  # 16 points
        store = BlockStore(pts, BMC.zc(2, 2).values(pts), block_size=5)
        assert store.n_blocks == 4  # ceil(16 / 5)

    def test_empty_store(self):
        store = BlockStore(np.empty((0, 2)), np.empty(0), block_size=4)
        assert store.n_blocks == 0
        assert store.query(RangeQuery((0, 0), (1, 1))) == (0, 0)

    def test_invalid_args(self):
        pts = grid_points(2)
        with pytest.raises(ValueError):
            BlockStore(pts, np.zeros(3))
        with pytest.raises(ValueError):
            BlockStore(pts, BMC.zc(2, 2).values(pts), block_size=0)


class TestQuery:
    def test_result_count_matches_filter(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 64, size=(500, 2)).astype(np.uint64)
        sigma = BMC.zc(2, 6)
        store = order_by_curve(pts, sigma.values)
        q = RangeQuery((10, 10), (30, 25))
        n, blocks = store.query(q)
        expected = sum(1 for p in pts if q.contains(p))
        assert n == expected
        assert 0 <= blocks <= store.n_blocks

    def test_no_match_zero_blocks(self):
        pts = np.zeros((10, 2), dtype=np.uint64)
        store = BlockStore(pts, np.zeros(10), block_size=4)
        assert store.query(RangeQuery((5, 5), (6, 6))) == (0, 0)

    def test_dimension_mismatch(self):
        pts = grid_points(2)
        store = BlockStore(pts, BMC.zc(2, 2).values(pts), block_size=4)
        with pytest.raises(ValueError):
            store.query(RangeQuery((0, 0, 0), (1, 1, 1)))

    def test_good_curve_fewer_blocks(self):
        # Example 3's point: the same query needs fewer blocks under a
        # curve with fewer query sections. Wide query, full grid:
        pts = grid_points(4)
        q = RangeQuery((0, 5), (15, 5))  # one full row
        x_low = BMC.from_string("YYYYYYYYXXXXXXXX")  # row-contiguous
        y_low = BMC.from_string("XXXXXXXXYYYYYYYY")
        b_good = order_by_curve(pts, x_low.values).query(q)[1]
        b_bad = order_by_curve(pts, y_low.values).query(q)[1]
        assert b_good < b_bad

    def test_coordinates_past_2_53_compare_exactly(self):
        # uint64 coordinates one apart above 2^53 are equal as float64
        top = 1 << 60
        pts = np.array([[top], [top + 1]], dtype=np.uint64)
        store = BlockStore(pts, np.arange(2), block_size=1)
        assert store.query(RangeQuery((top + 1,), (top + 1,))) == (1, 1)

    def test_avg_block_accesses(self):
        pts = grid_points(3)
        sigma = BMC.zc(2, 3)
        store = order_by_curve(pts, sigma.values)
        qs = [RangeQuery((0, 0), (1, 1)), RangeQuery((4, 4), (7, 7))]
        avg = store.avg_block_accesses(qs)
        assert avg == (store.query(qs[0])[1] + store.query(qs[1])[1]) / 2

    def test_avg_empty_workload_rejected(self):
        store = order_by_curve(grid_points(2), BMC.zc(2, 2).values)
        with pytest.raises(ValueError):
            store.avg_block_accesses([])


class TestPrecision:
    def test_single_section_precision(self):
        # §4.2: one query section over B=4 blocks — Example 3's layout.
        # A full row query under a row-contiguous curve is one section.
        pts = grid_points(3)
        x_low = BMC.from_string("YYYXXX")
        store = BlockStore(pts, x_low.values(pts), block_size=4)
        q = RangeQuery((0, 2), (7, 2))  # one row = 8 points = 2 blocks
        n, blocks = store.query(q)
        assert n == 8
        assert store.precision(q) == pytest.approx(8 / (blocks * 4))

    def test_perfect_precision_when_aligned(self):
        pts = grid_points(2)
        sigma = BMC.zc(2, 2)
        store = BlockStore(pts, sigma.values(pts), block_size=4)
        # ZC quadrant = exactly one block of 4
        q = RangeQuery((0, 0), (1, 1))
        assert store.precision(q) == 1.0

    def test_empty_query_precision(self):
        store = BlockStore(np.zeros((4, 2), dtype=np.uint64), np.arange(4), 2)
        assert store.precision(RangeQuery((9, 9), (9, 9))) == 1.0


@st.composite
def stores(draw):
    """Points, tied curve values, a block size up to and past N, and
    queries that match nothing, everything, or the origin."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 300))
    top = draw(st.sampled_from([1, 7, 63]))
    dtype = draw(st.sampled_from([np.uint64, np.int64]))
    pts = draw(arrays(dtype, (n, d), elements=st.integers(0, top)))
    vals = draw(arrays(np.uint64, n, elements=st.integers(0, 9)))
    block_size = draw(st.integers(1, n + 8))
    corner = st.lists(st.integers(0, top + 2), min_size=d, max_size=d)
    drawn = [
        RangeQuery(tuple(map(min, a, b)), tuple(map(max, a, b)))
        for a, b in draw(st.lists(st.tuples(corner, corner), max_size=8))
    ]
    fixed = [
        RangeQuery((0,) * d, (top,) * d),  # everything
        RangeQuery((top + 1,) * d, (top + 2,) * d),  # nothing
        RangeQuery((0,) * d, (0,) * d),  # the origin
    ]
    return pts, vals, block_size, fixed + drawn


def brute_force(pts, vals, block_size, q):
    """(rows, blocks, fetched) of ``q`` from the stably sorted positions."""
    order = sorted(range(len(vals)), key=lambda i: int(vals[i]))
    hits = [pos for pos, i in enumerate(order) if q.contains(pts[i].tolist())]
    blocks = {pos // block_size for pos in hits}
    fetched = sum(min(block_size, len(vals) - b * block_size) for b in blocks)
    return len(hits), len(blocks), fetched


class TestAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(stores(), st.integers(1, 2000))
    def test_accesses_query_avg_precision(self, case, mask_entries):
        pts, vals, block_size, queries = case
        store = BlockStore(pts, vals, block_size)
        ref = [brute_force(pts, vals, block_size, q) for q in queries]
        order = np.argsort(vals, kind="stable")
        assert store.points.shape == pts.shape
        assert np.array_equal(store.points, pts[order])
        # a small mask bound splits the workload into several passes
        with mock.patch.object(blockstore, "_MASK_ENTRIES", mask_entries):
            acc = store.accesses(Workload([q.lo for q in queries], [q.hi for q in queries]))
        assert acc.rows.dtype == acc.blocks.dtype == np.int64
        assert acc.rows.tolist() == [r for r, _, _ in ref]
        assert acc.blocks.tolist() == [b for _, b, _ in ref]
        assert acc.fetched.tolist() == [f for _, _, f in ref]
        for q, (rows, blocks, fetched) in zip(queries, ref):
            got = store.query(q)
            assert got == (rows, blocks)
            assert all(type(x) is int for x in got)
            assert store.precision(q) == (rows / fetched if blocks else 1.0)
        assert store.avg_block_accesses(queries) == np.mean([b for _, b, _ in ref])
