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
from repro.storage.blockstore import BlockStore


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
        store = BlockStore(pts, sigma.values(pts))
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
        b_good = BlockStore(pts, x_low.values(pts)).query(q)[1]
        b_bad = BlockStore(pts, y_low.values(pts)).query(q)[1]
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
        store = BlockStore(pts, sigma.values(pts))
        qs = Workload([[0, 0], [4, 4]], [[1, 1], [7, 7]])
        avg = store.avg_block_accesses(qs)
        assert avg == (store.query(qs[0])[1] + store.query(qs[1])[1]) / 2

    def test_avg_empty_workload_rejected(self):
        pts = grid_points(2)
        store = BlockStore(pts, BMC.zc(2, 2).values(pts))
        with pytest.raises(ValueError):
            store.avg_block_accesses(Workload(np.zeros((0, 2)), np.zeros((0, 2))))


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
    """Points, tied curve values, a block size up to and past N, queries
    that match nothing (and miss every block's box), everything, or the
    origin, and a mask bound that lets anywhere from one query to all of
    them share a pass of ``accesses``.

    Points are non-negative integers (stored in a narrower unsigned
    type, and the queries reach past it at ``top`` = 255), negative
    integers or floats (both stored as they are).

    Values are either random, so every block's box spans about the whole
    domain and nothing is pruned, or one coordinate, so boxes are tight
    along it."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 300))
    top = draw(st.sampled_from([1, 7, 63, 255, 65535]))
    kind = draw(st.sampled_from(["uint64", "int64", "negative", "float64"]))
    if kind == "negative":
        pts = draw(arrays(np.int64, (n, d), elements=st.integers(-top - 1, top)))
    elif kind == "float64":
        pts = draw(arrays(np.float64, (n, d), elements=st.integers(0, top).map(float)))
    else:
        pts = draw(arrays(np.dtype(kind), (n, d), elements=st.integers(0, top)))
    by = draw(st.sampled_from([None, *range(d)]))
    if by is None:
        vals = draw(arrays(np.uint64, n, elements=st.integers(0, 9)))
    else:
        vals = pts[:, by].astype(np.uint64)
    block_size = draw(st.integers(1, n + 8))
    n_blocks = -(-n // block_size)
    mask_entries = draw(st.integers(1, 12 * max(1, n_blocks * block_size)))
    corner = st.lists(st.integers(0, top + 2), min_size=d, max_size=d)
    drawn = [
        (tuple(map(min, a, b)), tuple(map(max, a, b)))
        for a, b in draw(st.lists(st.tuples(corner, corner), max_size=8))
    ]
    fixed = [
        ((top + 1,) * d, (top + 2,) * d),  # nothing
        ((0,) * d, (top,) * d),  # everything
        ((0,) * d, (0,) * d),  # the origin
    ]
    boxes = fixed + drawn
    queries = Workload([lo for lo, _ in boxes], [hi for _, hi in boxes])
    return pts, vals, block_size, mask_entries, queries


def stored_dtype(pts):
    """The type a store keeps ``pts`` in: the narrowest unsigned integer
    type that holds them when they are non-negative integers, else
    their own."""
    if len(pts) and pts.dtype.kind in "iu" and pts.min() >= 0:
        top = int(pts.max())
        return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if top <= np.iinfo(t).max)
    return pts.dtype


def brute_force(pts, vals, block_size, q):
    """(rows, blocks, fetched, examined) of ``q`` from the stably sorted
    positions; examined counts the blocks whose bounding box meets ``q``."""
    order = sorted(range(len(vals)), key=lambda i: int(vals[i]))
    hits = [pos for pos, i in enumerate(order) if q.contains(pts[i].tolist())]
    blocks = {pos // block_size for pos in hits}
    fetched = sum(min(block_size, len(vals) - b * block_size) for b in blocks)
    examined = 0
    for s in range(0, len(order), block_size):
        members = pts[order[s : s + block_size]]
        box_lo, box_hi = members.min(axis=0).tolist(), members.max(axis=0).tolist()
        examined += all(a <= y and x <= b for a, b, x, y in zip(q.lo, q.hi, box_lo, box_hi))
    return len(hits), len(blocks), fetched, examined


class TestAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(stores())
    def test_accesses_query_avg_precision(self, case):
        pts, vals, block_size, mask_entries, queries = case
        store = BlockStore(pts, vals, block_size)
        ref = [brute_force(pts, vals, block_size, q) for q in queries]
        order = np.argsort(vals, kind="stable")
        assert store.points.shape == pts.shape
        assert store.points.dtype == stored_dtype(pts)
        assert np.array_equal(store.points, pts[order])
        with mock.patch.object(blockstore, "_MASK_ENTRIES", mask_entries):
            acc = store.accesses(queries)
        assert acc.rows.dtype == acc.blocks.dtype == acc.examined.dtype == np.int64
        assert acc.rows.tolist() == [r for r, _, _, _ in ref]
        assert acc.blocks.tolist() == [b for _, b, _, _ in ref]
        assert acc.fetched.tolist() == [f for _, _, f, _ in ref]
        assert acc.examined.tolist() == [e for _, _, _, e in ref]
        assert np.all(acc.blocks <= acc.examined) and np.all(acc.examined <= store.n_blocks)
        assert acc.examined[0] == 0  # the query past every point misses every box
        for q, (rows, blocks, fetched, _) in zip(queries, ref):
            got = store.query(q)
            assert got == (rows, blocks)
            assert all(type(x) is int for x in got)
            assert store.precision(q) == (rows / fetched if blocks else 1.0)
        assert store.avg_block_accesses(queries) == np.mean([b for _, b, _, _ in ref])


@st.composite
def keyed_stores(draw, side):
    """Points and tied curve values on one ``side`` of the key-sort switch.

    With ``k`` the bit length of ``n - 1``, the widest value has
    ``64 - k`` bits on the ``"key"`` side and ``65 - k`` bits (or a
    negative value) on the ``"argsort"`` side.  The values are a few
    distinct ones repeated, so most rows tie with others.

    The largest coordinate is ``span``, drawn on both sides of every
    switch between stored types (uint8 to uint64).  Besides a random few,
    the queries cover everything, the origin, the largest coordinate and
    past it, and reach past the largest coordinate and past the stored
    type's top with ``hi`` and with ``lo``."""
    d = draw(st.integers(1, 4))
    block_size = draw(st.integers(1, 64))
    n = draw(st.sampled_from([0, 1, block_size, block_size + 1]) | st.integers(0, 2000))
    k = (n - 1).bit_length()
    dtype = draw(st.sampled_from([np.uint64, np.int64]))
    bits = 64 - k + (side == "argsort")
    negative = side == "argsort" and (bits > 64 or draw(st.booleans()) or dtype is np.int64 and bits > 63)
    if negative:
        dtype = np.int64
    bits = min(bits, 63 if dtype is np.int64 else 64)
    top = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    pool = [top, *draw(st.lists(st.integers(0, top) | st.integers(0, 9), max_size=5))]
    if negative:
        pool.insert(0, draw(st.integers(-(1 << 63), -1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pick = rng.integers(0, len(pool), n)
    pick[: min(n, len(pool))] = np.arange(min(n, len(pool)))  # the widest value is drawn
    rng.shuffle(pick)
    vals = np.array(pool, dtype=dtype)[pick]
    spans = [1, 7, 63, 255, 256, 65535, 65536, (1 << 32) - 1, 1 << 32, 1 << 60]
    span = draw(st.sampled_from(spans))
    pts = rng.integers(0, span, size=(n, d), endpoint=True).astype(draw(st.sampled_from([np.uint64, np.int64])))
    if n:
        pts[rng.integers(n), rng.integers(d)] = span  # the largest coordinate is drawn
    top = np.iinfo(stored_dtype(pts)).max if n else span
    past = (1 << 63) - 1  # the largest bound a Workload holds
    beyond = min(top + 1, past)  # past the stored type's top
    corners = rng.integers(0, span, size=(3, 2, d), endpoint=True)
    lo, hi = corners.min(axis=1).tolist(), corners.max(axis=1).tolist()
    queries = Workload(
        [[0] * d, [0] * d, [span] * d, [span + 1] * d, lo[0], [0] * (d - 1) + [beyond], *lo],
        [[span] * d, [0] * d, [past] * d, [past] * d, [beyond] * d, [span] * (d - 1) + [past], *hi],
    )
    return pts, vals, block_size, queries


class TestKeySort:
    @pytest.mark.parametrize("side", ["key", "argsort"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_store_equals_the_stable_argsort_store(self, side, data):
        """The (value, row) key sort lays out exactly the store a stable
        argsort does, and each side of the 64-bit switch is taken."""
        pts, vals, block_size, queries = data.draw(keyed_stores(side))
        with mock.patch.object(np, "argsort", wraps=np.argsort) as spy:
            store = BlockStore(pts, vals, block_size)
        assert spy.called == (side == "argsort" or len(vals) == 0)
        order = np.argsort(vals, kind="stable")
        starts = np.arange(0, len(vals), block_size)
        assert store.points.dtype == stored_dtype(pts) and store.values.dtype == vals.dtype
        assert np.array_equal(store.points, pts[order])
        assert np.array_equal(store.values, vals[order])
        assert np.array_equal(store.box_lo, np.minimum.reduceat(pts[order], starts, axis=0))
        assert np.array_equal(store.box_hi, np.maximum.reduceat(pts[order], starts, axis=0))
        got = store.accesses(queries)
        for q, *counts in zip(queries, *got):
            assert tuple(counts) == brute_force(pts, vals, block_size, q)
