"""Curve-ordered block storage and block-access accounting.

The paper's query-efficiency metric is "the average number of block
accesses as reported by PostgreSQL" after ordering the data points by an
SFC and indexing the 1-D curve values with a B+-tree (Section 6.1).  We
reproduce that substrate directly: points are sorted by curve value and
packed ``B`` per block (the paper's block size ``B``, §4.2 Intuition);
a range query must fetch every block that holds at least one matching
point.  This is exactly the quantity the paper's §4.2 intuition
analyses — each query section can add up to two boundary blocks that
mostly contain non-matching points — so the *relative* ordering of SFCs
under this metric matches the PostgreSQL measurements.

Default block size: 204 points/block ≈ an 8 KB PostgreSQL heap page
holding 2-D points with a rowid (3 * 8 bytes + tuple overhead ~40 B).

Storage type: non-negative integer coordinates, and the per-block zone
map, are held in the narrowest unsigned type that holds the largest one
(``np.min_scalar_type``; uint16 on a 2^16 grid), and a query's int64
bounds are cast into that type exactly before the scan.  A uint16
comparison over the ~10^4 points a query examines runs ~3x faster than
a uint64 one.  Negative or float coordinates are stored as given.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.query import RangeQuery, Workload

DEFAULT_BLOCK_SIZE = 204  # ~8 KB PostgreSQL page of 2-D point tuples
#: Bound on the points one pass of queries may scan (queries * padded
#: points, if every block's box met every query), which sets how many
#: queries share a pass.
_MASK_ENTRIES = 1 << 22


def _stable_sort(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, vals[order])`` with ``order`` the stable argsort of ``vals``.

    Non-negative integer values of at most ``64 - k`` bits, with ``k``
    the bit length of ``n - 1``, are sorted as the unique uint64 keys
    ``value << k | row``: distinct keys sort to exactly the stable order,
    and one in-place ``np.sort`` of them (numpy's vectorised integer
    sort) is several times faster than the stable argsort (a timsort).
    The low ``k`` bits of a sorted key are its row, the rest its value.
    Other values (negative, float, or too wide) take the stable argsort."""
    n = len(vals)
    k = (n - 1).bit_length()
    if (
        n
        and vals.dtype.kind in "iu"
        and (vals.dtype.kind == "u" or vals.min() >= 0)
        and int(vals.max()).bit_length() + k <= 64
    ):
        key = vals.astype(np.uint64)
        key <<= np.uint64(k)
        key |= np.arange(n, dtype=np.uint64)
        key.sort()
        order = (key & np.uint64((1 << k) - 1)).view(np.intp)
        key >>= np.uint64(k)
        return order, key.astype(vals.dtype, copy=False)
    order = np.argsort(vals, kind="stable")
    return order, vals[order]


class Accesses(NamedTuple):
    """Per-query counts of a workload over a store, as int64 arrays."""

    rows: np.ndarray  # matching points
    blocks: np.ndarray  # distinct blocks holding >= 1 matching point
    fetched: np.ndarray  # points in those blocks (only the last block can be short)
    examined: np.ndarray  # blocks whose bounding box meets the query (>= blocks)


class BlockStore:
    """Points sorted by a 1-D curve value, packed ``block_size`` per block.

    Each block keeps the bounding box of its points (a zone map, the
    per-page min/max that Parquet row groups and BRIN indexes keep), so
    a query scans only the blocks whose box it meets.

    ``points`` holds the input's values; non-negative integer points
    are stored in the narrowest unsigned type that holds them.

    Points of equal value keep their input order.  The build sorts the
    unique keys ``value << k | row`` (``k`` the bit length of ``n - 1``)
    with one in-place ``np.sort`` when the values are non-negative
    integers of at most ``64 - k`` bits, as every BMC's are at
    ``d * ell + k <= 64``; other values fall back to a stable argsort."""

    def __init__(
        self,
        points: np.ndarray,
        curve_values: np.ndarray,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        pts = np.asarray(points)
        vals = np.asarray(curve_values)
        if pts.ndim != 2 or len(pts) != len(vals):
            raise ValueError("points must be (n, d) aligned with curve_values")
        if block_size < 1:
            raise ValueError("block size must be >= 1")
        order, self.values = _stable_sort(vals)
        n, d = pts.shape
        self.block_size = block_size
        self.n_blocks = -(-n // block_size)
        # the narrowest type that holds the coordinates (module docstring)
        dtype = pts.dtype
        if n and pts.dtype.kind in "iu" and (pts.dtype.kind == "u" or pts.min() >= 0):
            dtype = np.min_scalar_type(pts.max())
        # one contiguous run per dimension, padded to whole blocks so a
        # block's points are one row of ``_cols[i].reshape(n_blocks, B)``;
        # gathering column by column is also ~3x faster than pts[order]
        self._cols = np.empty((d, self.n_blocks * block_size), dtype=dtype)
        self._cols[:, n:] = 0
        for i in range(d):
            # ``order`` is a permutation, so "clip" never clips; it spares
            # the copy of ``out`` that the default "raise" mode buffers.
            # Casting the column first keeps ``take`` a same-type gather.
            col = pts[:, i].astype(dtype, copy=False)
            np.take(col, order, out=self._cols[i, :n], mode="clip")
        self.points = self._cols[:, :n].T
        # the zone map: (n_blocks, d) per-block minima and maxima
        starts = np.arange(0, n, block_size)
        self.box_lo = np.asfortranarray(np.minimum.reduceat(self.points, starts, axis=0))
        self.box_hi = np.asfortranarray(np.maximum.reduceat(self.points, starts, axis=0))

    def accesses(self, queries: Workload) -> Accesses:
        """Execute every query of a workload; per-query rows, blocks,
        fetched and examined.

        Blocks accessed = distinct blocks holding >= 1 matching point —
        the B+-tree fetches each such block exactly once regardless of
        how many query sections land in it.  Only the blocks whose box
        meets a query are scanned, point by point, for matches."""
        return self._count(queries.lo, queries.hi)

    def _count(self, lo: np.ndarray, hi: np.ndarray) -> Accesses:
        """``accesses`` over valid (m, d) int64 bounds (0 <= lo <= hi)."""
        n, d = self.points.shape
        if lo.shape[1] != d:
            raise ValueError("query dimensionality mismatch")
        m = len(lo)
        live = np.ones(m, dtype=bool)
        dtype = self._cols.dtype
        if dtype.kind == "u":
            # Cast the bounds exactly into the points' type, whose
            # same-type comparisons are the fast ones: bounds past the
            # type's top are clipped to it, and a query whose ``lo`` passed
            # it in any dimension matches nothing.  At uint64 none can pass.
            if dtype.itemsize < 8:
                top = np.iinfo(dtype).max
                live = (lo <= top).all(axis=1)
                lo, hi = np.minimum(lo, top), np.minimum(hi, top)
            lo, hi = lo.astype(dtype), hi.astype(dtype)
        B, nb = self.block_size, self.n_blocks
        rows, blocks, examined = (np.zeros(m, dtype=np.int64) for _ in range(3))
        last = np.zeros(m, dtype=bool)
        step = max(1, _MASK_ENTRIES // max(1, nb * B))
        for s in range(0, m, step):
            qlo, qhi = lo[s : s + step], hi[s : s + step]
            # step 1: the (query, block) pairs whose box meets a live query
            meets = np.repeat(live[s : s + step, None], nb, axis=1)
            for i in range(d):
                meets &= self.box_lo[:, i] <= qhi[:, i, None]
                meets &= self.box_hi[:, i] >= qlo[:, i, None]
            q, b = np.divmod(np.flatnonzero(meets), nb)
            examined[s : s + step] = np.bincount(q, minlength=len(qlo))
            # step 2: the exact test over the points of those blocks only
            match = np.ones((len(q), B), dtype=bool)
            for i in range(d):
                col = self._cols[i].reshape(nb, B)[b]
                match &= col >= qlo[q, i, None]
                match &= col <= qhi[q, i, None]
            hits = np.count_nonzero(match, axis=1)
            # the pad after the last point (zeros) is no row: its matches
            # are taken off the last block's hits
            in_last = np.flatnonzero(b == nb - 1)
            if len(in_last):
                pad = np.count_nonzero(match[in_last, n - (nb - 1) * B :], axis=1)
                hits[in_last] -= pad
                last[s + q[in_last[hits[in_last] > 0]]] = True
            rows[s : s + step] = np.bincount(q, weights=hits, minlength=len(qlo))
            blocks[s : s + step] = np.bincount(q[hits > 0], minlength=len(qlo))
        return Accesses(rows, blocks, blocks * B - last * (nb * B - n), examined)

    def _one(self, q: RangeQuery) -> Accesses:
        """``accesses`` of one query: a ``RangeQuery`` is already valid, so
        its bounds go straight to the counting pass as (1, d) arrays."""
        return self._count(np.array([q.lo], dtype=np.int64), np.array([q.hi], dtype=np.int64))

    def query(self, q: RangeQuery) -> tuple[int, int]:
        """Execute a range query; returns (result count, blocks accessed)."""
        acc = self._one(q)
        return int(acc.rows[0]), int(acc.blocks[0])

    def avg_block_accesses(self, queries: Workload) -> float:
        """Average blocks accessed per query — the paper's core metric."""
        if not len(queries):
            raise ValueError("empty workload")
        return float(np.mean(self.accesses(queries).blocks))

    def precision(self, q: RangeQuery) -> float:
        """Fraction of fetched tuples that match (§4.2 Intuition).

        ``V(q) / (blocks * B)`` in the paper's notation, with the actual
        last-block occupancy accounted for."""
        acc = self._one(q)
        if acc.blocks[0] == 0:
            return 1.0
        return int(acc.rows[0]) / int(acc.fetched[0])
