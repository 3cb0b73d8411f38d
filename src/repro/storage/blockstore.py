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
    a query scans only the blocks whose box it meets."""

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
        order = np.argsort(vals, kind="stable")
        n, d = pts.shape
        self.block_size = block_size
        self.n_blocks = -(-n // block_size)
        # one contiguous run per dimension, padded to whole blocks so a
        # block's points are one row of ``_cols[i].reshape(n_blocks, B)``;
        # gathering column by column is also ~3x faster than pts[order]
        self._cols = np.empty((d, self.n_blocks * block_size), dtype=pts.dtype)
        self._cols[:, n:] = 0
        for i in range(d):
            self._cols[i, :n] = pts[order, i]
        self.points = self._cols[:, :n].T
        self.values = vals[order]
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
        if self.points.dtype.kind == "u":
            # exact (valid bounds have lo >= 0), and uint64 comparisons run
            # ~1.7x faster than numpy's mixed int64/uint64 ones
            lo, hi = lo.astype(np.uint64), hi.astype(np.uint64)
        B, nb = self.block_size, self.n_blocks
        m = len(lo)
        rows, blocks, examined = (np.zeros(m, dtype=np.int64) for _ in range(3))
        last = np.zeros(m, dtype=bool)
        step = max(1, _MASK_ENTRIES // max(1, nb * B))
        for s in range(0, m, step):
            qlo, qhi = lo[s : s + step], hi[s : s + step]
            # step 1: the (query, block) pairs whose box meets the query
            meets = np.ones((len(qlo), nb), dtype=bool)
            for i in range(d):
                meets &= self.box_lo[:, i] <= qhi[:, i, None]
                meets &= self.box_hi[:, i] >= qlo[:, i, None]
            q, b = np.nonzero(meets)
            examined[s : s + step] = np.bincount(q, minlength=len(qlo))
            # step 2: the exact test over the points of those blocks only
            match = np.ones((len(q), B), dtype=bool)
            for i in range(d):
                col = self._cols[i].reshape(nb, B)[b]
                match &= col >= qlo[q, i, None]
                match &= col <= qhi[q, i, None]
            # the pad after the last point never matches
            in_last = b == nb - 1
            match[in_last, n - (nb - 1) * B :] = False
            hits = np.count_nonzero(match, axis=1)
            rows[s : s + step] = np.bincount(q, weights=hits, minlength=len(qlo))
            blocks[s : s + step] = np.bincount(q[hits > 0], minlength=len(qlo))
            last[s + q[in_last & (hits > 0)]] = True
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
