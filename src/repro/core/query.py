"""Range queries over the discretized grid — Definition 1.

A query is an axis-aligned box of grid cells, inclusive on both ends in
every dimension: ``[lo[i], hi[i]]`` are cell coordinates (column
indices), not raw data values.  ``n_cells`` is the paper's ``V(q)``.

A workload of ``n`` queries is a :class:`Workload`: two validated
``(n, d)`` int64 arrays ``lo`` and ``hi``, which the estimators, the
learners and the Spark layer read directly; :func:`queries_to_arrays`
checks them against the grid an estimator is fitted on.
:class:`RangeQuery` is the scalar helper for one query (brute-force
baselines, the paper's worked examples, block-store queries); indexing
or iterating a ``Workload`` yields them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bmc import MAX_TOTAL_BITS


@dataclass(frozen=True)
class RangeQuery:
    """Inclusive cell-coordinate box ``[lo[i], hi[i]]`` per dimension."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimensionality mismatch")
        for a, b in zip(self.lo, self.hi):
            if a < 0 or b < a:
                raise ValueError(f"invalid range [{a}, {b}]")

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def n_cells(self) -> int:
        """The paper's ``V(q)`` — number of grid cells inside the query.

        O(d) as stated in Section 4.2."""
        v = 1
        for a, b in zip(self.lo, self.hi):
            v *= b - a + 1
        return v

    def contains(self, point) -> bool:
        return all(a <= x <= b for a, x, b in zip(self.lo, point, self.hi))

    def cells(self):
        """Iterate every cell coordinate tuple inside the query.

        Exponential in d — only for brute-force baselines and tests."""
        return itertools.product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    def cells_array(self) -> np.ndarray:
        """All cells as an (V, d) uint64 array (brute-force helper)."""
        grids = np.meshgrid(
            *(np.arange(a, b + 1, dtype=np.uint64) for a, b in zip(self.lo, self.hi)),
            indexing="ij",
        )
        return np.stack([g.ravel() for g in grids], axis=1)


class Workload:
    """``n`` range queries as two read-only (n, d) int64 arrays.

    ``len``, slicing (another ``Workload``) and ``==`` work on the
    arrays; indexing or iterating yields :class:`RangeQuery` objects of
    plain Python ints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.array(lo, dtype=np.int64)
        hi = np.array(hi, dtype=np.int64)
        if lo.ndim != 2 or lo.shape != hi.shape:
            raise ValueError(f"lo/hi must be (n, d) arrays of one shape: {lo.shape}, {hi.shape}")
        if np.any(lo < 0) or np.any(hi < lo):
            raise ValueError("invalid range: need 0 <= lo <= hi")
        lo.flags.writeable = False
        hi.flags.writeable = False
        self.lo, self.hi = lo, hi

    @property
    def d(self) -> int:
        return self.lo.shape[1]

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Workload(self.lo[i], self.hi[i])
        return RangeQuery(tuple(self.lo[i].tolist()), tuple(self.hi[i].tolist()))

    def __iter__(self):
        for lo, hi in zip(self.lo.tolist(), self.hi.tolist()):
            yield RangeQuery(tuple(lo), tuple(hi))

    def __eq__(self, other):
        if not isinstance(other, Workload):
            return NotImplemented
        return np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Workload(n={len(self)}, d={self.d})"


def queries_to_arrays(queries: Workload, d: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, d) ``lo`` and ``hi`` arrays of a workload fitted on a
    ``d``-dimensional grid of ``ell`` bits per dimension.

    The one place a workload's shape is checked: it is non-empty, has
    ``d`` columns and coordinates below ``2^ell``, and ``d * ell`` fits a
    BMC."""
    if not isinstance(queries, Workload):
        raise TypeError(f"expected a Workload, got {type(queries).__name__}")
    if not len(queries):
        raise ValueError("empty workload")
    if queries.d != d:
        raise ValueError(f"workload is {queries.d}-dimensional, expected {d}")
    if d * ell > MAX_TOTAL_BITS:
        raise ValueError(f"d*ell = {d * ell} exceeds {MAX_TOTAL_BITS} bits")
    if np.any(queries.hi >= (1 << ell)):
        raise ValueError(f"query coordinates exceed 2^{ell} - 1")
    return queries.lo, queries.hi
