"""Local cost of a BMC over a query workload — Section 4.2.

The local cost of a query is its number of *query sections* (maximal
runs of consecutive curve values inside the query, Definition 3).  Via
the identity ``S(q) = V(q) - E(q)`` (Eq. 3/7) counting sections reduces
to counting *directed edges*, and each directed edge decomposes into a
rise pattern in one dimension plus drop patterns in the others
(Section 4.2.1), all countable with O(1) closed forms.

Three computation paths are provided, mirroring the experiments:

* ``exact_sections`` / ``naive_local_cost`` — the "NLC" baseline that
  materializes the V(q) cells of each query and counts runs of
  consecutive curve values (O(V log V) per query per BMC).
* ``count_edges_single`` — closed-form per-query edge count,
  O(d * ell) per query per BMC.
* ``PatternTables`` — Algorithms 1 & 2: an O(n)-time, BMC-independent
  initialization ("ILC") after which any BMC's workload local cost is
  computed in O(d * ell) = O(1) ("LC").
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bmc import BMC
from .patterns import count_drop, count_rise, drop_matrix, rise_matrix
from .query import RangeQuery, Workload, queries_to_arrays

# ---------------------------------------------------------------------------
# Brute-force baseline (NLC)
# ---------------------------------------------------------------------------


def exact_sections(sigma: BMC, q: RangeQuery) -> int:
    """Count query sections by materializing every cell of ``q``.

    This is the paper's naive baseline: O(V(q)) work per query."""
    vals = np.sort(sigma.values(q.cells_array()))
    if len(vals) == 0:
        return 0
    return 1 + int(np.count_nonzero(np.diff(vals) > 1))


def exact_edges(sigma: BMC, q: RangeQuery) -> int:
    """Directed edges in ``q`` by brute force (for cross-validation)."""
    vals = np.sort(sigma.values(q.cells_array()))
    return int(np.count_nonzero(np.diff(vals) == 1))


def naive_local_cost(sigma: BMC, queries: Workload) -> int:
    """NLC: total number of query sections, brute force per query."""
    return sum(exact_sections(sigma, q) for q in queries)


# ---------------------------------------------------------------------------
# Closed-form per-query edge counting
# ---------------------------------------------------------------------------


class DropProfile(NamedTuple):
    """A curve's get_col profile and where Algorithm 2 reads the tables."""

    #: ``cols[b][k-1]``: the drop levels ``(c_i for i != b, ascending i)``
    #: matching the rise of dimension ``b`` at level ``k``
    cols: tuple[tuple[tuple[int, ...], ...], ...]
    #: the ``d * ell`` flat positions of ``(b, k-1, *cols[b][k-1])`` in
    #: :attr:`PatternTables.table`
    flat: np.ndarray


@lru_cache(maxsize=4096)
def _drop_profile(slots: tuple[int, ...]) -> DropProfile:
    """For each (rise dim b, rise level k): how many low bits of every
    *other* dimension sit below the rise bit in the BMC — the paper's
    ``get_col``.

    BMC dependent, O(d^2 * ell) once per curve (cached on the slot
    tuple)."""
    sigma = BMC(slots)
    d, ell = sigma.d, sigma.ell
    # below[r][i] = number of dim-i slots with rank < r
    below = np.zeros((d * ell + 1, d), dtype=np.int64)
    for r, dim in enumerate(slots):
        below[r + 1] = below[r]
        below[r + 1][dim] += 1
    cols = tuple(
        tuple(
            tuple(int(below[sigma.gamma[b][k - 1]][i]) for i in range(d) if i != b)
            for k in range(1, ell + 1)
        )
        for b in range(d)
    )
    index = [(b, k - 1, *cols[b][k - 1]) for b in range(d) for k in range(1, ell + 1)]
    flat = np.ravel_multi_index(np.array(index).T, _table_shape(d, ell))
    return DropProfile(cols, flat)


def drop_profile(sigma: BMC):
    """Public accessor for the cached get_col profile of ``sigma``."""
    return _drop_profile(sigma.slots).cols


def count_edges_single(sigma: BMC, q: RangeQuery) -> int:
    """Closed-form ``E_sigma(q)`` (Eq. 8/9) in O(d * ell) time."""
    if q.d != sigma.d:
        raise ValueError("query/curve dimensionality mismatch")
    d, ell = sigma.d, sigma.ell
    profile = drop_profile(sigma)
    other_dims = [[i for i in range(d) if i != b] for b in range(d)]
    edges = 0
    for b in range(d):
        for k in range(1, ell + 1):
            n_rise = count_rise(q.lo[b], q.hi[b], k)
            if n_rise == 0:
                continue
            prod = n_rise
            for i, c in zip(other_dims[b], profile[b][k - 1]):
                prod *= count_drop(q.lo[i], q.hi[i], c)
                if prod == 0:
                    break
            edges += prod
    return edges


def sections_via_patterns(sigma: BMC, q: RangeQuery) -> int:
    """``S_sigma(q) = V(q) - E_sigma(q)`` (Eq. 7) in O(1) time."""
    return q.n_cells - count_edges_single(sigma, q)


# ---------------------------------------------------------------------------
# Pattern tables (Algorithms 1 and 2)
# ---------------------------------------------------------------------------


#: Below this many cells in the workload every table entry, and every
#: partial sum that builds it, is an integer a float64 holds exactly.
EXACT_FLOAT_CELLS = 1 << 53
#: Bound on the entries of one block's outer product in the table
#: contraction (about queries * (ell+1)^(d-1)), which sets the block size.
_BLOCK_ENTRIES = 1 << 22


def _table_shape(d: int, ell: int) -> tuple[int, ...]:
    """Shape of the stacked tables: ``(b, k-1, c_1, ..., c_{d-1})``."""
    return (d, ell) + (ell + 1,) * (d - 1)


def total_cells(lo: np.ndarray, hi: np.ndarray) -> int:
    """``sum_q V(q)`` as an exact Python int.

    With ``d * ell <= 63`` each ``V(q) <= 2^63`` fits a uint64; the
    32-bit halves of the ``V(q)`` are summed apart so the sum cannot wrap."""
    v = np.prod((hi - lo + 1).astype(np.uint64), axis=1, dtype=np.uint64)
    return (int((v >> np.uint64(32)).sum()) << 32) + int((v & np.uint64(0xFFFFFFFF)).sum())


def _pattern_table(rise: np.ndarray, drops: list[np.ndarray], dtype) -> np.ndarray:
    """``table[k-1, c_1, ..., c_m] = sum_q rise[q, k-1] * prod_i drops[i][q, c_i]``
    (Algorithm 1): per block of queries, the outer product of ``rise``
    and all drops but the last, times the last drop matrix."""
    shape = (rise.shape[1], *(m.shape[1] for m in drops))
    step = max(1, _BLOCK_ENTRIES // int(np.prod(shape[1:], dtype=np.int64)))
    table = 0
    for s in range(0, len(rise), step):
        outer = rise[s : s + step].astype(dtype)
        for drop in drops[:-1]:
            block = drop[s : s + step].astype(dtype)
            outer = (outer[:, :, None] * block[:, None, :]).reshape(len(outer), -1)
        last = drops[-1][s : s + step].astype(dtype) if drops else np.ones((len(outer), 1), dtype)
        table = table + outer.T @ last
    return table.reshape(shape)


class PatternTables:
    """BMC-independent pattern tables for a workload (Definition 7).

    One dense table per dimension ``b`` with shape
    ``(ell, ell+1, ..., ell+1)``, stacked along a leading ``b`` axis in
    :attr:`table` — axis 0 of each is the rise level ``k`` and the
    ``d-1`` trailing axes are the per-other-dimension drop levels
    ``c_i`` (ascending dimension index, ``b`` skipped).  Entry
    ``[k-1, c_1, ..., c_{d-1}]`` holds
    ``sum_q N(R_b^k) * prod_i N(D_i^{c_i})`` (Algorithm 1, vectorized
    as matrix products over the workload).

    Every entry is at most ``total_cells``, which picks the arithmetic:
    float64 matrix products, stored as int64, below
    :data:`EXACT_FLOAT_CELLS`; Python ints above it.

    After this O(n) initialization ("ILC"), :meth:`local_cost` scores
    any BMC by summing its ``d * ell`` cached table positions
    (Algorithm 2, "LC").
    """

    def __init__(self, queries: Workload, d: int, ell: int):
        lo, hi = queries_to_arrays(queries, d, ell)
        self.d, self.ell, self.n = d, ell, len(lo)
        # V = sum of cell counts, BMC independent (Eq. 10 first term).
        self.total_cells = total_cells(lo, hi)
        fits_float = self.total_cells < EXACT_FLOAT_CELLS
        rises = [rise_matrix(lo[:, i], hi[:, i], ell) for i in range(d)]
        drops = [drop_matrix(lo[:, i], hi[:, i], ell) for i in range(d)]
        tables = []
        for b in range(d):
            others = [drops[i] for i in range(d) if i != b]
            if fits_float:
                tables.append(_pattern_table(rises[b], others, np.float64).astype(np.int64))
            else:
                tables.append(_pattern_table(rises[b], others, object))
        self.table = np.stack(tables)

    def edges(self, sigma: BMC) -> int:
        """Algorithm 2's accumulation: total directed edges over Q."""
        if sigma.d != self.d or sigma.ell != self.ell:
            raise ValueError("BMC shape does not match the fitted workload")
        return sum(self.table.take(_drop_profile(sigma.slots).flat).tolist())

    def local_cost(self, sigma: BMC) -> int:
        """Total workload local cost ``V - E_sigma`` (Algorithm 2)."""
        return self.total_cells - self.edges(sigma)
