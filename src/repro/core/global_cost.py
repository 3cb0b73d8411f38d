"""Global cost of a BMC over a query workload — Section 4.1.

The global cost of a query ``q`` is the curve-value span of its corner
cells, ``F(p_e) - F(p_s) + 1`` (Definition 2 / Eq. 5).  Over a workload
of ``n`` queries it admits the closed form of Eq. 6:

    Cg(Q) = sum_j sum_k A[j][k] * 2^gamma[j][k] + n

where ``A[j][k] = sum_i (bit_k(hi_ij) - bit_k(lo_ij))`` is BMC
*independent* and computed by one O(n) scan (the "IGC" initialization
of the experiments); each candidate BMC is then scored in
O(d * ell) = O(1) ("GC").  ``naive_global_cost`` is the paper's "NGC"
baseline that re-evaluates Eq. 5 query by query for every BMC.
"""
from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .bmc import BMC
from .patterns import count_dtype
from .query import RangeQuery, Workload, queries_to_arrays


def global_cost_single(sigma: BMC, q: RangeQuery) -> int:
    """Eq. 5 for one query, ``F(p_e) - F(p_s) + 1``, bit by bit: bit k
    of dimension j is worth ``2^gamma[j][k]`` of the curve value."""
    c = 1
    for lo, hi, ranks in zip(q.lo, q.hi, sigma.gamma):
        for k, r in enumerate(ranks):
            c += (((hi >> k) & 1) - ((lo >> k) & 1)) << r
    return c


def naive_global_cost(sigma: BMC, queries: Workload) -> int:
    """NGC baseline: Eq. 5 query by query, O(n * d * ell) per candidate BMC."""
    return sum(global_cost_single(sigma, q) for q in queries)


@lru_cache(maxsize=4096)
def _ranks(slots: tuple[int, ...]) -> tuple[int, ...]:
    """``gamma`` flattened dimension-major, the order of ``A.ravel()``
    (cached on the slot tuple)."""
    return tuple(r for ranks in BMC(slots).gamma for r in ranks)


class GlobalCostEstimator:
    """Constant-time global cost (Eq. 6) after an O(n) initialization.

    The initialization ("IGC") computes the BMC-independent coefficient
    matrix ``A`` of shape (d, ell); :meth:`cost` then scores any BMC of
    matching shape in O(d * ell).
    """

    def __init__(self, queries: Workload, d: int, ell: int):
        lo, hi = queries_to_arrays(queries, d, ell)
        self.d = d
        self.ell = ell
        self.n = len(lo)
        # A[j][k] = sum over queries of (bit k of hi_j) - (bit k of lo_j)
        x = np.array([hi.T, lo.T], dtype=count_dtype(ell))
        t = np.empty_like(x)
        self.A = np.zeros((d, ell), dtype=np.int64)
        for k in range(ell):
            ones = np.bitwise_and(np.right_shift(x, k, out=t), 1, out=t).sum(axis=2)
            self.A[:, k] = ones[0] - ones[1]

    def cost(self, sigma: BMC) -> int:
        """O(d * ell) per BMC — the paper's "GC"."""
        if sigma.d != self.d or sigma.ell != self.ell:
            raise ValueError("BMC shape does not match the fitted workload")
        coef = self.A.ravel().tolist()
        return self.n + sum(map(operator.lshift, coef, _ranks(sigma.slots)))
