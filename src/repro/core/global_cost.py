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
    """Eq. 5 for one query: ``F(p_e) - F(p_s) + 1``."""
    return sigma.value(q.hi) - sigma.value(q.lo) + 1


def naive_global_cost(sigma: BMC, queries: Workload) -> int:
    """NGC baseline: O(n * d * ell) per candidate BMC."""
    total = 0
    for q in queries:
        c = 1
        for j in range(sigma.d):
            for k in range(sigma.ell):
                a_e = (q.hi[j] >> k) & 1
                a_s = (q.lo[j] >> k) & 1
                c += (a_e - a_s) << sigma.gamma[j][k]
        total += c
    return total


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

    @staticmethod
    def merge(parts: list["GlobalCostEstimator"]) -> "GlobalCostEstimator":
        """Combine estimators fitted on disjoint query partitions.

        ``A`` and ``n`` are additive over queries, which is what makes the
        initialization embarrassingly parallel (used by the Spark
        per-task fold in ``repro.sparkops.estimator``)."""
        if not parts:
            raise ValueError("nothing to merge")
        first = parts[0]
        out = object.__new__(GlobalCostEstimator)
        out.d, out.ell = first.d, first.ell
        out.n = sum(p.n for p in parts)
        out.A = np.zeros_like(first.A)
        for p in parts:
            if (p.d, p.ell) != (first.d, first.ell):
                raise ValueError("mismatched estimator shapes")
            out.A += p.A
        return out
