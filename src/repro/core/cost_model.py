"""Combined BMC cost model ``C = Cg * Cl`` (Eq. 4) with O(1) scoring.

``WorkloadCostEstimator`` bundles the global-cost coefficients (Eq. 6)
and the local-cost pattern tables (Algorithms 1-2): one O(n) pass over
the workload, then every candidate BMC is scored in O(d * ell) = O(1).
This is the object handed to the SFC learners (LBMC, QUILTS, the
BMTree GC/LC reward variants) and to the Spark layout chooser.
"""
from __future__ import annotations

from .bmc import BMC
from .global_cost import GlobalCostEstimator, naive_global_cost
from .local_cost import PatternTables, naive_local_cost
from .query import Workload


class WorkloadCostEstimator:
    """O(n)-init, O(1)-per-BMC estimator of ``C = Cg(Q) * Cl(Q)``."""

    def __init__(self, queries: Workload, d: int, ell: int):
        self.d, self.ell, self.n = d, ell, len(queries)
        self.gc = GlobalCostEstimator(queries, d, ell)
        self.lc = PatternTables(queries, d, ell)

    def global_cost(self, sigma: BMC) -> int:
        return self.gc.cost(sigma)

    def local_cost(self, sigma: BMC) -> int:
        return self.lc.local_cost(sigma)

    def cost(self, sigma: BMC) -> int:
        """Eq. 4 over the whole workload."""
        return self.gc.cost(sigma) * self.lc.local_cost(sigma)

    def best_of(self, candidates: list[BMC]) -> tuple[BMC, int]:
        """argmin over m candidates — O(m) total, the paper's headline."""
        best, best_cost = None, None
        for sigma in candidates:
            c = self.cost(sigma)
            if best_cost is None or c < best_cost:
                best, best_cost = sigma, c
        if best is None:
            raise ValueError("no candidates")
        return best, best_cost


def naive_cost(sigma: BMC, queries: Workload) -> int:
    """Baseline combined cost: NGC * NLC, no precomputation."""
    return naive_global_cost(sigma, queries) * naive_local_cost(sigma, queries)
