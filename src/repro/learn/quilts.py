"""QUILTS-style curve design (competitor, [Nishimura & Yokota 2017]).

QUILTS designs a small family of candidate BMCs from the *shape* of the
query workload and picks the best under a cost model.  The original
cost model is "prohibitively expensive"; the paper's own experiments
replace it with the proposed constant-time estimators (§6.4.2:
"We have used our cost estimation algorithms in our implementation of
QUILTS") — we do the same.

Candidate construction: let ``a_i = round(log2(mean query extent in
dimension i)))``.  A query-aligned curve makes the lowest ``sum a_i``
bits cover one query-sized tile (interleaving ``a_i`` low bits from
each dimension) so a query spans few sections; the remaining high bits
order the tiles.  We emit the tile-aligned curve with several high-bit
arrangements, plus the standard ZC and both lexicographic curves.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.core.bmc import BMC, round_robin
from repro.core.cost_model import WorkloadCostEstimator
from repro.core.query import Workload, queries_to_arrays


def _grouped(counts: list[int], order: list[int]) -> list[int]:
    out = []
    for i in order:
        out.extend([i] * counts[i])
    return out


def design_candidates(queries: Workload, d: int, ell: int) -> list[BMC]:
    """The QUILTS candidate family for a workload (deduplicated)."""
    lo, hi = queries_to_arrays(queries, d, ell)
    extents = (hi - lo + 1).astype(float)
    a = [min(ell, max(0, int(round(math.log2(max(1.0, e)))))) for e in extents.mean(axis=0)]
    low = round_robin(a)  # LSB-first low part: one query-sized tile
    rest = [ell - ai for ai in a]
    highs = [round_robin(rest)]
    for order in ([*range(d)], [*reversed(range(d))]):
        highs.append(_grouped(rest, list(order)))
    cands = []
    for high in highs:
        cands.append(BMC(tuple(low + high)))
    cands.append(BMC.zc(d, ell))
    for i in range(d):
        # lexicographic with dimension i most significant
        order = [i] + [j for j in range(d) if j != i]
        cands.append(BMC(tuple(reversed(_grouped([ell] * d, order)))))
    seen, out = set(), []
    for c in cands:
        if c.slots not in seen:
            seen.add(c.slots)
            out.append(c)
    return out


@dataclass
class QuiltsResult:
    best: BMC
    best_cost: int
    n_candidates: int
    learn_seconds: float


def quilts(estimator: WorkloadCostEstimator, queries: Workload) -> QuiltsResult:
    """Design candidates from the workload shape and pick the cheapest."""
    t0 = time.perf_counter()
    cands = design_candidates(queries, estimator.d, estimator.ell)
    best, cost = estimator.best_of(cands)
    return QuiltsResult(best, cost, len(cands), time.perf_counter() - t0)
