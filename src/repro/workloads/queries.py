"""Query-workload generators (Section 6.1 "Queries").

The paper generates synthetic range-query workloads that follow the
data distribution: 1,000 queries for SFC learning and 2,000 disjoint
ones for testing, of uniform size; square queries for the cost-
estimation experiments, and aspect-ratio / edge-length sweeps for the
query-efficiency experiments (Table 5).
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.query import Workload


def random_squares(
    n: int, ell: int, delta: int, seed: int = 0, d: int = 2
) -> Workload:
    """``n`` square (hypercube) queries of edge ``delta`` at uniform
    random locations — used for the cost-estimation efficiency
    experiments, which are data independent (§6.2)."""
    g = np.random.default_rng(seed)
    top = (1 << ell) - 1
    if delta > top + 1:
        raise ValueError("query edge exceeds the grid")
    lo = g.integers(0, top - delta + 2, size=(n, d))
    return Workload(lo, lo + (delta - 1))


def data_following(
    points: np.ndarray,
    n: int,
    ell: int,
    delta: int,
    aspect: float = 1.0,
    seed: int = 0,
) -> Workload:
    """``n`` queries of area ~``delta^2`` centred on sampled data points
    (so the workload follows the data distribution, as in the paper).

    ``aspect`` is width:height — e.g. 16 gives long flat queries, 1/16
    tall thin ones (Figure 16's sweep).  Each ``w x h`` box is clipped
    to the grid by shifting it inside."""
    g = np.random.default_rng(seed)
    w = max(1, int(round(delta * math.sqrt(aspect))))
    h = max(1, int(round(delta / math.sqrt(aspect))))
    top = (1 << ell) - 1
    size = np.array([w, h], dtype=np.int64)
    centers = points[g.integers(0, len(points), size=n)][:, :2].astype(np.int64)
    lo = np.maximum(0, np.minimum(centers - size // 2, top - (size - 1)))
    return Workload(lo, np.minimum(top, lo + size - 1))

