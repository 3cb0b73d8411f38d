"""BMTree-lite — piecewise BMC learner (competitor + host, [Li et al. 2023]).

The original BMTree learns a *piecewise* BMC: a binary tree where every
internal node picks which dimension contributes the next most
significant bit for the points in its subspace, splitting the subspace
in half on that bit; below depth ``h`` a fixed interleaved curve fills
the remaining bits.  The released implementation drives the choice with
sampled-data empirical query costs ("SP"); the paper's contribution is
to swap that reward for the constant-time GC/LC estimators
("BMTree-GC" / "BMTree-LC", §6.3).

This is a greedy reproduction of that scheme (DESIGN.md documents the
substitution for the original MCTS driver): every node evaluates the
``d`` candidate dimensions with the configured reward and keeps the
best.  What the experiments measure — the *reward calculation time* and
its scaling (SP grows with the sampled dataset size, GC/LC do not) and
the query efficiency of the learned curve — is preserved, and all three
variants perform the identical number of reward evaluations.

Reward variants:

* ``"sp"`` — order the node's sampled points by the candidate curve,
  pack into blocks, execute the node's queries, count block accesses
  (the original BMTree's empirical estimate; cost ∝ sample size).
* ``"gc"`` — workload global cost (Eq. 6) of the node's queries.
* ``"lc"`` — workload local cost (Algorithms 1-2) of the node's queries.

The GC/LC estimators are initialized once per node, over the node's
clipped queries, and then score each of its ``d`` candidate curves in
O(1), as the paper's method does.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.bmc import BMC, round_robin
from repro.core.global_cost import GlobalCostEstimator
from repro.core.local_cost import PatternTables
from repro.core.query import Workload, queries_to_arrays
from repro.storage.blockstore import BlockStore

REWARDS = ("sp", "gc", "lc")
REWARD_BLOCK_SIZE = 8  # block capacity of the SP reward's sampled store


def _fill_curve(prefix_msb: list[int], d: int, ell: int) -> BMC:
    """Complete a partial MSB-first dimension choice into a full BMC by
    interleaving the remaining bits round-robin."""
    used = [prefix_msb.count(i) for i in range(d)]
    if any(u > ell for u in used):
        raise ValueError("prefix uses more bits than available")
    rest = round_robin([ell - u for u in used])
    # slots are LSB-first: the filled remainder first (reversed so its
    # round-robin order reads MSB-first), then the prefix reversed on top
    msb_first = prefix_msb + rest
    return BMC(tuple(reversed(msb_first)))


@dataclass
class _Leaf:
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    sigma: BMC


@dataclass
class BMTreeStats:
    """Bookkeeping the experiments report on."""

    reward_seconds: float = 0.0
    n_reward_evals: int = 0
    n_leaves: int = 0
    sample_size: int = 0


class BMTreeLite:
    """Greedy piecewise-BMC learner with pluggable reward."""

    def __init__(
        self,
        d: int,
        ell: int,
        h: int = 6,
        reward: str = "sp",
        sample_rate: float = 1e-3,
        seed: int = 0,
    ):
        if reward not in REWARDS:
            raise ValueError(f"reward must be one of {REWARDS}")
        if not 0 < sample_rate <= 1:
            raise ValueError("sample_rate in (0, 1]")
        if h < 1 or h > d * ell:
            raise ValueError("depth h out of range")
        self.d, self.ell, self.h = d, ell, h
        self.reward = reward
        self.sample_rate = sample_rate
        self.seed = seed
        self.leaves: list[_Leaf] = []  # in curve order
        # the bit each internal node splits on, as ``dim * ell + bit``, by
        # heap index: node i's lower and upper halves are nodes 2i and 2i + 1
        self._splits = np.zeros(0, dtype=np.uint64)
        self.stats = BMTreeStats()

    # -- reward functions --------------------------------------------------
    def _scores(self, curves: list[BMC], queries: Workload, sample: np.ndarray) -> list[float]:
        """Reward of each candidate curve over the node's queries."""
        t0 = time.perf_counter()
        try:
            if self.reward == "sp":
                if len(sample) == 0:
                    return [0.0] * len(curves)
                return [
                    BlockStore(sample, s.values(sample), REWARD_BLOCK_SIZE)
                    .avg_block_accesses(queries)
                    for s in curves
                ]
            if self.reward == "gc":
                gc = GlobalCostEstimator(queries, self.d, self.ell)
                return [float(gc.cost(s)) for s in curves]
            lc = PatternTables(queries, self.d, self.ell)
            return [float(lc.local_cost(s)) for s in curves]
        finally:
            self.stats.reward_seconds += time.perf_counter() - t0
            self.stats.n_reward_evals += len(curves)

    # -- construction ------------------------------------------------------
    def fit(self, points: np.ndarray, queries: Workload) -> "BMTreeLite":
        """Learn the piecewise curve from data + workload.

        ``points`` is the full dataset; the SP reward samples
        ``sample_rate`` of it (the paper's ρ), GC/LC ignore the data."""
        queries_to_arrays(queries, self.d, self.ell)  # the workload fits the grid
        pts = np.asarray(points, dtype=np.uint64)
        rng = np.random.default_rng(self.seed)
        if self.reward == "sp" and len(pts):
            k = max(1, int(len(pts) * self.sample_rate))
            sample = pts[rng.choice(len(pts), size=k, replace=False)]
        else:
            sample = pts[:0]
        self.stats.sample_size = len(sample)
        self.leaves = []
        self._splits = np.zeros(1 << self.h, dtype=np.uint64)
        top = (1 << self.ell) - 1
        self._build(
            lo=(0,) * self.d,
            hi=(top,) * self.d,
            prefix=[],
            queries=queries,
            sample=sample,
            node=1,
        )
        self.stats.n_leaves = len(self.leaves)
        return self

    def _build(self, lo, hi, prefix, queries: Workload, sample, node: int) -> None:
        depth = len(prefix)
        used = [prefix.count(i) for i in range(self.d)]
        candidates = [i for i in range(self.d) if used[i] < self.ell]
        # h <= d * ell, so every leaf sits at depth h, and the depth-first
        # order (lower half first) appends them in curve order
        if depth >= self.h or not candidates:
            self.leaves.append(_Leaf(lo, hi, _fill_curve(prefix, self.d, self.ell)))
            return
        # clip the workload to this subspace, dropping disjoint queries
        qlo = np.maximum(queries.lo, lo)
        qhi = np.minimum(queries.hi, hi)
        inside = (qlo <= qhi).all(axis=1)
        local_q = Workload(qlo[inside], qhi[inside])
        if len(candidates) == 1 or not len(local_q):
            best = candidates[depth % len(candidates)]
        else:
            curves = [_fill_curve(prefix + [i], self.d, self.ell) for i in candidates]
            scores = self._scores(curves, local_q, sample)
            best = candidates[int(np.argmin(scores))]
        # split on the most significant unused bit of `best`
        bit = self.ell - 1 - used[best]
        self._splits[node] = best * self.ell + bit
        mid = lo[best] + (1 << bit)  # first cell of the upper half
        lo_hi = list(hi)
        lo_hi[best] = mid - 1
        hi_lo = list(lo)
        hi_lo[best] = mid
        in_upper = sample[:, best] >= mid
        self._build(lo, tuple(lo_hi), prefix + [best], local_q, sample[~in_upper], 2 * node)
        self._build(tuple(hi_lo), hi, prefix + [best], local_q, sample[in_upper], 2 * node + 1)

    # -- application -------------------------------------------------------
    def values(self, points: np.ndarray) -> np.ndarray:
        """Piecewise curve values for an (n, d) coordinate array.

        Each leaf's full BMC already places its path bits as the most
        significant output bits, so per-leaf evaluation yields a single
        globally consistent order."""
        if not self.leaves:
            raise RuntimeError("fit() first")
        pts = np.asarray(points, dtype=np.uint64)
        # route every point down the tree by the bits its path splits on,
        # read from the point's coordinates laid side by side in one word
        word = np.zeros(len(pts), dtype=np.uint64)
        for i in range(self.d):
            word |= pts[:, i] << np.uint64(i * self.ell)
        one = np.uint64(1)
        node = np.ones(len(pts), dtype=np.uint64)
        for _ in range(self.h):
            node = (node << one) | ((word >> self._splits[node]) & one)
        # leaf numbers in curve order; 8- and 16-bit keys sort by radix
        leaf = (node - np.uint64(1 << self.h)).astype(np.min_scalar_type(len(self.leaves) - 1))
        # then evaluate each leaf's BMC on its own points; every point
        # reaches one, and ``BMC.values`` rejects points off the grid
        order = np.argsort(leaf, kind="stable")
        counts = np.bincount(leaf, minlength=len(self.leaves))
        ends = np.cumsum(counts)
        out = np.empty(len(pts), dtype=np.uint64)
        for lf, s, e in zip(self.leaves, ends - counts, ends):
            idx = order[s:e]
            out[idx] = lf.sigma.values(pts[idx])
        return out
