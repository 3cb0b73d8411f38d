"""Figures 14-17 — query efficiency of learned BMCs (§6.4).

Orders each dataset by six SFC techniques — LBMC, BMTree(-SP), QUILTS,
ZC, HC, LC — and reports the average number of block accesses per test
query over the block-packed store (the PostgreSQL substitute).

Paper shape: LBMC lowest everywhere (Fig. 14); lexicographic LC worst
on square-ish queries; the LBMC advantage persists across N (Fig. 15),
aspect ratios (Fig. 16, with ZC/QUILTS/LBMC tying at 1:1) and edge
lengths (Fig. 17).
"""
from __future__ import annotations

import numpy as np

from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator
from repro.core.hilbert import hilbert_values
from repro.core.query import Workload
from repro.learn.bmtree import BMTreeLite
from repro.learn.lbmc import LBMC
from repro.learn.quilts import quilts
from repro.storage.blockstore import DEFAULT_BLOCK_SIZE, BlockStore
from repro.workloads.datasets import make_dataset
from repro.workloads.queries import data_following
from .common import DEFAULT_ELL_QUERY, Figure

TECHNIQUES = ("LBMC", "BMTree", "QUILTS", "ZC", "HC", "LC")
SEED = 0
# The BMTree follows the paper's §6.4 star point: rho = 1e-3, h
# proportional to the paper's 8-of-20 bits (6 of 16 here).
BMTREE_H = 6
BMTREE_RHO = 1e-3
LBMC_EPISODES = 6

STAR = {
    "dataset": "OSM",
    "n_pts": 100_000,
    "ell": DEFAULT_ELL_QUERY,
    "n_learn": 200,
    "n_test": 200,
    "delta": 1024,
    "aspect": 1 / 16.0,
    "block_size": DEFAULT_BLOCK_SIZE,
}
FIGURES = {
    "14": Figure("Fig 14 — all datasets", "dataset", ("OSM", "NYC", "UNI", "SKEW")),
    "15": Figure("Fig 15 — vary N (OSM)", "n_pts", (10_000, 100_000), column="N"),
    "16": Figure(
        "Fig 16 — vary aspect (OSM)", "aspect", (16.0, 4.0, 1.0, 1 / 4.0, 1 / 16.0),
        label=lambda a: f"{a:g}:1" if a >= 1 else f"1:{1 / a:g}",
    ),
    "17": Figure("Fig 17 — vary edge length (OSM)", "delta", (256, 512, 1024, 2048)),
}


def order_values(
    technique: str, points: np.ndarray, learn_q: Workload, est: WorkloadCostEstimator
) -> np.ndarray:
    """Curve values of ``points`` under the given ordering technique; the
    learned BMCs are scored by ``est``, fitted to ``learn_q``.  LBMC
    starts from QUILTS' winner."""
    if technique not in TECHNIQUES:
        raise ValueError(f"unknown technique {technique!r}")
    ell = est.ell
    if technique == "ZC":
        return BMC.zc(2, ell).values(points)
    if technique == "LC":
        return BMC.lex(2, ell).values(points)
    if technique == "HC":
        return hilbert_values(points, ell)
    if technique == "BMTree":
        tree = BMTreeLite(
            2, ell, h=BMTREE_H, reward="sp", sample_rate=BMTREE_RHO, seed=SEED
        ).fit(points, learn_q)
        return tree.values(points)
    best = quilts(est, learn_q).best
    if technique == "LBMC":
        best = LBMC(est, episodes=LBMC_EPISODES, seed=SEED).learn(warm_start=[best]).best
    return best.values(points)


def rows(dataset, n_pts, ell, n_learn, n_test, delta, aspect, block_size) -> list[dict]:
    """One configuration's row: the block accesses of every technique
    over fresh learning and test queries on a fresh dataset."""
    points = make_dataset(dataset, n_pts, ell, SEED)
    learn_q = data_following(points, n_learn, ell, delta, aspect, seed=SEED + 1)
    test_q = data_following(points, n_test, ell, delta, aspect, seed=SEED + 2)
    est = WorkloadCostEstimator(learn_q, 2, ell)
    accesses = {}
    for t in TECHNIQUES:
        store = BlockStore(points, order_values(t, points, learn_q, est), block_size)
        accesses[t] = round(store.avg_block_accesses(test_q), 2)
    return [accesses]
