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
from repro.learn.quilts import design_candidates, quilts
from repro.storage.blockstore import DEFAULT_BLOCK_SIZE, BlockStore
from repro.workloads.datasets import make_dataset
from repro.workloads.queries import data_following
from .common import DEFAULT_ELL_QUERY

TECHNIQUES = ("LBMC", "BMTree", "QUILTS", "ZC", "HC", "LC")


def order_values(
    technique: str,
    points: np.ndarray,
    learn_q: Workload,
    ell: int,
    h: int = 6,
    sample_rate: float = 1e-3,
    lbmc_episodes: int = 6,
    seed: int = 0,
) -> np.ndarray:
    # BMTree defaults follow the paper's §6.4 star point: rho = 1e-3,
    # h proportional to the paper's 8-of-20 bits (6 of 16 here).
    """Curve values of ``points`` under the given ordering technique."""
    if technique not in TECHNIQUES:
        raise ValueError(f"unknown technique {technique!r}")
    if technique == "ZC":
        return BMC.zc(2, ell).values(points)
    if technique == "LC":
        return BMC.lex(2, ell).values(points)
    if technique == "HC":
        return hilbert_values(points, ell)
    if technique == "BMTree":
        tree = BMTreeLite(
            2, ell, h=h, reward="sp", sample_rate=sample_rate, seed=seed
        ).fit(points, learn_q)
        return tree.values(points)
    est = WorkloadCostEstimator(learn_q, 2, ell)
    if technique == "QUILTS":
        return quilts(est, learn_q).best.values(points)
    res = LBMC(est, episodes=lbmc_episodes, seed=seed).learn(
        warm_start=design_candidates(learn_q, 2, ell)
    )
    return res.best.values(points)


def block_accesses_by_technique(
    points: np.ndarray,
    learn_q: Workload,
    test_q: Workload,
    ell: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    seed: int = 0,
) -> dict[str, float]:
    out = {}
    for t in TECHNIQUES:
        vals = order_values(t, points, learn_q, ell, seed=seed)
        store = BlockStore(points, vals, block_size)
        out[t] = round(store.avg_block_accesses(test_q), 2)
    return out


def _row(key: dict, points, ell, n_learn, n_test, delta, aspect, block_size, seed) -> dict:
    """One figure row: ``key`` plus the block accesses of every technique
    over fresh learning and test queries on ``points``."""
    learn_q = data_following(points, n_learn, ell, delta, aspect, seed=seed + 1)
    test_q = data_following(points, n_test, ell, delta, aspect, seed=seed + 2)
    accesses = block_accesses_by_technique(
        points, learn_q, test_q, ell, block_size=block_size, seed=seed
    )
    return {**key, **accesses}


def overall(
    datasets=("OSM", "NYC", "UNI", "SKEW"),
    n_pts=100_000,
    ell=DEFAULT_ELL_QUERY,
    n_learn=200,
    n_test=200,
    delta=1024,
    aspect=1 / 16.0,
    block_size=DEFAULT_BLOCK_SIZE,
    seed=0,
) -> list[dict]:
    """Figure 14: all datasets x all techniques."""
    return [
        _row(
            {"dataset": name}, make_dataset(name, n_pts, ell, seed),
            ell, n_learn, n_test, delta, aspect, block_size, seed,
        )
        for name in datasets
    ]


def vary_cardinality(
    n_values=(10_000, 100_000),
    dataset="OSM",
    ell=DEFAULT_ELL_QUERY,
    n_learn=200,
    n_test=200,
    delta=1024,
    aspect=1 / 16.0,
    block_size=DEFAULT_BLOCK_SIZE,
    seed=0,
) -> list[dict]:
    """Figure 15: vary N on one dataset."""
    return [
        _row(
            {"N": n_pts}, make_dataset(dataset, n_pts, ell, seed),
            ell, n_learn, n_test, delta, aspect, block_size, seed,
        )
        for n_pts in n_values
    ]


def vary_aspect(
    aspects=(16.0, 4.0, 1.0, 1 / 4.0, 1 / 16.0),
    dataset="OSM",
    n_pts=100_000,
    ell=DEFAULT_ELL_QUERY,
    n_learn=200,
    n_test=200,
    delta=1024,
    block_size=DEFAULT_BLOCK_SIZE,
    seed=0,
) -> list[dict]:
    """Figure 16: vary the query aspect ratio."""
    points = make_dataset(dataset, n_pts, ell, seed)
    return [
        _row(
            {"aspect": f"{aspect:g}:1" if aspect >= 1 else f"1:{1 / aspect:g}"},
            points, ell, n_learn, n_test, delta, aspect, block_size, seed,
        )
        for aspect in aspects
    ]


def vary_edge_length(
    deltas=(256, 512, 1024, 2048),
    dataset="OSM",
    n_pts=100_000,
    ell=DEFAULT_ELL_QUERY,
    n_learn=200,
    n_test=200,
    aspect=1 / 16.0,
    block_size=DEFAULT_BLOCK_SIZE,
    seed=0,
) -> list[dict]:
    """Figure 17: vary the query edge length."""
    points = make_dataset(dataset, n_pts, ell, seed)
    return [
        _row({"delta": delta}, points, ell, n_learn, n_test, delta, aspect, block_size, seed)
        for delta in deltas
    ]
