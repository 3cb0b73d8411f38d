"""Figures 11-13 — plugging GC/LC into the BMTree (§6.3).

For the three reward variants (SP = sampled-point empirical cost,
GC, LC) we report the *reward-calculation time* accumulated while
learning the piecewise curve, and the query cost (average block
accesses) of the resulting ordering.  Paper shape:

* Fig. 11 (vary N): SP's reward time grows with N, GC/LC's are flat;
  block accesses of all three variants are close.
* Fig. 12 (vary n): GC/LC are 1-2 orders faster at reward calculation;
  block accesses are close (GC slightly worse).
* Fig. 13 (vary rho and h): LC sits on the time/quality frontier.
"""
from __future__ import annotations

from repro.learn.bmtree import BMTreeLite
from repro.storage.blockstore import DEFAULT_BLOCK_SIZE, BlockStore
from repro.workloads.datasets import make_dataset
from repro.workloads.queries import data_following
from .common import DEFAULT_ELL_QUERY


def _evaluate(tree: BMTreeLite, points, test_queries, block_size) -> float:
    store = BlockStore(points, tree.values(points), block_size)
    return store.avg_block_accesses(test_queries)


def _variant_row(
    reward, points, learn_q, test_q, ell, h, sample_rate, block_size, seed
) -> dict:
    tree = BMTreeLite(
        2, ell, h=h, reward=reward, sample_rate=sample_rate, seed=seed
    ).fit(points, learn_q)
    return {
        "variant": f"BMTree-{reward.upper()}",
        "reward_time_s": round(tree.stats.reward_seconds, 4),
        "block_accesses": round(_evaluate(tree, points, test_q, block_size), 2),
        "n_reward_evals": tree.stats.n_reward_evals,
    }


def vary_cardinality(
    n_values=None,
    dataset="OSM",
    ell=DEFAULT_ELL_QUERY,
    n_learn=200,
    n_test=200,
    delta=1024,
    h=5,
    sample_rate=0.1,
    block_size=DEFAULT_BLOCK_SIZE,
    seed=0,
) -> list[dict]:
    """Figure 11: one row per (N, variant).

    ``sample_rate`` is scaled up from the paper's rho = 1e-3 so the
    absolute SP sample size at our largest N matches the paper's regime
    (see EXPERIMENTS.md §0 on scaling)."""
    rows = []
    for n_pts in n_values or [10_000, 100_000]:
        points = make_dataset(dataset, n_pts, ell, seed)
        learn_q = data_following(points, n_learn, ell, delta, seed=seed + 1)
        test_q = data_following(points, n_test, ell, delta, seed=seed + 2)
        for reward in ("sp", "gc", "lc"):
            row = _variant_row(
                reward, points, learn_q, test_q, ell, h, sample_rate, block_size, seed
            )
            rows.append({"N": n_pts, **row})
    return rows


def vary_queries(
    n_learn_values=None,
    dataset="OSM",
    n_pts=50_000,
    ell=DEFAULT_ELL_QUERY,
    n_test=200,
    delta=1024,
    h=5,
    sample_rate=0.1,
    block_size=DEFAULT_BLOCK_SIZE,
    seed=0,
) -> list[dict]:
    """Figure 12: one row per (n_learn, variant)."""
    points = make_dataset(dataset, n_pts, ell, seed)
    test_q = data_following(points, n_test, ell, delta, seed=seed + 2)
    rows = []
    for n_learn in n_learn_values or [100, 500, 1000]:
        learn_q = data_following(points, n_learn, ell, delta, seed=seed + 1)
        for reward in ("sp", "gc", "lc"):
            row = _variant_row(
                reward, points, learn_q, test_q, ell, h, sample_rate, block_size, seed
            )
            rows.append({"n_learn": n_learn, **row})
    return rows


def vary_rho_and_h(
    rhos=None,
    hs=None,
    dataset="SKEW",
    n_pts=50_000,
    ell=DEFAULT_ELL_QUERY,
    n_learn=200,
    n_test=200,
    delta=1024,
    block_size=DEFAULT_BLOCK_SIZE,
    seed=0,
) -> list[dict]:
    """Figure 13: SP across (rho, h) vs GC/LC across h."""
    points = make_dataset(dataset, n_pts, ell, seed)
    learn_q = data_following(points, n_learn, ell, delta, seed=seed + 1)
    test_q = data_following(points, n_test, ell, delta, seed=seed + 2)
    rows = []
    for h in hs or [4, 6]:
        for rho in rhos or [1e-3, 1e-2, 1e-1]:
            row = _variant_row(
                "sp", points, learn_q, test_q, ell, h, rho, block_size, seed
            )
            rows.append({"h": h, "rho": rho, **row})
        for reward in ("gc", "lc"):
            row = _variant_row(
                reward, points, learn_q, test_q, ell, h, 1e-3, block_size, seed
            )
            rows.append({"h": h, "rho": None, **row})
    return rows
