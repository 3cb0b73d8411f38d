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
from .common import DEFAULT_ELL_QUERY, Figure

SEED = 0
REWARDS = ("sp", "gc", "lc")

# ``sample_rate`` is scaled up from the paper's rho = 1e-3 so the
# absolute SP sample size at our largest N matches the paper's regime
# (see EXPERIMENTS.md §0 on scaling).
STAR = {
    "dataset": "OSM",
    "n_pts": 50_000,
    "ell": DEFAULT_ELL_QUERY,
    "n_learn": 200,
    "n_test": 200,
    "delta": 1024,
    "h": 5,
    "sample_rate": 0.1,
}
FIGURES = {
    "11": Figure("Fig 11 — vary N (OSM)", "n_pts", (10_000, 100_000), column="N"),
    "12": Figure("Fig 12 — vary n (OSM)", "n_learn", (100, 500, 1000)),
}
# Figure 13 is a grid over (h, rho) on one dataset: its own loop below.
FIG13 = Figure("Fig 13 — vary rho, h (SKEW)", "h", (4, 6), fixed={"dataset": "SKEW"})
FIG13_RHOS = (1e-3, 1e-2, 1e-1)


def _data(dataset, n_pts, ell, n_learn, n_test, delta):
    """(points, learning queries, test queries) of one configuration."""
    points = make_dataset(dataset, n_pts, ell, SEED)
    learn_q = data_following(points, n_learn, ell, delta, seed=SEED + 1)
    test_q = data_following(points, n_test, ell, delta, seed=SEED + 2)
    return points, learn_q, test_q


def _variant_row(reward, points, learn_q, test_q, ell, h, sample_rate) -> dict:
    tree = BMTreeLite(
        2, ell, h=h, reward=reward, sample_rate=sample_rate, seed=SEED
    ).fit(points, learn_q)
    store = BlockStore(points, tree.values(points), DEFAULT_BLOCK_SIZE)
    return {
        "variant": f"BMTree-{reward.upper()}",
        "reward_time_s": round(tree.stats.reward_seconds, 4),
        "block_accesses": round(store.avg_block_accesses(test_q), 2),
        "n_reward_evals": tree.stats.n_reward_evals,
    }


def rows(dataset, n_pts, ell, n_learn, n_test, delta, h, sample_rate) -> list[dict]:
    """Figures 11-12: one row per reward variant of one configuration."""
    data = _data(dataset, n_pts, ell, n_learn, n_test, delta)
    return [_variant_row(reward, *data, ell, h, sample_rate) for reward in REWARDS]


def vary_rho_and_h(star: dict, fig: Figure = FIG13, rhos=FIG13_RHOS) -> list[dict]:
    """Figure 13: SP across (rho, h) vs GC/LC across h, all on the data
    of ``star`` with the figure's fixed fields."""
    c = {**star, **fig.fixed}
    ell = c["ell"]
    data = _data(c["dataset"], c["n_pts"], ell, c["n_learn"], c["n_test"], c["delta"])
    out = []
    for h in fig.values:
        for rho in rhos:
            out.append({"h": h, "rho": rho, **_variant_row("sp", *data, ell, h, rho)})
        for reward in ("gc", "lc"):
            out.append({"h": h, "rho": None, **_variant_row(reward, *data, ell, h, 1e-3)})
    return out
