"""Every ``repro`` target the benchmark's traced runs wrap still exists.

``curvebench/layers.py`` patches span wrappers onto the ``PROBES``
targets and reads ``WorkloadCostEstimator.cost`` and
``_drop_profile.cache_info`` through ``_resolve``; a traced run raises
when one of them is gone.  This test reads that file (without importing
it) and resolves each target.
"""
import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

LAYERS = Path(__file__).resolve().parents[1] / "curvebench" / "layers.py"


def _targets() -> list[tuple[str, str]]:
    tree = ast.parse(LAYERS.read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PROBES" for t in node.targets
        ):
            out += [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_resolve"
            and all(isinstance(a, ast.Constant) for a in node.args)
        ):
            out.append(tuple(a.value for a in node.args))
    return out


TARGETS = _targets()


def test_layers_names_the_known_targets():
    assert ("repro.core.cost_model", "WorkloadCostEstimator.cost") in TARGETS
    assert ("repro.core.local_cost", "_drop_profile.cache_info") in TARGETS
    assert len(TARGETS) >= 9


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_probe_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_block_store_surface_the_benchmark_reads():
    """``curvebench/local.py`` builds the store positionally, runs
    ``query(RangeQuery)`` and re-counts the stored rows from
    ``.points[:, i]`` and ``.block_size``."""
    from repro.core.query import RangeQuery
    from repro.storage.blockstore import BlockStore

    points = np.array([[5, 1], [0, 0], [3, 7], [2, 2], [6, 6]], dtype=np.uint64)
    values = np.array([40, 10, 30, 20, 10], dtype=np.uint64)
    store = BlockStore(points, values)
    got = store.query(RangeQuery((0, 0), (5, 2)))
    assert type(got) is tuple and len(got) == 2
    assert all(type(x) is int for x in got) and got[0] == 3
    assert store.block_size >= 1
    assert store.points.shape == (5, 2)
    assert store.points[:, 0].tolist() == [0, 6, 2, 3, 5]
    assert store.points[:, 1].tolist() == [0, 6, 2, 7, 1]


def test_learner_surface_the_benchmark_reads():
    """``curvebench/local.py`` runs QUILTS, LBMC from the QUILTS winner
    and BMTree-lite with each reward, and reads these result fields."""
    from repro.core.bmc import BMC
    from repro.core.cost_model import WorkloadCostEstimator
    from repro.learn.bmtree import REWARDS, BMTreeLite
    from repro.learn.lbmc import LBMC
    from repro.learn.quilts import quilts
    from repro.workloads.datasets import make_dataset
    from repro.workloads.queries import data_following

    points = make_dataset("OSM", 2_000, 8, seed=0)
    wl = data_following(points, 40, 8, 16, 1 / 4, seed=1)
    est = WorkloadCostEstimator(wl, 2, 8)
    qr = quilts(est, wl)
    assert isinstance(qr.best, BMC) and qr.n_candidates >= 1
    res = LBMC(est, seed=0).learn(warm_start=[qr.best])
    assert isinstance(res.best, BMC)
    assert res.best_cost == est.cost(res.best) <= res.initial_cost
    assert res.reward_seconds > 0 and res.n_reward_evals > 1
    for reward in REWARDS:
        tree = BMTreeLite(2, 8, h=2, reward=reward, sample_rate=0.1, seed=0).fit(points, wl[:20])
        assert tree.stats.reward_seconds > 0 and tree.stats.n_reward_evals > 0
