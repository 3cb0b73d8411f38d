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
