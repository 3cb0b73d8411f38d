"""Hypothesis properties of the estimators at full scale.

Workload-built estimators at d = 2-4 and ell up to 20 (31 at d = 2, where
the counts switch to int64; d * ell <= 63, the widest curve a BMC holds)
against Python-int sums of the per-query closed forms, on both sides of
the pattern tables' switch from float64 to Python-int arithmetic, and
``merge`` of random partitions against the whole workload.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import local_cost
from repro.core.bmc import BMC
from repro.core.cost_model import WorkloadCostEstimator
from repro.core.global_cost import global_cost_single
from repro.core.local_cost import EXACT_FLOAT_CELLS, PatternTables, sections_via_patterns
from repro.core.patterns import drop_matrix, drop_vector, rise_matrix, rise_vector
from repro.core.query import Workload


@st.composite
def shapes(draw, dims=(2, 3, 4)):
    d = draw(st.sampled_from(dims))
    ell = draw(st.integers(1, 31 if d == 2 else min(20, 63 // d)))
    return d, ell


@st.composite
def curves(draw, d, ell, n=3):
    return [BMC(tuple(draw(st.permutations(list(range(d)) * ell)))) for _ in range(n)]


@st.composite
def boxes(draw, d, ell, n):
    """``n`` queries, each side anywhere from one cell to the whole axis."""
    top = (1 << ell) - 1
    lo, hi = [], []
    for _ in range(n):
        a = [draw(st.integers(0, top)) for _ in range(d)]
        b = [draw(st.integers(0, top)) for _ in range(d)]
        lo.append([min(x, y) for x, y in zip(a, b)])
        hi.append([max(x, y) for x, y in zip(a, b)])
    return Workload(lo, hi)


@st.composite
def near_bound(draw):
    """A workload of d = 3 or 4 whose total cell count is within a few
    cells of ``EXACT_FLOAT_CELLS``: one large random box, then one box per
    base-2^ell digit of the remainder (digit j: j full sides, one side of
    the digit's length)."""
    d = draw(st.sampled_from([3, 4]))
    ell = 20 if d == 3 else 15
    side = 1 << ell
    target = EXACT_FLOAT_CELLS + draw(st.integers(-4, 4))
    ext = [draw(st.integers(side >> 3, side)) for _ in range(d - 1)]
    ext.append(min(side, target // int(np.prod(ext, dtype=object))))
    extents = [ext]
    rest = target - int(np.prod(ext, dtype=object))
    for j in range(d):
        digit = (rest >> (ell * j)) & (side - 1)
        if digit:
            extents.append([side] * j + [digit] + [1] * (d - j - 1))
    lo, hi = [], []
    for e in extents:
        perm = draw(st.permutations(range(d)))
        e = [e[p] for p in perm]
        a = [draw(st.integers(0, side - x)) for x in e]
        lo.append(a)
        hi.append([x + y - 1 for x, y in zip(a, e)])
    w = Workload(lo, hi)
    assert sum(q.n_cells for q in w) == target
    return w, d, ell


def _check_against_closed_forms(est, w, sigmas):
    for sigma in sigmas:
        assert est.global_cost(sigma) == sum(global_cost_single(sigma, q) for q in w)
        assert est.local_cost(sigma) == sum(sections_via_patterns(sigma, q) for q in w)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_estimator_matches_closed_forms(data):
    d, ell = data.draw(shapes())
    w = data.draw(boxes(d, ell, data.draw(st.integers(1, 12))))
    est = WorkloadCostEstimator(w, d, ell)
    assert est.lc.total_cells == sum(q.n_cells for q in w)
    _check_against_closed_forms(est, w, data.draw(curves(d, ell)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_estimator_near_the_path_switch(data):
    w, d, ell = data.draw(near_bound())
    est = WorkloadCostEstimator(w, d, ell)
    assert abs(est.lc.total_cells - EXACT_FLOAT_CELLS) <= 4
    _check_against_closed_forms(est, w, data.draw(curves(d, ell)) + [BMC.zc(d, ell)])


@st.composite
def partitioned(draw):
    if draw(st.booleans()):
        w, d, ell = draw(near_bound())
    else:
        d, ell = draw(shapes())
        w = draw(boxes(d, ell, draw(st.integers(1, 12))))
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=len(w), max_size=len(w))))
    parts = [Workload(w.lo[labels == p], w.hi[labels == p]) for p in np.unique(labels)]
    return w, parts, d, ell


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_merge_of_partitions_equals_whole(data):
    w, parts, d, ell = data.draw(partitioned())
    whole = WorkloadCostEstimator(w, d, ell)
    merged = WorkloadCostEstimator.merge([WorkloadCostEstimator(p, d, ell) for p in parts])
    assert merged.n == whole.n
    assert merged.lc.total_cells == whole.lc.total_cells
    assert np.array_equal(merged.gc.A, whole.gc.A)
    for a, b in zip(merged.lc.tables, whole.lc.tables):
        assert a.tolist() == b.tolist()
    for sigma in data.draw(curves(d, ell)):
        assert merged.cost(sigma) == whole.cost(sigma)


@pytest.mark.parametrize("d,ell", [(2, 16), (3, 8), (4, 5)])
def test_blocked_contraction_equals_one_block(monkeypatch, d, ell):
    g = np.random.default_rng(d)
    lo = g.integers(0, 1 << ell, size=(300, d))
    hi = np.minimum((1 << ell) - 1, lo + g.integers(0, 1 << (ell - 2), size=(300, d)))
    w = Workload(lo, hi)
    whole = PatternTables(w, d, ell)
    monkeypatch.setattr(local_cost, "_BLOCK_ENTRIES", 100)
    blocked = PatternTables(w, d, ell)
    for a, b in zip(blocked.tables, whole.tables):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("ell", [30, 31, 40])
def test_counts_on_both_sides_of_the_int32_width(ell):
    top = (1 << ell) - 1
    g = np.random.default_rng(ell)
    lo = np.append(g.integers(0, top + 1, 100), [0, top, 0])
    hi = np.append(np.minimum(top, lo[:100] + g.integers(0, 1 << (ell - 3), 100)), [top, top, 0])
    rises, drops = rise_matrix(lo, hi, ell), drop_matrix(lo, hi, ell)
    for i in range(len(lo)):
        assert rises[i].tolist() == rise_vector(int(lo[i]), int(hi[i]), ell).tolist()
        assert drops[i].tolist() == drop_vector(int(lo[i]), int(hi[i]), ell).tolist()
    if 2 * ell <= 63:
        w = Workload(np.stack([lo, lo[::-1]], axis=1), np.stack([hi, hi[::-1]], axis=1))
        _check_against_closed_forms(WorkloadCostEstimator(w, 2, ell), w, [BMC.zc(2, ell)])


def test_curves_wider_than_63_bits_rejected():
    with pytest.raises(ValueError):
        PatternTables(Workload([[0] * 4], [[1] * 4]), 4, 16)


def test_full_domain_tables_do_not_wrap():
    # 1,000 full-domain queries at d = 3, ell = 20: every edge count is
    # 2^60 - 1 per query, far beyond int64
    top = (1 << 20) - 1
    tables = PatternTables(Workload([[0, 0, 0]] * 1000, [[top, top, top]] * 1000), 3, 20)
    zc = BMC.zc(3, 20)
    assert tables.edges(zc) == 1_152_921_504_606_846_975_000
    assert tables.local_cost(zc) == 1000
