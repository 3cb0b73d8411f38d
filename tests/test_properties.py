"""Hypothesis property tests: the cost estimators vs brute force.

These are the strongest correctness checks in the suite — random BMCs,
random queries, 2-4 dimensions, always cross-validated against direct
enumeration of the curve.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bmc import BMC
from repro.core.global_cost import GlobalCostEstimator, global_cost_single
from repro.core.local_cost import (
    PatternTables,
    count_edges_single,
    exact_edges,
    exact_sections,
    sections_via_patterns,
)
from repro.core.query import RangeQuery, Workload


@st.composite
def bmc_and_query(draw, d_options=(2, 3), max_ell=5, max_edge=6):
    d = draw(st.sampled_from(d_options))
    ell = draw(st.integers(2, max_ell))
    slots = list(range(d)) * ell
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    rng.shuffle(slots)
    sigma = BMC(tuple(slots))
    top = (1 << ell) - 1
    lo, hi = [], []
    for _ in range(d):
        a = draw(st.integers(0, top))
        b = min(top, a + draw(st.integers(0, max_edge - 1)))
        lo.append(a)
        hi.append(b)
    return sigma, RangeQuery(tuple(lo), tuple(hi))


@settings(max_examples=120, deadline=None)
@given(bmc_and_query())
def test_edge_count_matches_brute_force(case):
    sigma, q = case
    assert count_edges_single(sigma, q) == exact_edges(sigma, q)


@settings(max_examples=120, deadline=None)
@given(bmc_and_query())
def test_sections_match_brute_force(case):
    sigma, q = case
    assert sections_via_patterns(sigma, q) == exact_sections(sigma, q)


@settings(max_examples=100, deadline=None)
@given(bmc_and_query())
def test_eq3_identity(case):
    # E + S = V for every BMC and query (Eq. 3)
    sigma, q = case
    assert exact_edges(sigma, q) + exact_sections(sigma, q) == q.n_cells


@settings(max_examples=80, deadline=None)
@given(bmc_and_query(), bmc_and_query())
def test_workload_estimators_match_naive(case_a, case_b):
    sigma, qa = case_a
    _, qb_raw = case_b
    # force qb into sigma's shape by clipping to the grid
    top = (1 << sigma.ell) - 1
    qb = RangeQuery(
        tuple(min(x, top) for x in qb_raw.lo[: sigma.d])
        if qb_raw.d >= sigma.d
        else (0,) * sigma.d,
        tuple(min(x, top) for x in qb_raw.hi[: sigma.d])
        if qb_raw.d >= sigma.d
        else (0,) * sigma.d,
    )
    queries = Workload([qa.lo, qb.lo], [qa.hi, qb.hi])
    gc = GlobalCostEstimator(queries, sigma.d, sigma.ell)
    lc = PatternTables(queries, sigma.d, sigma.ell)
    assert gc.cost(sigma) == sum(global_cost_single(sigma, q) for q in queries)
    assert lc.local_cost(sigma) == sum(exact_sections(sigma, q) for q in queries)


@settings(max_examples=100, deadline=None)
@given(bmc_and_query())
def test_global_cost_bounds(case):
    # the span always covers the query's cells: Cg >= V(q)... not true in
    # general — but Cg >= number of cells in the largest section and
    # Cg >= 1 always; also monotone: Cg >= extent along any dimension
    sigma, q = case
    cg = global_cost_single(sigma, q)
    assert cg >= 1
    assert cg >= max(q.hi[i] - q.lo[i] + 1 for i in range(q.d))


@settings(max_examples=100, deadline=None)
@given(bmc_and_query())
def test_sections_bounds(case):
    sigma, q = case
    s = sections_via_patterns(sigma, q)
    assert 1 <= s <= q.n_cells
