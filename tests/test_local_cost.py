"""Tests for local cost estimation (§4.2): patterns vs brute force."""
import numpy as np
import pytest

from repro.core.bmc import BMC
from repro.core.local_cost import (
    PatternTables,
    count_edges_single,
    drop_profile,
    exact_edges,
    exact_sections,
    naive_local_cost,
    sections_via_patterns,
)
from repro.core.query import RangeQuery, Workload


def random_workload(rng, n, d, ell, max_edge=6):
    top = (1 << ell) - 1
    lo, hi = [], []
    for _ in range(n):
        lo.append(rng.integers(0, top + 1, d))
        hi.append(np.minimum(top, lo[-1] + rng.integers(0, max_edge, d)))
    return Workload(lo, hi)


def random_bmc(rng, d, ell):
    return BMC(tuple(int(s) for s in rng.permutation(list(range(d)) * ell)))


class TestEquation3:
    def test_edges_plus_sections_equals_cells(self):
        # Eq. 3: E + S = V for any query and BMC
        rng = np.random.default_rng(0)
        for d, ell in [(2, 5), (3, 4)]:
            for _ in range(10):
                sigma = random_bmc(rng, d, ell)
                (q,) = random_workload(rng, 1, d, ell)
                assert exact_edges(sigma, q) + exact_sections(sigma, q) == q.n_cells

    def test_figure4_counts(self):
        # Figure 4 commentary: same V, different E/S split across curves.
        # Any 2-cell-wide query under ZC: verify the identity explicitly.
        sigma = BMC.from_string("XYXYXY")
        q = RangeQuery((2, 1), (3, 4))
        assert exact_edges(sigma, q) + exact_sections(sigma, q) == 8


class TestPaperWorkedExample:
    """§4.2.1 running example: q = [0,4] x [2,3], sigma = XYXYXY."""

    def setup_method(self):
        self.sigma = BMC.from_string("XYXYXY")
        self.q = RangeQuery((0, 2), (4, 3))

    def test_edge_count_is_seven(self):
        # E = 2*1 (R_x matches) + 1*5 (R_y^1 x D_x^0) = 7
        assert count_edges_single(self.sigma, self.q) == 7
        assert exact_edges(self.sigma, self.q) == 7

    def test_three_query_sections(self):
        # "there are 10 - 7 = 3 query sections in q"
        assert self.q.n_cells == 10
        assert sections_via_patterns(self.sigma, self.q) == 3
        assert exact_sections(self.sigma, self.q) == 3

    def test_drop_profile_get_col(self):
        # sigma = XYXYXY: rise X^k pairs with D_y^k; rise Y^k with D_x^(k-1)
        prof = drop_profile(self.sigma)
        assert prof[0] == ((1,), (2,), (3,))  # X rises
        assert prof[1] == ((0,), (1,), (2,))  # Y rises


class TestClosedFormAgainstBruteForce:
    @pytest.mark.parametrize("d,ell", [(2, 4), (2, 6), (3, 4), (4, 3)])
    def test_edges_random(self, d, ell):
        rng = np.random.default_rng(d * 10 + ell)
        for _ in range(25):
            sigma = random_bmc(rng, d, ell)
            (q,) = random_workload(rng, 1, d, ell, max_edge=5)
            assert count_edges_single(sigma, q) == exact_edges(sigma, q), (sigma, q)

    def test_full_domain_single_section(self):
        # the whole grid is one query section under any BMC
        rng = np.random.default_rng(3)
        for d, ell in [(2, 3), (3, 2)]:
            top = (1 << ell) - 1
            q = RangeQuery((0,) * d, (top,) * d)
            for _ in range(5):
                sigma = random_bmc(rng, d, ell)
                assert sections_via_patterns(sigma, q) == 1

    def test_single_cell_single_section(self):
        sigma = BMC.from_string("YXYX")
        q = RangeQuery((2, 3), (2, 3))
        assert sections_via_patterns(sigma, q) == 1

    def test_single_row_query_lex(self):
        # a contiguous x-run under x-low-bits curve = 1 section
        sigma = BMC.from_string("YYYXXX")  # x owns the 3 low bits
        q = RangeQuery((1, 4), (6, 4))
        assert sections_via_patterns(sigma, q) == 1
        # same query under y-low-bits curve: every cell is its own section
        sigma2 = BMC.from_string("XXXYYY")
        assert sections_via_patterns(sigma2, q) == 6


class TestPatternTables:
    @pytest.mark.parametrize("d,ell", [(2, 5), (3, 4)])
    def test_tables_equal_sum_of_singles(self, d, ell):
        rng = np.random.default_rng(d + ell)
        queries = random_workload(rng, 24, d, ell)
        tables = PatternTables(queries, d, ell)
        for _ in range(8):
            sigma = random_bmc(rng, d, ell)
            expected_edges = sum(count_edges_single(sigma, q) for q in queries)
            assert tables.edges(sigma) == expected_edges
            assert tables.local_cost(sigma) == naive_local_cost(sigma, queries)

    def test_total_cells(self):
        queries = Workload([[0, 0], [2, 2]], [[3, 1], [2, 2]])
        tables = PatternTables(queries, 2, 4)
        assert tables.total_cells == 8 + 1

    def test_table_shapes(self):
        t2 = PatternTables(Workload([[0, 0]], [[3, 3]]), 2, 4)
        assert [t.shape for t in t2.table] == [(4, 5), (4, 5)]
        t3 = PatternTables(Workload([[0, 0, 0]], [[3, 3, 3]]), 3, 4)
        assert [t.shape for t in t3.table] == [(4, 5, 5)] * 3

    def test_shape_mismatch_rejected(self):
        tables = PatternTables(Workload([[0, 0]], [[3, 3]]), 2, 4)
        with pytest.raises(ValueError):
            tables.edges(BMC.zc(2, 5))
        with pytest.raises(ValueError):
            PatternTables(Workload([[0, 0]], [[99, 99]]), 2, 4)


class TestCurveSensitivity:
    def test_more_sections_for_mismatched_curve(self):
        # Figure 1 intuition: wide queries suit x-contiguous curves
        wide = Workload([[0, 3]], [[15, 3]])  # 16 x 1
        x_low = BMC.from_string("YYYYXXXX")
        y_low = BMC.from_string("XXXXYYYY")
        assert PatternTables(wide, 2, 4).local_cost(x_low) == 1
        assert PatternTables(wide, 2, 4).local_cost(y_low) == 16
