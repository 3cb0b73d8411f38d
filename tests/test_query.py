"""Tests for the RangeQuery abstraction (Definition 1)."""
import numpy as np
import pytest

from repro.core.query import RangeQuery, queries_to_arrays


class TestBasics:
    def test_n_cells(self):
        assert RangeQuery((0, 2), (4, 3)).n_cells == 10
        assert RangeQuery((1, 1, 1), (1, 1, 1)).n_cells == 1

    def test_contains(self):
        q = RangeQuery((1, 1), (3, 3))
        assert q.contains((1, 3)) and q.contains((2, 2))
        assert not q.contains((0, 2)) and not q.contains((2, 4))

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            RangeQuery((2, 0), (1, 5))
        with pytest.raises(ValueError):
            RangeQuery((-1, 0), (1, 5))
        with pytest.raises(ValueError):
            RangeQuery((0,), (1, 2))

    def test_cells_enumeration(self):
        q = RangeQuery((0, 1), (1, 2))
        assert sorted(q.cells()) == [(0, 1), (0, 2), (1, 1), (1, 2)]

    def test_cells_array_matches_cells(self):
        q = RangeQuery((2, 0, 1), (3, 1, 1))
        arr = {tuple(int(c) for c in row) for row in q.cells_array()}
        assert arr == set(q.cells())
        assert len(q.cells_array()) == q.n_cells


class TestArrays:
    def test_roundtrip(self):
        qs = [RangeQuery((0, 1), (2, 3)), RangeQuery((4, 4), (5, 6))]
        lo, hi = queries_to_arrays(qs)
        assert lo.shape == (2, 2) and hi.shape == (2, 2)
        assert np.array_equal(lo, [[0, 1], [4, 4]])
        assert np.array_equal(hi, [[2, 3], [5, 6]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            queries_to_arrays([])

    def test_mixed_d_rejected(self):
        with pytest.raises(ValueError):
            queries_to_arrays([RangeQuery((0,), (1,)), RangeQuery((0, 0), (1, 1))])
