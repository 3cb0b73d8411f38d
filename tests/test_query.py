"""Tests for the RangeQuery abstraction (Definition 1)."""
import pytest

from repro.core.query import RangeQuery


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

