"""Tests for the Hilbert curve substrate (competitor HC)."""
import numpy as np
import pytest

from repro.core.hilbert import _axes_to_transpose, hilbert_values


class TestKnownOrders:
    def test_d2_ell1(self):
        # first-order 2D Hilbert curve visits (0,0),(0,1),(1,1),(1,0)
        order = sorted(
            ((x, y) for x in range(2) for y in range(2)),
            key=lambda p: int(hilbert_values(np.array([p]), 1)[0]),
        )
        assert order[0] == (0, 0)
        # consecutive cells are grid neighbours
        for a, b in zip(order, order[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_d2_bijective(self, ell):
        n = 1 << ell
        vals = {
            int(hilbert_values(np.array([(x, y)]), ell)[0]) for x in range(n) for y in range(n)
        }
        assert vals == set(range(n * n))

    @pytest.mark.parametrize("d,ell", [(2, 3), (3, 2)])
    def test_adjacency_property(self, d, ell):
        # the defining Hilbert property: consecutive curve values are
        # grid neighbours (Manhattan distance exactly 1)
        n = 1 << ell
        pts = np.array(
            [np.unravel_index(i, (n,) * d) for i in range(n**d)], dtype=np.uint64
        )
        vals = hilbert_values(pts, ell)
        by_val = pts[np.argsort(vals)]
        diffs = np.abs(by_val[1:].astype(int) - by_val[:-1].astype(int)).sum(axis=1)
        assert np.all(diffs == 1)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 16, size=(40, 3))
        vec = hilbert_values(pts, 4)
        for p, v in zip(pts, vec):
            assert int(hilbert_values(p[None], 4)[0]) == int(v)


@pytest.mark.parametrize("d,ell", [(2, 16), (3, 20), (4, 15), (2, 31), (3, 5)])
def test_index_is_the_transpose_interleaved_bit_by_bit(d, ell):
    # bit j of transpose axis i lands at position j * d + (d - 1 - i)
    pts = np.random.default_rng(d * ell).integers(0, 1 << ell, size=(2000, d), dtype=np.uint64)
    x = _axes_to_transpose(pts, ell)
    want = np.zeros(len(pts), dtype=np.uint64)
    for j in range(ell):
        for i in range(d):
            want |= ((x[:, i] >> np.uint64(j)) & np.uint64(1)) << np.uint64(j * d + (d - 1 - i))
    assert np.array_equal(hilbert_values(pts, ell), want)


class TestValidation:
    def test_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            hilbert_values(np.array([[4, 0]]), 2)

    def test_too_many_bits(self):
        with pytest.raises(ValueError):
            hilbert_values(np.array([[0, 0, 0, 0]]), 16)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            hilbert_values(np.array([1, 2, 3]), 4)
