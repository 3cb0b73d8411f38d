"""Unit tests for BMC representation and curve-value calculation (§3.1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bmc import BMC


class TestConstruction:
    def test_from_string_roundtrip(self):
        for s in ["XYXYXY", "YXYXYX", "YYXX", "XYZXYZXYZ", "XXYYZZ"[::-1]]:
            assert BMC.from_string(s).to_string() == s.upper()

    def test_slots_orientation(self):
        # "YX": Y is the high bit, X the low bit -> slots (LSB first) = (X, Y)
        sigma = BMC.from_string("YX")
        assert sigma.slots == (0, 1)

    def test_d_and_ell(self):
        sigma = BMC.from_string("XYZXYZXYZ")
        assert sigma.d == 3 and sigma.ell == 3 and sigma.nbits == 9

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            BMC((0, 0, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BMC(())

    def test_too_many_bits_rejected(self):
        with pytest.raises(ValueError):
            BMC(tuple([0, 1] * 32))  # 64 bits > 63

    def test_bad_letter_rejected(self):
        with pytest.raises(ValueError):
            BMC.from_string("XQ")

    def test_zc_shape(self):
        assert BMC.zc(2, 3).to_string() == "XYXYXY"
        assert BMC.zc(3, 2).to_string() == "XYZXYZ"

    def test_lex_shape(self):
        # lexicographic: dimension 0 owns the most significant bits
        assert BMC.lex(2, 2).to_string() == "XXYY"
        assert BMC.lex(3, 2).to_string() == "XXYYZZ"


class TestGamma:
    def test_gamma_xyxyxy(self):
        # sigma = XYXYXY: ranks from LSB are Y1 X1 Y2 X2 Y3 X3
        sigma = BMC.from_string("XYXYXY")
        assert sigma.gamma[0] == (1, 3, 5)  # X bits
        assert sigma.gamma[1] == (0, 2, 4)  # Y bits

    def test_gamma_monotone_within_dimension(self):
        # Section 3.1: gamma[i][j] < gamma[i][j+1] always
        rng = np.random.default_rng(0)
        for _ in range(20):
            slots = rng.permutation([0] * 4 + [1] * 4 + [2] * 4)
            sigma = BMC(tuple(int(s) for s in slots))
            for ranks in sigma.gamma:
                assert list(ranks) == sorted(ranks)

    def test_gamma_is_permutation_of_ranks(self):
        sigma = BMC.from_string("YXXYXY")
        all_ranks = sorted(r for ranks in sigma.gamma for r in ranks)
        assert all_ranks == list(range(6))


class TestValue:
    def test_paper_figure3_example(self):
        # Figure 3: sigma=XYZXYZXYZ, p=(2,1,7) -> bits merge to 001101011b = 107
        sigma = BMC.from_string("XYZXYZXYZ")
        assert sigma.value((2, 1, 7)) == 0b001101011 == 107

    def test_zc_interleave_small(self):
        # ZC d=2 ell=1: value = 2x + y
        sigma = BMC.zc(2, 1)
        assert [sigma.value((x, y)) for x in (0, 1) for y in (0, 1)] == [0, 1, 2, 3]

    def test_lex_value(self):
        sigma = BMC.lex(2, 2)
        # lexicographic: v = 4x + y
        for x in range(4):
            for y in range(4):
                assert sigma.value((x, y)) == 4 * x + y

    def test_value_is_bijective(self):
        sigma = BMC.from_string("YXXYXY")
        vals = {sigma.value((x, y)) for x in range(8) for y in range(8)}
        assert vals == set(range(64))

    def test_values_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        for s in ["XYXYXY", "XXYYXY", "XYZXYZ", "ZZYYXX"]:
            sigma = BMC.from_string(s)
            pts = rng.integers(0, 1 << sigma.ell, size=(50, sigma.d))
            vec = sigma.values(pts)
            for p, v in zip(pts, vec):
                assert sigma.value(tuple(int(c) for c in p)) == int(v)

    def test_value_rejects_out_of_range(self):
        sigma = BMC.zc(2, 2)
        with pytest.raises(ValueError):
            sigma.value((4, 0))
        with pytest.raises(ValueError):
            sigma.value((0, 1, 2))

    @pytest.mark.parametrize("point", [[16, 0], [0, 16], [-1, 0], [0, -1], [1 << 40, 3]])
    def test_values_rejects_out_of_range(self, point):
        # ZC at ell = 4 once wrapped these: [16, 0] to 0, [-1, 0] to 170
        sigma = BMC.zc(2, 4)
        with pytest.raises(ValueError, match="outside"):
            sigma.values(np.array([[3, 5], point]))
        assert sigma.values(np.array([[15, 15], [0, 0]])).tolist() == [255, 0]
        assert sigma.values(np.zeros((0, 2), dtype=np.int64)).tolist() == []

    def test_large_ell_uint64_boundary(self):
        sigma = BMC.zc(2, 20)  # 40 bits
        top = (1 << 20) - 1
        assert sigma.value((top, top)) == (1 << 40) - 1
        vec = sigma.values(np.array([[top, top]]))
        assert int(vec[0]) == (1 << 40) - 1


class TestMonotonicity:
    def test_theorem1_monotonic(self):
        # Theorem 1: dominated points have smaller-or-equal curve values
        rng = np.random.default_rng(2)
        for s in ["XYXYXY", "YYXXXY", "XYZXYZ"]:
            sigma = BMC.from_string(s)
            hi = (1 << sigma.ell) - 1
            for _ in range(200):
                p1 = rng.integers(0, hi + 1, sigma.d)
                p2 = np.minimum(hi, p1 + rng.integers(0, 3, sigma.d))
                assert sigma.value(tuple(p1)) <= sigma.value(tuple(p2))


class TestDecode:
    def test_decode_roundtrip(self):
        sigma = BMC.from_string("YXZXZY")
        for v in range(64):
            assert sigma.value(sigma.decode(v)) == v

    def test_decode_values_vectorized(self):
        sigma = BMC.from_string("XYYXXY")
        vals = np.arange(64, dtype=np.uint64)
        pts = sigma.decode_values(vals)
        assert np.array_equal(sigma.values(pts), vals)


class TestSwap:
    def test_swap_valid(self):
        sigma = BMC.from_string("XYXYXY")
        # position 1 swaps ranks 0 and 1 (the trailing "XY" -> "YX")
        assert sigma.swap(1).to_string() == "XYXYYX"

    def test_swap_same_dim_rejected(self):
        sigma = BMC.from_string("XXYY")
        assert not sigma.can_swap(1)  # two Y bits at ranks 0,1
        with pytest.raises(ValueError):
            sigma.swap(1)

    def test_swap_out_of_range(self):
        sigma = BMC.from_string("XY")
        with pytest.raises(ValueError):
            sigma.swap(2)
        assert not sigma.can_swap(0) and not sigma.can_swap(2)

    def test_swap_preserves_validity(self):
        sigma = BMC.zc(2, 4)
        for a in range(1, sigma.nbits):
            if sigma.can_swap(a):
                swapped = sigma.swap(a)
                assert swapped.d == 2 and swapped.ell == 4
                # swapping back restores the original
                assert swapped.swap(a) == sigma


@st.composite
def curves_and_points(draw):
    """A random BMC with d = 1-4 and ell up to floor(63 / d) (so d * ell
    reaches 63 at d = 1 and 3), and points drawn towards 0 and 2^ell - 1."""
    d = draw(st.integers(1, 4))
    ell = draw(st.one_of(st.just(63 // d), st.integers(1, 63 // d)))
    sigma = BMC(tuple(draw(st.permutations(list(range(d)) * ell))))
    top = (1 << ell) - 1
    coord = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=20))
    return sigma, pts


class TestRuns:
    def test_runs_of_known_curves(self):
        assert BMC.zc(2, 3).runs == ((1, 0, 0, 1), (0, 0, 1, 1), (1, 1, 2, 1),
                                     (0, 1, 3, 1), (1, 2, 4, 1), (0, 2, 5, 1))
        assert BMC.lex(3, 4).runs == ((2, 0, 0, 4), (1, 0, 4, 4), (0, 0, 8, 4))
        assert BMC.from_string("XYYXXY").runs == ((1, 0, 0, 1), (0, 0, 1, 2),
                                                  (1, 1, 3, 2), (0, 2, 5, 1))

    @settings(max_examples=300, deadline=None)
    @given(curves_and_points())
    def test_runs_rebuild_slots(self, case):
        sigma, _ = case
        assert tuple(i for i, _, _, k in sigma.runs for _ in range(k)) == sigma.slots
        for (i, j, r, k), nxt in zip(sigma.runs, sigma.runs[1:] + (None,)):
            assert k >= 1 and sigma.gamma[i][j:j + k] == tuple(range(r, r + k))
            assert nxt is None or (nxt[0] != i and nxt[2] == r + k)  # maximal

    @settings(max_examples=300, deadline=None)
    @given(curves_and_points())
    def test_values_equal_eq1_and_decode_inverts(self, case):
        sigma, pts = case
        arr = np.array(pts, dtype=np.uint64)
        vals = sigma.values(arr)
        assert vals.dtype == np.uint64
        assert [int(v) for v in vals] == [sigma.value(p) for p in pts]
        assert np.array_equal(sigma.decode_values(vals), arr)
