"""Bit-merging curves (BMC) — Section 3.1 of the paper.

A BMC ``sigma`` over a ``d``-dimensional grid with ``ell`` bits per
dimension is a merge order of the ``d * ell`` coordinate bits: the curve
value of a cell is obtained by placing bit ``j`` (1-indexed, LSB first)
of the dimension-``i`` coordinate at bit position ``gamma[i][j]`` of the
output (Eq. 1).  Within one dimension the bit order is preserved
(``gamma[i][j] < gamma[i][j+1]``), which is what makes every BMC
monotonic (Theorem 1).

Representation: ``slots[r]`` is the dimension (0-indexed) that owns
output bit rank ``r`` (rank 0 = least significant).  The string form
reads most-significant slot first using letters X, Y, Z, W for
dimensions 0..3 — e.g. ``"YXYX"`` is ``d=2, ell=2`` with the Y bits at
ranks 1 and 3.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

#: Letters used in string forms, dimension 0 first.
DIM_LETTERS = "XYZW"

MAX_TOTAL_BITS = 63  # curve values are kept inside uint64 / int64


@dataclass(frozen=True)
class BMC:
    """An immutable bit-merging curve.

    ``slots`` maps output bit rank (0 = LSB) to the owning dimension.
    """

    slots: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.slots:
            raise ValueError("empty BMC")
        if len(self.slots) > MAX_TOTAL_BITS:
            raise ValueError(f"d*ell = {len(self.slots)} exceeds {MAX_TOTAL_BITS} bits")
        d = max(self.slots) + 1
        counts = [0] * d
        for s in self.slots:
            if s < 0:
                raise ValueError("negative dimension id")
            counts[s] += 1
        if len(set(counts)) != 1:
            raise ValueError(
                f"every dimension must contribute the same number of bits, got {counts}"
            )

    # -- basic shape -------------------------------------------------------
    @cached_property
    def d(self) -> int:
        """Data space dimensionality."""
        return max(self.slots) + 1

    @cached_property
    def ell(self) -> int:
        """Bits per dimension."""
        return len(self.slots) // self.d

    @property
    def nbits(self) -> int:
        return len(self.slots)

    # -- gamma table -------------------------------------------------------
    @cached_property
    def gamma(self) -> tuple[tuple[int, ...], ...]:
        """``gamma[i][j-1]`` = output rank of bit ``j`` of dimension ``i``.

        ``j`` is 1-indexed LSB-first in the paper; here the tuple is
        0-indexed so ``gamma[i][0]`` is the rank of the least significant
        bit of dimension ``i``.
        """
        out: list[list[int]] = [[] for _ in range(self.d)]
        for rank, dim in enumerate(self.slots):
            out[dim].append(rank)
        return tuple(tuple(ranks) for ranks in out)

    @cached_property
    def runs(self) -> tuple[tuple[int, int, int, int], ...]:
        """Maximal runs of equal adjacent slots, least significant first,
        as ``(i, j, r, k)``: ranks ``r .. r+k-1`` hold bits ``j .. j+k-1``
        of dimension ``i``.  Within-dimension bit order is fixed, so Eq. 1
        moves each run as one shift-and-mask: ZC has ``d * ell`` runs, a
        lexicographic curve ``d``."""
        out, used, r = [], [0] * self.d, 0
        for i, group in groupby(self.slots):
            k = len(list(group))
            out.append((i, used[i], r, k))
            used[i] += k
            r += k
        return tuple(out)

    # -- construction ------------------------------------------------------
    @staticmethod
    def from_string(s: str) -> "BMC":
        """Parse e.g. ``"XYXYXY"`` (most significant slot first)."""
        dims = []
        for ch in reversed(s.strip().upper()):
            idx = DIM_LETTERS.find(ch)
            if idx < 0:
                raise ValueError(f"unknown dimension letter {ch!r} (use {DIM_LETTERS})")
            dims.append(idx)
        return BMC(tuple(dims))

    def to_string(self) -> str:
        if self.d > len(DIM_LETTERS):
            raise ValueError("string form only supports up to 4 dimensions")
        return "".join(DIM_LETTERS[dim] for dim in reversed(self.slots))

    @staticmethod
    def zc(d: int, ell: int) -> "BMC":
        """Z-order curve: bits of all dimensions interleaved round-robin.

        Rank 0 belongs to dimension d-1 so that the string form is
        ``"XY...XY"`` — matching Figure 2's ``YX...`` convention where
        dimension X owns the more significant bit of each pair.
        """
        return BMC(tuple((d - 1 - r % d) for r in range(d * ell)))

    @staticmethod
    def lex(d: int, ell: int) -> "BMC":
        """Lexicographic curve (LC / C-curve): order by x1, then x2, ...

        Dimension 0 owns the most significant ``ell`` bits.
        """
        return BMC(tuple(d - 1 - r // ell for r in range(d * ell)))

    # -- actions (Section 5) -----------------------------------------------
    def can_swap(self, a: int) -> bool:
        """True iff swapping bit positions ``a`` and ``a+1`` (1-indexed
        from the LSB, the paper's action space) yields a *different valid*
        BMC — i.e. the two slots belong to different dimensions."""
        if not 1 <= a <= self.nbits - 1:
            return False
        return self.slots[a - 1] != self.slots[a]

    def swap(self, a: int) -> "BMC":
        """Swap adjacent bits ``a`` and ``a+1`` (1-indexed from LSB).

        Raises ``ValueError`` for a same-dimension swap, which would break
        the within-dimension bit order (constraint (b) in Section 5).
        """
        if not 1 <= a <= self.nbits - 1:
            raise ValueError(f"swap position {a} out of range [1, {self.nbits - 1}]")
        if self.slots[a - 1] == self.slots[a]:
            raise ValueError("cannot swap two bits of the same dimension")
        s = list(self.slots)
        s[a - 1], s[a] = s[a], s[a - 1]
        return BMC(tuple(s))

    # -- curve values (Eq. 1) ----------------------------------------------
    def value(self, point) -> int:
        """Curve value of one point (sequence of d non-negative ints)."""
        if len(point) != self.d:
            raise ValueError(f"point has {len(point)} coords, curve has d={self.d}")
        v = 0
        for i, x in enumerate(point):
            if not 0 <= x < (1 << self.ell):
                raise ValueError(f"coordinate {x} outside [0, 2^{self.ell})")
            for j, rank in enumerate(self.gamma[i]):
                v |= ((int(x) >> j) & 1) << rank
        return v

    def values(self, points: np.ndarray) -> np.ndarray:
        """Vectorized curve values for an (n, d) array of coordinates, one
        shift-and-mask per run (:attr:`runs`); :meth:`value` is the per-bit
        reference."""
        pts = np.asarray(points)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValueError(f"expected (n, {self.d}) array, got {pts.shape}")
        cols = np.ascontiguousarray(pts.T, dtype=np.uint64)  # a row per dimension
        # a negative coordinate cast to uint64 lands above 2^63, so one
        # bound catches both ends of [0, 2^ell)
        if cols.size and int(cols.max()) >> self.ell:
            raise ValueError(f"coordinates outside [0, 2^{self.ell})")
        out = np.zeros(len(pts), dtype=np.uint64)
        for i, j, r, k in self.runs:
            term = cols[i] >> np.uint64(j)
            term &= np.uint64((1 << k) - 1)
            term <<= np.uint64(r)
            out |= term
        return out

    def decode(self, value: int) -> tuple[int, ...]:
        """Inverse of :meth:`value` — curve value back to coordinates."""
        coords = [0] * self.d
        for rank, dim in enumerate(self.slots):
            j = self.gamma[dim].index(rank)
            coords[dim] |= ((int(value) >> rank) & 1) << j
        return tuple(coords)

    # -- misc ---------------------------------------------------------------
    def __str__(self) -> str:  # pragma: no cover - repr convenience
        try:
            return self.to_string()
        except ValueError:
            return f"BMC{self.slots}"


def round_robin(counts: list[int]) -> list[int]:
    """Dimensions interleaved round-robin until dimension ``i`` has been
    used ``counts[i]`` times, e.g. ``[2, 1] -> [0, 1, 0]``."""
    out, left = [], list(counts)
    while any(left):
        for i in range(len(left)):
            if left[i] > 0:
                out.append(i)
                left[i] -= 1
    return out
