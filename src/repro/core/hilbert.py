"""Hilbert curve values — competitor SFC (HC in Section 6.4).

The paper evaluates HC only as a data-ordering competitor (it is not a
BMC, so the cost model does not apply to it).  We implement the
d-dimensional Skilling transform [Skilling 2004, AIP CP 707] which maps
between coordinates and the Hilbert "transpose" form; the transpose's
Z-order value (its bits interleaved, axis 0 most significant) is the
Hilbert index.  Works for any d >= 2 and bit depth ell; vectorized with
numpy for bulk ordering.
"""
from __future__ import annotations

import numpy as np

from .bmc import BMC


def _axes_to_transpose(x: np.ndarray, ell: int) -> np.ndarray:
    """In-place Skilling transform: Gray-code-ish axes -> transpose form.

    ``x`` is (n, d) uint64; returns the transformed copy."""
    x = x.astype(np.uint64).copy()
    n, d = x.shape
    m = np.uint64(1) << np.uint64(ell - 1)
    # Inverse undo excess work
    q = m
    while q > np.uint64(1):
        p = q - np.uint64(1)
        for i in range(d):
            hit = (x[:, i] & q).astype(bool)
            # invert low bits of x[0] where bit set; else exchange with x[i]
            x[hit, 0] ^= p
            t = (x[~hit, 0] ^ x[~hit, i]) & p
            x[~hit, 0] ^= t
            x[~hit, i] ^= t
        q >>= np.uint64(1)
    # Gray encode
    for i in range(1, d):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(n, dtype=np.uint64)
    q = m
    while q > np.uint64(1):
        hit = (x[:, d - 1] & q).astype(bool)
        t[hit] ^= q - np.uint64(1)
        q >>= np.uint64(1)
    for i in range(d):
        x[:, i] ^= t
    return x


def hilbert_values(points: np.ndarray, ell: int) -> np.ndarray:
    """Hilbert curve values for an (n, d) array of grid coordinates."""
    pts = np.asarray(points, dtype=np.uint64)
    if pts.ndim != 2:
        raise ValueError(f"expected (n, d), got {pts.shape}")
    d = pts.shape[1]
    if d * ell > 63:
        raise ValueError("d * ell must be <= 63")
    if np.any(pts >= (np.uint64(1) << np.uint64(ell))):
        raise ValueError(f"coordinates outside [0, 2^{ell})")
    return BMC.zc(d, ell).values(_axes_to_transpose(pts, ell))
