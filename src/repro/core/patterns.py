"""Rise and drop pattern counting — Section 4.2.1.

A directed edge (two cells with consecutive curve values) decomposes
into a *rise pattern* in exactly one dimension and a *drop pattern* in
each of the other d-1 dimensions:

* ``R_b^k`` (Definition 4): in dimension ``b``, the coordinate changes
  from ``a*2^k + (2^(k-1) - 1)`` to ``a*2^k + 2^(k-1)`` — the k-th bit
  flips 0->1, the k-1 bits below flip 1->0.
* ``D_b^k`` (Definition 5): the coordinate changes from
  ``a*2^k + (2^k - 1)`` to ``a*2^k`` — the k lowest bits flip 1->0
  (``k = 0`` means the coordinate does not change at all).

Both counts over a query range ``[xs, xe]`` have closed forms evaluated
in O(1) (the two floor/ceil formulae at the end of Section 4.2.1).
"""
from __future__ import annotations

import numpy as np


def _ceil_div(a: int, b: int) -> int:
    """Ceiling division for positive b and any-sign a."""
    return -((-a) // b)


def count_rise(xs: int, xe: int, k: int) -> int:
    """Number of rise patterns ``R^k`` inside the range ``[xs, xe]``.

    Counts values of ``a >= 0`` such that both end coordinates
    ``a*2^k + 2^(k-1) - 1`` and ``a*2^k + 2^(k-1)`` lie in the range."""
    if k < 1:
        raise ValueError("rise patterns need k >= 1")
    p = 1 << k
    half = 1 << (k - 1)
    a_min = max(0, _ceil_div(xs - (half - 1), p))
    a_max = (xe - half) // p
    return max(0, a_max - a_min + 1)


def count_drop(xs: int, xe: int, k: int) -> int:
    """Number of drop patterns ``D^k`` inside the range ``[xs, xe]``.

    ``k = 0`` is the no-change pattern, counted as the range length
    (Section 4.2.1, Example 4)."""
    if k < 0:
        raise ValueError("drop patterns need k >= 0")
    if k == 0:
        return xe - xs + 1
    p = 1 << k
    return max(0, (xe + 1) // p - _ceil_div(xs, p))


def rise_vector(xs: int, xe: int, ell: int) -> np.ndarray:
    """``[N(R^1), ..., N(R^ell)]`` for one dimension of one query."""
    return np.array([count_rise(xs, xe, k) for k in range(1, ell + 1)], dtype=np.int64)


def drop_vector(xs: int, xe: int, ell: int) -> np.ndarray:
    """``[N(D^0), ..., N(D^ell)]`` for one dimension of one query."""
    return np.array([count_drop(xs, xe, k) for k in range(ell + 1)], dtype=np.int64)


def count_dtype(ell: int) -> type:
    """Integer dtype of the vectorized counts over ``ell``-bit
    coordinates: every intermediate is below ``2^(ell+1)``, so int32
    (which numpy shifts several times faster) holds it up to ell = 30."""
    return np.int32 if ell <= 30 else np.int64


def rise_matrix(lo: np.ndarray, hi: np.ndarray, ell: int) -> np.ndarray:
    """Vectorized rise counts: (n,) ranges -> (n, ell) matrix.

    Row i is ``rise_vector(lo[i], hi[i], ell)``.  The rise coordinates
    ``a*2^k + 2^(k-1)`` at most ``x`` number ``(x + 2^(k-1)) >> k``, so
    ``N(R^k) = ((xe + 2^(k-1)) >> k) - ((xs + 2^(k-1)) >> k)``."""
    x = np.array([hi, lo], dtype=count_dtype(ell))
    out = np.empty((ell, x.shape[1]), dtype=x.dtype)
    t = np.empty_like(x)
    for k in range(1, ell + 1):
        np.right_shift(np.add(x, 1 << (k - 1), out=t), k, out=t)
        np.subtract(t[0], t[1], out=out[k - 1])
    return out.T


def drop_matrix(lo: np.ndarray, hi: np.ndarray, ell: int) -> np.ndarray:
    """Vectorized drop counts: (n,) ranges -> (n, ell+1) matrix.

    ``N(D^k) = max(0, ((xe + 1) >> k) + ((-xs) >> k))``: the aligned
    blocks of ``2^k`` cells inside ``[xs, xe]``, ``(-xs) >> k`` being
    ``-ceil(xs / 2^k)``."""
    x = np.array([hi, lo], dtype=count_dtype(ell))
    x[0] += 1
    np.negative(x[1], out=x[1])
    out = np.empty((ell + 1, x.shape[1]), dtype=x.dtype)
    np.add(x[0], x[1], out=out[0])
    t = np.empty_like(x)
    for k in range(1, ell + 1):
        np.right_shift(x, k, out=t)
        np.maximum(np.add(t[0], t[1], out=out[k]), 0, out=out[k])
    return out.T
