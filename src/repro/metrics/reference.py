"""Numpy ground-truth implementations of the three metrics.

These are the direct transcriptions of the paper's Eqs. 1–4 and serve
as the oracle for the Spark implementations. ``gini`` uses the exact
rank identity
``G = 2·Σᵢ i·x₍ᵢ₎ / (n·Σx) − (n+1)/n`` (x sorted ascending, i = 1..n),
which equals the paper's mean-absolute-difference form (Eq. 1) for
non-negative inputs.
"""

from __future__ import annotations

import numpy as np

#: Nakamoto threshold of the paper's Eq. 4 in integer percent: the
#: coefficient is the minimum k whose combined share Σ pᵢ reaches it. The
#: metrics SQL compares integers against it, so the boundary is exact.
NAKAMOTO_THRESHOLD_PCT = 51
NAKAMOTO_THRESHOLD = NAKAMOTO_THRESHOLD_PCT / 100


def _as_counts(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64).ravel()
    if a.size == 0:
        raise ValueError("empty block-count distribution")
    if (a < 0).any():
        raise ValueError("block counts must be non-negative")
    if a.sum() == 0:
        raise ValueError("block-count distribution sums to zero")
    return a


def gini(x) -> float:
    """Gini coefficient of a block-count distribution (paper Eq. 1).

    0 = perfectly equal (maximally decentralized), → 1 = one producer
    holds everything. Producers with zero blocks count toward the
    population if present in ``x``.
    """
    a = np.sort(_as_counts(x))
    n = a.size
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(2.0 * (i * a).sum() / (n * a.sum()) - (n + 1.0) / n)


def shannon_entropy(x) -> float:
    """Shannon entropy (bits) of the mining-power distribution (Eqs. 2–3).

    Higher = more random/disordered = more decentralized. Zero-count
    producers contribute nothing (lim p→0 of −p·log₂p = 0).
    """
    a = _as_counts(x)
    p = a[a > 0] / a.sum()
    return float(-(p * np.log2(p)).sum())


def nakamoto(x, threshold: float = NAKAMOTO_THRESHOLD) -> int:
    """Nakamoto coefficient (Eq. 4): minimum number of producers whose
    combined share reaches ``threshold`` (``NAKAMOTO_THRESHOLD`` by default)."""
    a = np.sort(_as_counts(x))[::-1]
    shares = np.cumsum(a) / a.sum()
    # First index with cumulative share >= threshold; the 1e-12 slack
    # keeps exact-boundary integer cases (a top share of exactly the
    # threshold) in, matching the exact integer arithmetic of the SQL.
    k = int(np.searchsorted(shares, threshold - 1e-12, side="left")) + 1
    return min(k, a.size)
