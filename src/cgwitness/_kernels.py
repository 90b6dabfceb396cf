"""Batched statistics kernels: weighted moments and Shannon entropy per row."""

import numpy as np

# Masses below this are treated as exactly zero in entropy sums: the
# 0*ln(0) = 0 convention, kept clear of the subnormal range.
_ENTROPY_FLOOR = 1e-300


def _checked_totals(totals):
    totals = np.asarray(totals, dtype=np.float64)
    if np.any(totals <= 0.0):
        raise ValueError("every row must have positive total weight")
    return totals


def batch_weighted_moments(weights, centers, *, totals):
    """Mean and variance of each row of ``weights`` over ``centers``.

    Args:
        weights: (B, K) nonnegative float array; rows need not be normalized.
        centers: (K,) shared coordinates, or (B, K) per-row coordinates.
        totals: (B,) row sums of ``weights``, each positive.

    Returns:
        (means, variances) float arrays of shape (B,).
    """
    w = np.asarray(weights, dtype=np.float64)
    x = np.asarray(centers, dtype=np.float64)
    totals = _checked_totals(totals)
    if x.ndim == 1:
        means = (w @ x) / totals
        # second pass around the mean keeps the subtraction benign
        dev = x[None, :] - means[:, None]
    else:
        means = np.einsum("bk,bk->b", w, x) / totals
        dev = x - means[:, None]
    dev *= dev
    variances = np.einsum("bk,bk->b", w, dev) / totals
    return means, variances


def batch_entropy(weights, *, totals):
    """Shannon entropy (nats) of each row, normalizing by the row total.

    Args:
        weights: (B, K) nonnegative float array.
        totals: (B,) row sums of ``weights``, each positive.

    Returns:
        (B,) array of -sum(q ln q) with q = w/total and 0 ln 0 = 0.
    """
    w = np.asarray(weights, dtype=np.float64)
    totals = _checked_totals(totals)
    logs = np.log(w, out=np.zeros_like(w), where=w > _ENTROPY_FLOOR)
    s = np.einsum("bk,bk->b", w, logs)
    return np.log(totals) - s / totals
