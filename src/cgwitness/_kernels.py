"""Batched statistics kernels: weighted moments and Shannon entropy per row."""

import numpy as np

# Masses below this are treated as exactly zero in entropy sums: the
# 0*ln(0) = 0 convention, kept clear of the subnormal range.
_ENTROPY_FLOOR = 1e-300


def batch_weighted_moments(weights, centers):
    """Mean and variance of each row of ``weights`` over ``centers``.

    Args:
        weights: (B, K) nonnegative float array; rows need not be normalized.
        centers: (K,) shared coordinates, or (B, K) per-row coordinates.

    Returns:
        (means, variances) float arrays of shape (B,).
    """
    w = np.asarray(weights, dtype=np.float64)
    x = np.asarray(centers, dtype=np.float64)
    totals = w.sum(axis=1)
    if np.any(totals <= 0.0):
        raise ValueError("every row must have positive total weight")
    if x.ndim == 1:
        sx = w @ x
        means = sx / totals
        # second pass around the mean keeps the subtraction benign
        dev = x[None, :] - means[:, None]
        variances = np.einsum("bk,bk->b", w, dev * dev) / totals
    else:
        sx = np.einsum("bk,bk->b", w, x)
        means = sx / totals
        dev = x - means[:, None]
        variances = np.einsum("bk,bk->b", w, dev * dev) / totals
    return means, variances


def batch_entropy(weights):
    """Shannon entropy (nats) of each row, normalizing by the row total.

    Args:
        weights: (B, K) nonnegative float array.

    Returns:
        (B,) array of -sum(q ln q) with q = w/total and 0 ln 0 = 0.
    """
    w = np.asarray(weights, dtype=np.float64)
    totals = w.sum(axis=1)
    if np.any(totals <= 0.0):
        raise ValueError("every row must have positive total weight")
    logs = np.zeros_like(w)
    mask = w > _ENTROPY_FLOOR
    logs[mask] = np.log(w[mask])
    s = np.einsum("bk,bk->b", w, logs)
    return np.log(totals) - s / totals
