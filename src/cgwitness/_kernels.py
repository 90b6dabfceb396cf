"""Batched statistics kernels: weighted moments and Shannon entropy per row.

Each row reduces alone (einsum, no BLAS call), so its bits do not depend on
the other rows of the call, and a zero-total row gives NaN by its own 0/0.
"""

import numpy as np

# Masses below this are treated as exactly zero in entropy sums: the
# 0*ln(0) = 0 convention, kept clear of the subnormal range.
_ENTROPY_FLOOR = 1e-300


def batch_weighted_moments(weights, centers, *, totals):
    """Mean and variance of each row of ``weights`` over ``centers``.

    Args:
        weights: (B, K) nonnegative float array; rows need not be normalized.
        centers: (K,) shared coordinates, or (B, K) per-row coordinates.
        totals: (B,) row sums of ``weights``.

    Returns:
        (means, variances) float arrays of shape (B,), NaN on zero-total rows.
    """
    w = np.asarray(weights, dtype=np.float64)
    x = np.broadcast_to(np.asarray(centers, dtype=np.float64), w.shape)
    means = np.einsum("bk,bk->b", w, x) / totals
    # second pass around the mean keeps the subtraction benign
    dev = x - means[:, None]
    dev *= dev
    variances = np.einsum("bk,bk->b", w, dev) / totals
    return means, variances


def batch_entropy(weights, *, totals):
    """Shannon entropy (nats) of each row, normalizing by the row total.

    Args:
        weights: (B, K) nonnegative float array.
        totals: (B,) row sums of ``weights``.

    Returns:
        (B,) array of -sum(q ln q) with q = w/total and 0 ln 0 = 0, NaN on
        zero-total rows.
    """
    w = np.asarray(weights, dtype=np.float64)
    logs = np.log(w, out=np.zeros_like(w), where=w > _ENTROPY_FLOOR)
    s = np.einsum("bk,bk->b", w, logs)
    return np.log(totals) - s / totals
