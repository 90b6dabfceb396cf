"""Entanglement witnesses on binned global-variable marginals.

Every witness value is (left-hand side minus bound), so a negative value
certifies entanglement regardless of which criterion produced it. The two
coarse-grained criteria take binned marginals at ANY bin widths and stay
nonnegative on separable states by construction (the variance one via the
histogram corrections, the entropic one via the band-limiting bound
constant). The naive discrete criterion applies the continuous variance
bound to uncorrected discrete variances — it is deliberately included as
the cautionary counterexample and is unsafe: with bins a few standard
deviations wide it reports entanglement for product states.

`witness_grid` evaluates the data witnesses on every pair of two lists of
binned marginals; a single cell is the 1x1 grid. It and
uncertainty.sweep_grid share one core: each marginal is reduced once to
(B,) variances and entropies (`_reduce`), ln C(gamma) is tabulated once per
distinct width product (`_log_bound_table`), and `_combine`, the one
definition of each witness formula, broadcasts them over (R, S, B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import batch_entropy, batch_weighted_moments
from .binning import DiscreteDistribution
from .bound import entropic_bound_constant
from .errors import ConfigurationError, InvalidParameterError
from .stats import corrected_entropy, corrected_variance

#: Witnesses that can be evaluated from binned count data alone.
DATA_WITNESS_IDS = ("coarse_variance", "coarse_entropic", "naive_discrete")

#: pairing token -> (first variable, second variable)
PAIRINGS = {"pm": ("x+", "p-"), "mp": ("x-", "p+")}


def _needs(witness_ids) -> tuple[bool, bool]:
    """(need_variance, need_entropy) of witness_ids; refuses an id outside DATA_WITNESS_IDS."""
    for witness_id in witness_ids:
        if witness_id not in DATA_WITNESS_IDS:
            raise ConfigurationError(
                f"witness {witness_id!r} cannot be evaluated from count data; "
                f"choose from {','.join(DATA_WITNESS_IDS)}"
            )
    return any(w != "coarse_entropic" for w in witness_ids), "coarse_entropic" in witness_ids


@dataclass(frozen=True)
class _MarginalStats:
    """Statistics of one binned marginal, one entry per replicate.

    kept marks the replicates whose counts drew a positive total. variance
    (discrete, over the bin centers) and entropy (discrete, in nats) are NaN
    where kept is False, and None when no requested witness needs them.
    """

    width: float
    kept: np.ndarray
    variance: np.ndarray | None
    entropy: np.ndarray | None


def _reduce(
    width: float,
    weights: np.ndarray,
    centers: np.ndarray,
    need_variance: bool,
    need_entropy: bool,
) -> _MarginalStats:
    """Statistics of each row of weights (B, K) over centers, (K,) or (B, K)."""
    kept = weights.sum(axis=1) > 0
    if not kept.all():
        weights = weights[kept]
        if centers.ndim == 2:
            centers = centers[kept]
    variance = entropy = None
    if need_variance:
        variance = np.full(kept.shape, np.nan)
        variance[kept] = batch_weighted_moments(weights, centers)[1]
    if need_entropy:
        entropy = np.full(kept.shape, np.nan)
        entropy[kept] = batch_entropy(weights)
    return _MarginalStats(width, kept, variance, entropy)


def _log_bound_table(r_widths, s_widths) -> np.ndarray:
    """ln bound_constant(w_r * w_s) as an (R, S, 1) array, one call per distinct product."""
    products = np.array([[wr * ws for ws in s_widths] for wr in r_widths])
    distinct, inverse = np.unique(products.ravel(), return_inverse=True)
    logs = np.array([math.log(entropic_bound_constant(g)) for g in distinct])
    return logs[inverse].reshape(products.shape)[:, :, None]


def _combine(witness_id: str, r_stats, s_stats, log_bound) -> np.ndarray:
    """Values (R, S, B) of one witness on every pair of r_stats and s_stats.

    Each marginal contributes one input x: its histogram entropy to
    coarse_entropic, its histogram variance to coarse_variance and its
    discrete variance to naive_discrete. coarse_entropic is then
    x_r + x_s + log_bound (from _log_bound_table), and the variance-product
    witnesses are x_r * x_s - 1.
    """

    def stacked(stats):
        if witness_id == "coarse_entropic":
            inputs = [corrected_entropy(st.entropy, st.width) for st in stats]
        elif witness_id == "coarse_variance":
            inputs = [corrected_variance(st.variance, st.width) for st in stats]
        else:
            inputs = [st.variance for st in stats]
        return np.stack(inputs)

    x_r, x_s = stacked(r_stats)[:, None, :], stacked(s_stats)[None, :, :]
    if witness_id == "coarse_entropic":
        return x_r + x_s + log_bound
    return x_r * x_s - 1.0


def witness_grid(r, s, witness_ids=DATA_WITNESS_IDS) -> dict[str, np.ndarray]:
    """Data witness values on every pair of binned marginals.

    r and s are sequences of DiscreteDistribution (r from the position
    scan, s from the momentum scan). Returns {witness_id: values}, each a
    (len(r), len(s)) array whose entry [i, j] is the witness on r[i] and
    s[j]; a single cell is the 1x1 grid. An empty r or s, or a witness_id
    outside DATA_WITNESS_IDS, raises ConfigurationError; an entry that is
    not a DiscreteDistribution, or a value that is not finite (bins so wide
    that a corrected variance overflows), raises InvalidParameterError.
    """
    r, s = list(r), list(s)
    if not r or not s:
        raise ConfigurationError("witness_grid needs at least one marginal on each side")
    for d in (*r, *s):
        if not isinstance(d, DiscreteDistribution):
            raise InvalidParameterError(
                f"marginals must be DiscreteDistributions, got {type(d).__name__}"
            )
    need_variance, need_entropy = _needs(witness_ids)

    def stats(side):
        return [
            _reduce(d.grid.width, d.masses[None, :], d.grid.centers, need_variance, need_entropy)
            for d in side
        ]

    out = {}
    # overflow and inf - inf become the non-finite values refused below
    with np.errstate(over="ignore", invalid="ignore"):
        r_stats, s_stats = stats(r), stats(s)
        log_bound = None
        if need_entropy:
            log_bound = _log_bound_table([d.grid.width for d in r], [d.grid.width for d in s])
        for witness_id in witness_ids:
            values = _combine(witness_id, r_stats, s_stats, log_bound)[:, :, 0]
            bad = values[~np.isfinite(values)]
            if bad.size:
                raise InvalidParameterError(f"witness value must be finite, got {bad[0]}")
            out[witness_id] = values
    return out
