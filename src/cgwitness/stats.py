"""Variances and Shannon entropies of binned distributions.

Two exact identities connect the discrete statistics of the bin masses to
the statistics of the piecewise-constant density built from them: the
density's variance exceeds the discrete variance by width^2/12 (the
variance of one rectangle) and its differential entropy exceeds the
discrete entropy by ln(width). `corrected_variance` and `corrected_entropy`
are the one definition of each correction; they broadcast, so the
single-distribution functions here and the per-replicate arrays of
cgwitness.uncertainty go through the same code. All entropies are in nats.
"""

from __future__ import annotations

import math

from ._kernels import batch_entropy, batch_weighted_moments
from .binning import DiscreteDistribution


def corrected_variance(variance, width: float):
    """Histogram-density variance from the discrete variance of its masses."""
    return variance + width**2 / 12.0


def corrected_entropy(entropy, width: float):
    """Histogram-density entropy from the discrete entropy of its masses."""
    return entropy + math.log(width)


def discrete_variance(d: DiscreteDistribution) -> float:
    """Variance of the bin masses over the bin centers.

    Note that for data binned from a continuous variable this *grouped*
    variance includes the spread within bins, so on smooth distributions it
    sits near sigma^2 + width^2/12, not sigma^2.
    """
    _, var = batch_weighted_moments(d.masses[None, :], d.grid.centers)
    return float(var[0])


def discrete_entropy(d: DiscreteDistribution) -> float:
    """Shannon entropy -sum(q ln q) in nats, with 0 ln 0 = 0."""
    return float(batch_entropy(d.masses[None, :])[0])


def histogram_variance(d: DiscreteDistribution) -> float:
    """Variance of the piecewise-constant density of d.

    Equals the discrete variance of the masses plus width^2/12; the floor
    width^2/12 is attained exactly when one bin carries all mass.
    """
    return corrected_variance(discrete_variance(d), d.grid.width)


def histogram_entropy(d: DiscreteDistribution) -> float:
    """Differential entropy of the piecewise-constant density of d (nats).

    Equals the discrete entropy of the masses plus ln(width); for a single
    occupied bin this is exactly ln(width), the entropy of one rectangle.
    """
    return corrected_entropy(discrete_entropy(d), d.grid.width)
