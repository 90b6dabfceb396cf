"""Gaussian two-photon model with exact global-variable marginals.

The momentum-space amplitude factorizes over the sum and difference
momenta, with |amplitude|^2 = exp(-p_sum^2/(2 s+^2)) exp(-p_diff^2/(2 s-^2))
/ (pi s+ s-) as a density in the two single-photon momenta (the sum and
difference coordinates carry a Jacobian of 2). The position-space sum and
difference marginals follow by Fourier duality of the pure Gaussian: their
standard deviations are the reciprocals 1/s+ and 1/s-. Equality of the two
widths is exactly the separability condition within this family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .binning import MAX_COUNT, BinGrid, CountHistogram, DiscreteDistribution, coarse_grain
from .errors import InvalidParameterError, TruncationError, check_real, check_seed
from .ingest import JointCounts, OpticalGeometry, detector_to_source_scale

# numpy has no error function: apply math's elementwise
_erf = np.vectorize(math.erf, otypes=[np.float64])
_erfc = np.vectorize(math.erfc, otypes=[np.float64])

#: numpy's largest Poisson mean, int64 max - 10 sqrt(int64 max) ~ 9.22e18.
MAX_EXPECTED_COUNTS = MAX_COUNT - 10.0 * math.sqrt(MAX_COUNT)

#: Largest detector square sample_joint_counts builds, in cells: ~10x the
#: 965 x 965 scan, ~80 MB per float64 array of the plan.
MAX_DETECTOR_CELLS = 10_000_000

#: Half-span of the grids coarse_grained_marginal builds, in standard deviations.
SPAN_SIGMAS = 9.0


def _rng_from(seed) -> np.random.Generator:
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(check_seed(seed))
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class GaussianTwoPhotonState:
    """Pure Gaussian pair state parametrized by its momentum marginal widths.

    Args:
        sigma_plus: standard deviation of the sum-momentum marginal (1/length).
        sigma_minus: standard deviation of the difference-momentum marginal.
    """

    sigma_plus: float
    sigma_minus: float

    def __post_init__(self):
        check_real("sigma_plus", self.sigma_plus, 0, closed=False)
        check_real("sigma_minus", self.sigma_minus, 0, closed=False)


@dataclass(frozen=True)
class MarginalSpec:
    """One marginal: a Gaussian of the given mean and standard deviation."""

    mean: float
    std: float

    def __post_init__(self):
        check_real("mean", self.mean)
        check_real("std", self.std, 0, closed=False)


def exact_marginals(state: GaussianTwoPhotonState) -> dict[str, MarginalSpec]:
    """Analytic global-variable marginals of the Gaussian pair state.

    Keyed "x+", "x-", "p+" and "p-", the variable names of
    witnesses.PAIRINGS. The momentum marginals have the state's own widths;
    the position marginals have the reciprocal widths, so each
    sum/difference pair is minimum-uncertainty: std(x) * std(p) = 1.
    """
    return {
        "x+": MarginalSpec(0.0, 1.0 / state.sigma_plus),
        "x-": MarginalSpec(0.0, 1.0 / state.sigma_minus),
        "p+": MarginalSpec(0.0, state.sigma_plus),
        "p-": MarginalSpec(0.0, state.sigma_minus),
    }


def bin_mass_oracle(m: MarginalSpec) -> Callable[[float, float], float]:
    """Exact Gaussian interval masses for coarse_grain.

    Returns a vectorized callable (lo, hi) -> P(lo <= Z <= hi); a NaN end
    or lo > hi raises InvalidParameterError, infinite ends are taken. Tail
    intervals are computed from the complementary error function so the
    result keeps full relative precision far from the mean.
    """

    mean, std = m.mean, m.std
    rt2 = math.sqrt(2.0)

    def mass(lo, hi):
        # a quotient beyond the float range becomes +/-inf, whose erf is the right +/-1
        with np.errstate(over="ignore"):
            a = (np.asarray(lo, dtype=np.float64) - mean) / (std * rt2)
            b = (np.asarray(hi, dtype=np.float64) - mean) / (std * rt2)
        if np.isnan(a).any() or np.isnan(b).any():
            raise InvalidParameterError("interval ends must not be NaN")
        if np.any(a > b):
            raise InvalidParameterError("interval must have lo <= hi")
        # mirror intervals left of the mean, then each takes one formula
        left = (a < 0) & (b <= 0)
        a, b = np.where(left, -b, a), np.where(left, -a, b)
        tail = a >= 0
        out = np.empty(a.shape)
        out[tail] = 0.5 * (_erfc(a[tail]) - _erfc(b[tail]))
        out[~tail] = 0.5 * (_erf(b[~tail]) - _erf(a[~tail]))
        return out if out.ndim else float(out)

    return mass


def coarse_grained_marginal(m: MarginalSpec, width: float) -> DiscreteDistribution:
    """Exact bin masses of one marginal on an origin-centered grid.

    The grid spans mean +/- SPAN_SIGMAS standard deviations (at least one
    bin), so it loses < 1e-17 of the mass.
    """
    half = abs(m.mean) + SPAN_SIGMAS * m.std
    grid = BinGrid.spanning(width, -half, half)
    return coarse_grain(bin_mass_oracle(m), grid)


def sample_marginal_counts(
    m: MarginalSpec,
    width: float,
    total_expected_counts: float,
    seed,
) -> CountHistogram:
    """Poisson-draw a binned marginal directly (no joint table).

    Counts in bin k are independent Poisson with mean total * mass_k. seed
    is a non-negative integer, a numpy.random.SeedSequence, or None.
    """
    check_real("total_expected_counts", total_expected_counts, 0, MAX_EXPECTED_COUNTS, closed=False)
    d = coarse_grained_marginal(m, width)
    counts = _rng_from(seed).poisson(total_expected_counts * d.masses)
    counts.setflags(write=False)  # so frozen_counts takes it without a copy
    return CountHistogram(d.grid, counts)


def _half_size(sum_std: float, diff_std: float, width: float) -> int:
    """Detector half-size N of a scan; a square above MAX_DETECTOR_CELLS is refused.

    N exceeds 3 standard deviations of the wider marginal in base bins. The
    refusal comes before anything is allocated.
    """
    # floats until the limit passes: N is inf when the ratio overflows
    n = float(np.ceil(3.0 * max(sum_std, diff_std) / width)) + 1.0
    side = 2.0 * n + 1.0
    if side * side > MAX_DETECTOR_CELLS:
        raise InvalidParameterError(
            f"a {side:.6g} x {side:.6g} detector square exceeds the limit of "
            f"{MAX_DETECTOR_CELLS} cells; the base bin is too narrow for the marginal widths"
        )
    return int(n)


def _plan_square(sum_std: float, diff_std: float, width: float):
    """Choose the detector half-size N and compute the captured fraction.

    N is _half_size's, and the square holds every cell with
    |i + j| + |i - j| <= 2N, so it captures at least
    1 - 2 P(|Z| > 3 sqrt 2) ~ 0.99996 of the joint mass.
    """
    n = _half_size(sum_std, diff_std, width)
    side = 2 * n + 1
    j = np.arange(-3 * n, 3 * n + 1)
    lo, hi = (j - 0.5) * width, (j + 0.5) * width
    ms = bin_mass_oracle(MarginalSpec(0.0, sum_std))(lo, hi)
    md = bin_mass_oracle(MarginalSpec(0.0, diff_std))(lo, hi)
    # cell (i, j) reads ms[i + j + 3n] and md[i - j + 3n]: row i + n of a
    # sliding window over ms[n:], and row n - i of one over md reversed
    sums = sliding_window_view(ms[n:], side)[:side]
    diffs = sliding_window_view(md[::-1][n:], side)[side - 1 :: -1]
    cells = sums * diffs
    # every (i, j) pair hits sum and difference indices of equal parity
    even_s, odd_s = ms[::2].sum(), ms[1::2].sum()
    even_d, odd_d = md[::2].sum(), md[1::2].sum()
    captured = float(cells.sum() / (even_s * even_d + odd_s * odd_d))
    if captured < 0.999:
        raise TruncationError(
            f"detector square captured only {captured:.6g} of the joint mass",
            captured_fraction=captured,
        )
    return n, cells, captured


def _scan_widths(state: GaussianTwoPhotonState, geometry: OpticalGeometry, variable_pair: str):
    """(sum std, difference std, base bin width) of one scan of state."""
    width = detector_to_source_scale(geometry, variable_pair)  # refuses an unknown pair
    marg = exact_marginals(state)
    plus, minus = ("x+", "x-") if variable_pair == "position" else ("p+", "p-")
    return marg[plus].std, marg[minus].std, width


def check_detector_squares(state: GaussianTwoPhotonState, geometry: OpticalGeometry) -> None:
    """Refuse the scan pair if either detector square exceeds MAX_DETECTOR_CELLS.

    Checking both before sampling either means a refused pair neither
    builds nor warns about the scan that would pass.
    """
    for variable_pair in ("position", "momentum"):
        _half_size(*_scan_widths(state, geometry, variable_pair))


def sample_joint_counts(
    state: GaussianTwoPhotonState,
    geometry: OpticalGeometry,
    variable_pair: str,
    total_expected_counts: float,
    seed,
) -> JointCounts:
    """Synthetic coincidence-count table for one scan (position or momentum).

    Cell (i, j) of the detector square gets an independent Poisson count
    whose mean is proportional to r_sum(i+j) * r_diff(i-j), the product of
    the exact coarse-grained sum/difference marginal masses on the
    global-variable grid. Diagonal sums of the table therefore reproduce
    those marginals exactly (up to a parity imbalance that is negligible
    whenever the base bin is finer than the marginal widths, the regime of
    every supported geometry).

    Args:
        state: Gaussian pair state.
        geometry: optics defining the base bin width for this scan.
        variable_pair: "position" or "momentum".
        total_expected_counts: expected total over the whole table.
        seed: a non-negative integer, a numpy.random.SeedSequence, or None
            for fresh entropy.

    Returns:
        JointCounts with a centered (2N+1) x (2N+1) count matrix.
    """
    sum_std, diff_std, width = _scan_widths(state, geometry, variable_pair)
    check_real("total_expected_counts", total_expected_counts, 0, MAX_EXPECTED_COUNTS, closed=False)
    n, cells, _ = _plan_square(sum_std, diff_std, width)
    if width > min(sum_std, diff_std):
        warnings.warn(
            "base bin width exceeds a marginal width; diagonal marginals of "
            "the synthetic table will show parity artifacts",
            stacklevel=2,
        )
    # the Poisson means total * cells / sum(cells), in place: the same two
    # operations, with no array beyond cells and the counts
    total_mass = cells.sum()
    cells *= total_expected_counts
    cells /= total_mass
    counts = _rng_from(seed).poisson(cells)
    counts.setflags(write=False)  # so frozen_counts takes it without a copy
    return JointCounts(
        variable_pair=variable_pair,
        step=geometry.s_x_mm if variable_pair == "position" else geometry.s_p_mm,
        counts=counts,
        geometry=geometry,
        i0=-n,
        j0=-n,
    )
