"""Uniform one-dimensional coarse graining.

A grid of width eta puts bin j on [(j-1/2)*eta, (j+1/2)*eta] with center
j*eta, so a bin center always sits at the origin. Distributions over such
grids come in two forms: raw integer counts and normalized bin masses,
which also define the piecewise-constant density mass_k / width on bin k.
BinGrid owns the extent of every array built over bins: at most MAX_BINS
bins, with indices within +/-MAX_INDEX.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    InvalidParameterError,
    NormalizationError,
    TruncationError,
    check_int,
    check_real,
)

MASS_TOLERANCE = 1e-9

#: Largest count, and largest total of a count array: counts are int64.
MAX_COUNT = int(np.iinfo(np.int64).max)

#: Largest rebin factor: bin indices are int64.
MAX_FACTOR = int(np.iinfo(np.int64).max)

#: Largest |bin index|: (j + half) in rebin then fits int64 at any factor.
MAX_INDEX = 2**62

#: Most bins in one grid: ~8 MB per float64 array over its bins.
MAX_BINS = 1_000_000


@dataclass(frozen=True)
class BinGrid:
    """Uniform bin lattice with centers z_j = j * width.

    Args:
        width: bin width, strictly positive.
        j_min: lowest bin index (inclusive).
        j_max: highest bin index (inclusive).
    """

    width: float
    j_min: int
    j_max: int

    def __post_init__(self):
        check_real("bin width", self.width, 0, closed=False)
        j_min = check_int("j_min", self.j_min, -MAX_INDEX, MAX_INDEX)
        j_max = check_int("j_max", self.j_max, -MAX_INDEX, MAX_INDEX)
        if not 0 <= j_max - j_min < MAX_BINS:
            raise InvalidParameterError(
                f"index range [{j_min}, {j_max}] is empty or holds too many bins (limit {MAX_BINS})"
            )

    @classmethod
    def spanning(cls, width: float, lo: float, hi: float) -> "BinGrid":
        """Smallest grid of the given width whose bins cover [lo, hi]."""
        width = check_real("bin width", width, 0, closed=False)
        if not lo <= hi:
            raise InvalidParameterError(f"invalid span [{lo}, {hi}]")
        first, last = lo / width + 0.5, hi / width - 0.5
        # at least last - first + 1 bins; NaN for an infinite span
        if not last - first + 1 <= MAX_BINS:
            raise InvalidParameterError(
                f"span [{lo}, {hi}] holds too many bins of width {width} (limit {MAX_BINS})"
            )
        return cls(width, math.floor(first), math.ceil(last))

    @property
    def n_bins(self) -> int:
        return self.j_max - self.j_min + 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    @property
    def centers(self) -> np.ndarray:
        return self.indices * self.width


def frozen_counts(counts) -> np.ndarray:
    """A read-only int64 array of an integer count array of any shape.

    Refuses a non-integer dtype, a negative count and a total that an int64
    sum would wrap, by reductions that make no count-sized temporary. A
    read-only int64 array that owns its memory is taken as it is; every
    other array, writable arrays and views included, is copied, so a
    caller's writable array is never frozen or aliased.
    """
    c = np.asarray(counts)
    if not np.issubdtype(c.dtype, np.integer):
        raise InvalidParameterError("counts must be integers")
    if c.dtype != np.int64 or c.flags.writeable or not c.flags.owndata:
        c = c.astype(np.int64)
    if c.size and c.min() < 0:
        raise InvalidParameterError("counts must be nonnegative")
    # the float sum flags candidates; the exact sum of Python ints decides
    if c.sum(dtype=np.float64) >= 2.0**62 and c.sum(dtype=object) > MAX_COUNT:
        raise InvalidParameterError(f"counts total above {MAX_COUNT}")
    c.setflags(write=False)
    return c


def _readonly(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Normalized bin masses over a grid.

    Attributes:
        grid: the underlying BinGrid.
        masses: one nonnegative mass per bin index, summing to 1.
        captured_fraction: fraction of the source mass the grid captured
            before renormalization (1.0 when constructed directly).
    """

    grid: BinGrid
    masses: np.ndarray
    captured_fraction: float = 1.0

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=np.float64)
        if m.shape != (self.grid.n_bins,):
            raise InvalidParameterError(
                f"expected {self.grid.n_bins} masses, got shape {m.shape}"
            )
        if np.any(m < 0) or not np.all(np.isfinite(m)):
            raise InvalidParameterError("masses must be finite and nonnegative")
        total = float(m.sum())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise NormalizationError(f"masses sum to {total!r}, expected 1")
        object.__setattr__(self, "masses", _readonly(m))

    @property
    def densities(self) -> np.ndarray:
        """Value mass_k / width of the piecewise-constant density on bin k."""
        return self.masses / self.grid.width


@dataclass(frozen=True, eq=False)
class CountHistogram:
    """Raw integer counts over a grid (the pre-normalization stage)."""

    grid: BinGrid
    counts: np.ndarray

    def __post_init__(self):
        c = frozen_counts(self.counts)
        if c.shape != (self.grid.n_bins,):
            raise InvalidParameterError(
                f"expected {self.grid.n_bins} counts, got shape {c.shape}"
            )
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def normalize(self) -> DiscreteDistribution:
        total = self.total
        if total <= 0:
            raise NormalizationError("cannot normalize a histogram with zero counts")
        return DiscreteDistribution(self.grid, self.counts / total)


BinMassOracle = Callable[[np.ndarray, np.ndarray], np.ndarray]


def coarse_grain(bin_mass_oracle: BinMassOracle, grid: BinGrid) -> DiscreteDistribution:
    """Integrate a density over every bin of a grid.

    Args:
        bin_mass_oracle: callable (lo, hi) -> exact probability mass of the
            underlying normalized density on each [lo, hi]. Called once,
            with one array of lower and one of upper edges, and must
            return one mass per bin; another shape raises
            InvalidParameterError.
        grid: target grid.

    Returns:
        DiscreteDistribution with renormalized masses and the captured
        fraction recorded; a captured mass below 0.999 raises
        TruncationError.
    """
    j = grid.indices
    lo = (j - 0.5) * grid.width
    hi = (j + 0.5) * grid.width
    masses = np.asarray(bin_mass_oracle(lo, hi), dtype=np.float64)
    if masses.shape != j.shape:
        raise InvalidParameterError(
            f"bin_mass_oracle returned shape {masses.shape} for {grid.n_bins} bins"
        )
    # tiny negatives from cancellation in tail CDF differences
    masses = np.clip(masses, 0.0, None)
    captured = float(masses.sum())
    if captured < 0.999:
        raise TruncationError(
            f"grid captured only {captured:.6g} of the distribution (threshold 0.999)",
            captured_fraction=captured,
        )
    return DiscreteDistribution(grid, masses / captured, captured_fraction=captured)


def check_factor(name: str, v) -> int:
    """v as an odd int in [1, MAX_FACTOR]: only odd factors keep a bin centered at 0."""
    factor = check_int(name, v, 1, MAX_FACTOR)
    if factor % 2 == 0:
        raise InvalidParameterError(f"{name} must be odd, got {factor}")
    return factor


def rebin(h: CountHistogram, factor: int) -> CountHistogram:
    """Merge runs of `factor` adjacent bins, keeping a bin centered at 0.

    Input bins are conceptually zero-padded (never trimmed) to complete the
    outermost groups; totals are conserved exactly.

    Args:
        h: CountHistogram.
        factor: merge factor, refused unless check_factor passes it.

    Returns:
        A CountHistogram on a grid of width factor * width.
    """
    if not isinstance(h, CountHistogram):
        raise InvalidParameterError(f"rebin needs a CountHistogram, got {type(h).__name__}")
    factor = check_factor("rebin factor", factor)
    if factor == 1:
        return h
    half = (factor - 1) // 2
    grid = h.grid
    j = grid.indices
    groups = (j + half) // factor  # group J collects j in [J*factor - half, J*factor + half]
    g_min, g_max = int(groups[0]), int(groups[-1])
    out = np.zeros(g_max - g_min + 1, dtype=h.counts.dtype)
    np.add.at(out, groups - g_min, h.counts)
    return CountHistogram(BinGrid(grid.width * factor, g_min, g_max), out)
