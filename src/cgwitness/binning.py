"""Uniform one-dimensional coarse graining.

A grid of width eta puts bin j on [(j-1/2)*eta, (j+1/2)*eta] with center
j*eta, so a bin center always sits at the origin. Distributions over such
grids come in two forms: raw integer counts and normalized bin masses,
which also define the piecewise-constant density mass_k / width on bin k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, NormalizationError, TruncationError

MASS_TOLERANCE = 1e-9

#: Largest count, and largest total of a count array: counts are int64.
MAX_COUNT = int(np.iinfo(np.int64).max)


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
        if not (math.isfinite(self.width) and self.width > 0):
            raise InvalidParameterError(f"bin width must be positive, got {self.width}")
        if self.j_min > self.j_max:
            raise InvalidParameterError(
                f"empty index range [{self.j_min}, {self.j_max}]"
            )

    @classmethod
    def spanning(cls, width: float, lo: float, hi: float) -> "BinGrid":
        """Smallest grid of the given width whose bins cover [lo, hi]."""
        if not lo <= hi:
            raise InvalidParameterError(f"invalid span [{lo}, {hi}]")
        return cls(width, math.floor(lo / width + 0.5), math.ceil(hi / width - 0.5))

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
    """A read-only int64 copy of an integer count array of any shape.

    Refuses a non-integer dtype, a negative count and a total that an int64
    sum would wrap. Always a copy, so a caller's array is never frozen or
    aliased.
    """
    c = np.asarray(counts)
    if not np.issubdtype(c.dtype, np.integer):
        raise InvalidParameterError("counts must be integers")
    c = c.astype(np.int64)
    if np.any(c < 0):
        raise InvalidParameterError("counts must be nonnegative")
    # the float sum flags candidates; the exact Python sum decides
    if c.sum(dtype=np.float64) >= 2.0**62 and sum(c.ravel().tolist()) > MAX_COUNT:
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


def coarse_grain(
    bin_mass_oracle: BinMassOracle,
    grid: BinGrid,
    *,
    min_captured: float = 0.999,
) -> DiscreteDistribution:
    """Integrate a density over every bin of a grid.

    Args:
        bin_mass_oracle: callable (lo, hi) -> exact probability mass of the
            underlying normalized density on each [lo, hi]. Called once,
            with one array of lower and one of upper edges, and must
            return one mass per bin; another shape raises
            InvalidParameterError.
        grid: target grid.
        min_captured: total captured mass below this raises TruncationError.

    Returns:
        DiscreteDistribution with renormalized masses and the captured
        fraction recorded.
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
    if captured < min_captured:
        raise TruncationError(
            f"grid captured only {captured:.6g} of the distribution "
            f"(threshold {min_captured})",
            captured_fraction=captured,
        )
    return DiscreteDistribution(grid, masses / captured, captured_fraction=captured)


def rebin(h: CountHistogram, factor: int) -> CountHistogram:
    """Merge runs of `factor` adjacent bins, keeping a bin centered at 0.

    Only odd factors keep the central bin centered on the origin, so even
    factors are rejected. Input bins are conceptually zero-padded (never
    trimmed) to complete the outermost groups; totals are conserved exactly.

    Args:
        h: CountHistogram.
        factor: odd positive merge factor.

    Returns:
        A CountHistogram on a grid of width factor * width.
    """
    if not isinstance(h, CountHistogram):
        raise InvalidParameterError(f"rebin needs a CountHistogram, got {type(h).__name__}")
    if not isinstance(factor, (int, np.integer)) or factor < 1 or factor % 2 == 0:
        raise InvalidParameterError(
            f"rebin factor must be an odd positive integer, got {factor!r}"
        )
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
