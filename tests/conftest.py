import tracemalloc
from functools import lru_cache

import pytest
from scipy.optimize import brentq
from scipy.special import pro_rad1

from cgwitness import GaussianTwoPhotonState, OpticalGeometry, global_marginal, rebin
from cgwitness.binning import BinGrid, DiscreteDistribution
from cgwitness.bound import CONTINUOUS_BOUND_CONSTANT, concentration_eigenvalue


@pytest.fixture
def geometry():
    return OpticalGeometry()


@pytest.fixture
def entangled_state():
    return GaussianTwoPhotonState(10.0, 2.5)


@pytest.fixture
def separable_state():
    return GaussianTwoPhotonState(1.0, 1.0)


def random_discrete(rng, *, max_bins: int = 40) -> DiscreteDistribution:
    """A random normalized discrete distribution on a random grid."""
    n = int(rng.integers(3, max_bins + 1))
    width = float(10.0 ** rng.uniform(-2.0, 0.5))
    j_min = int(rng.integers(-25, 5))
    masses = rng.gamma(0.7, size=n) + 1e-12
    masses /= masses.sum()
    return DiscreteDistribution(BinGrid(width, j_min, j_min + n - 1), masses)


def traced_peak(fn):
    """fn()'s result and the tracemalloc peak, in bytes, of the call."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def rebinned_marginals(position, momentum, pairing, n, m):
    """Rebinned (position, momentum) marginal counts of one sweep_grid cell.

    "pm" pairs the position sum with the momentum difference, "mp" the
    position difference with the momentum sum.
    """
    sign_r, sign_s = {"pm": ("+", "-"), "mp": ("-", "+")}[pairing]
    return rebin(global_marginal(position, sign_r), n), rebin(global_marginal(momentum, sign_s), m)


def radial_first_kind_specfun(c: float) -> float:
    """Reference R_00(c, 1) from scipy's prolate routines, for c <= 14.

    scipy.special.pro_rad1 wraps Zhang & Jin's specfun (*Computation of
    Special Functions*, 1996), code independent of the Nystrom eigensolve in
    cgwitness.bound; lambda0(c) = (2c/pi) R_00(c, 1)^2. It returns NaN at
    xi = 1 exactly, so evaluate
    just above and step back along the returned derivative. Reliable for
    c <= 14; above c ~ 20 it goes wrong (the wrong sign at c = 50).
    """
    h = 1e-9
    value, slope = pro_rad1(0, 0, c, 1.0 + h)
    return float(value - h * slope)


@lru_cache(maxsize=1)
def branch_switch_gamma() -> float:
    """Width product where the bound constant leaves the flat branch.

    Unique root of lambda0(g/8)/g = 1/(2*pi*e); below it the bound constant
    is exactly 1/(2*pi*e), above it strictly smaller.
    """
    return float(
        brentq(
            lambda g: concentration_eigenvalue(g / 8.0) / g - CONTINUOUS_BOUND_CONSTANT,
            10.0,
            20.0,
            xtol=1e-10,
        )
    )
