"""Band-limiting bound constant for the coarse-grained entropic witness.

The bound constant of the coarse-grained entropic criterion is

    bound_constant(g) = min( 1/(2*pi*e), (1/(4*pi)) * r(g/8)^2 )

where g is the dimensionless product of the position and momentum bin
widths and r(c) is the zeroth prolate spheroidal radial function of the
first kind at radial coordinate 1 (Flammer normalization, in which
r(c) -> 1 as c -> 0). Equivalently (1/(4*pi)) r(c)^2 * g = lambda0(c),
the lowest eigenvalue of the sinc concentration kernel, so the second
branch equals lambda0(g/8)/g. This file provides:

  * the characteristic value and Legendre expansion of the ground
    angular eigenfunction from the symmetrized tridiagonal eigenproblem,
    truncated and solved densely by numpy;
  * the radial function of the first kind via the spherical Bessel
    series (Slepian & Pollak 1961), valid up to c = 14, with the Bessel
    functions from Miller's backward recurrence;
  * the bound constant itself, with an asymptotic tail beyond c = 14
    where the Bessel series loses accuracy to cancellation.

The constant is exactly flat, 1/(2*pi*e), below the branch switch
g* ~ 14.3332, where the curved branch crosses it. Below FLAT_BRANCH_END,
a point just short of g*, the flat value is returned without solving the
eigenproblem: the min would discard the curved branch there anyway, so the
result is the same to the last bit. Most width products of a sweep lie on
this segment.

Only numpy is needed. The test suite checks the series against scipy's
independent prolate routines (Zhang & Jin's specfun) on the whole series
domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidParameterError

#: Small-width limit of the bound constant, 1/(2*pi*e); minus its log is
#: the continuous entropic bound ln(2*pi*e).
CONTINUOUS_BOUND_CONSTANT = 1.0 / (2.0 * math.pi * math.e)

#: Above this c the series route is replaced by the asymptotic tail of the
#: concentration eigenvalue (series cancellation error crosses ~1e-7 there,
#: while the tail is accurate to < 1e-12 and improving).
SERIES_TAIL_SWITCH = 14.0

#: Width products below this lie on the flat branch: a point just below the
#: branch switch g* ~ 14.3332 (the root of lambda0(g/8)/g = 1/(2*pi*e)),
#: where the curved branch still exceeds 1/(2*pi*e) by ~7e-6.
FLAT_BRANCH_END = 14.33

@dataclass(frozen=True)
class CharacteristicSolution:
    """Ground solution of the angular spheroidal eigenproblem (m = 0, even).

    Attributes:
        c: bandwidth parameter (>= 0).
        chi: lowest characteristic value.
        coefficients: even-degree Legendre coefficients d_{2k} of the
            angular eigenfunction, normalized so the function is 1 at the
            equator (sum_k d_{2k} P_{2k}(0) = 1).
    """

    c: float
    chi: float
    coefficients: np.ndarray


def _tridiagonal(c: float, order: int):
    """Diagonal and off-diagonal of the symmetrized even-degree recurrence."""
    ell = 2.0 * np.arange(order)
    c2 = c * c
    diag = ell * (ell + 1.0) + c2 * (2.0 * ell * (ell + 1.0) - 1.0) / (
        (2.0 * ell - 1.0) * (2.0 * ell + 3.0)
    )
    lo = ell[:-1]
    off = (
        c2
        * (lo + 2.0)
        * (lo + 1.0)
        / ((2.0 * lo + 3.0) * np.sqrt((2.0 * lo + 5.0) * (2.0 * lo + 1.0)))
    )
    return diag, off


def _equator_values(order: int) -> np.ndarray:
    """P_{2k}(0) for k = 0..order-1."""
    p = np.empty(order)
    p[0] = 1.0
    for k in range(1, order):
        p[k] = -p[k - 1] * (2 * k - 1) / (2 * k)
    return p


def _solve_truncated(c: float, order: int):
    diag, off = _tridiagonal(c, order)
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    chi = float(vals[0])
    v = vecs[:, 0]
    # undo the symmetrizing similarity transform to recover the d_{2k}
    ell = 2.0 * np.arange(order - 1)
    alpha = c * c * (ell + 2.0) * (ell + 1.0) / ((2.0 * ell + 3.0) * (2.0 * ell + 5.0))
    ratios = off / alpha
    w = np.concatenate(([1.0], np.cumprod(ratios)))
    d = w * v
    d = d / np.dot(d, _equator_values(order))
    return chi, d


def characteristic_solution(c: float) -> CharacteristicSolution:
    """Lowest characteristic value and expansion coefficients at parameter c.

    Raises:
        InvalidParameterError: c outside [0, SERIES_TAIL_SWITCH], the only
            domain where the series route uses the solution (at c = 50 the
            series would even have the wrong sign).
        ConvergenceError: the last retained coefficients are not below
            1e-14 of the largest.
    """
    c = float(c)
    if not 0 <= c <= SERIES_TAIL_SWITCH:
        raise InvalidParameterError(f"parameter must lie in [0, {SERIES_TAIL_SWITCH}], got {c}")
    if c == 0.0:
        return CharacteristicSolution(0.0, 0.0, np.array([1.0]))
    if c < 1e-150:
        # below this the tridiagonal entries (all ~ c^2) would leave the
        # normal floating-point range; the c -> 0 solution is exact to eps
        return CharacteristicSolution(c, c * c / 3.0, np.array([1.0]))
    # 64 up to c = 6, 96 at c = 14: over three times the order where the
    # last coefficients fall below 1e-14 of the largest (6 at c = 0.01, 20
    # at c = 14), so one solve suffices
    order = 2 * max(32, int(2.0 * c) + 20)
    chi, d = _solve_truncated(c, order)
    if np.max(np.abs(d[-3:])) > 1e-14 * np.max(np.abs(d)):
        raise ConvergenceError(f"expansion not converged at truncation order {order} (c={c})")
    return CharacteristicSolution(c, chi, d)


def _even_spherical_jn(count: int, x: float) -> np.ndarray:
    """Spherical Bessel functions j_0(x), j_2(x), ..., j_{2 count - 2}(x), x > 0."""
    top = 2 * count - 1
    if x < 1e-3:
        # x^n/(2n+1)!! times three terms of the ascending series (relative
        # error < x^6/48); exact down to subnormal x, where j_n -> 0 for n > 0
        n = np.arange(top + 1.0)
        lead = np.cumprod(np.concatenate(([1.0], x / (2.0 * n[1:] + 1.0))))
        half = 0.5 * x * x
        return (lead * (1.0 - half / (2.0 * n + 3.0) * (1.0 - half / (4.0 * n + 10.0))))[::2]
    # Miller: j_{n-1} = (2n+1)/x j_n - j_{n+1} downward from j_{start+1} = 0,
    # stable for the minimal solution j_n; rescale to stay in range
    start = top + 20 + int(x)
    j = [0.0, 1.0]
    for n in range(start, 0, -1):
        j.append((2 * n + 1) / x * j[-1] - j[-2])
        if abs(j[-1]) > 1e250:
            j = [v * 1e-250 for v in j]
    j = np.array(j[::-1])
    # normalize by the larger of j_0, j_1, which is never close to a zero
    j0, j1 = math.sin(x) / x, (math.sin(x) / x - math.cos(x)) / x
    return j[: 2 * count : 2] * (j0 / j[0] if abs(j0) >= abs(j1) else j1 / j[1])


def radial_first_kind(sol: CharacteristicSolution) -> float:
    """Radial function of the first kind at radial coordinate 1.

    Value = sum_k (-1)^k d_{2k} j_{2k}(c) / sum_k d_{2k} (the spherical
    Bessel series); the ratio makes the result independent of the
    coefficient normalization.
    """
    d = sol.coefficients
    if sol.c == 0.0:
        return 1.0
    signs = (-1.0) ** np.arange(d.size)
    return float(np.sum(signs * d * _even_spherical_jn(d.size, sol.c)) / np.sum(d))


def concentration_eigenvalue(c: float) -> float:
    """Lowest eigenvalue of the sinc band-limiting kernel, in (0, 1).

    Series route (2c/pi) * r(c)^2 up to c = 14; beyond that the asymptotic
    tail 1 - 4*sqrt(pi*c)*exp(-2c)*(1 - 0.455/c), clipped to [0, 1]. The
    eigenvalue is strictly increasing in c.
    """
    c = float(c)
    if not math.isfinite(c) or c <= 0:
        raise InvalidParameterError(f"parameter must be finite and positive, got {c}")
    if c <= SERIES_TAIL_SWITCH:
        r = radial_first_kind(characteristic_solution(c))
        return min(1.0, (2.0 * c / math.pi) * r * r)
    tail = 4.0 * math.sqrt(math.pi * c) * math.exp(-2.0 * c) * (1.0 - 0.455 / c)
    return max(0.0, min(1.0, 1.0 - tail))


def entropic_bound_constant(width_product: float) -> float:
    """Bound constant of the coarse-grained entropic witness (direct route).

    Args:
        width_product: dimensionless product of the position and momentum
            bin widths (>= 0).

    Returns:
        min(1/(2*pi*e), lambda0(width_product/8)/width_product). Below
        FLAT_BRANCH_END this is the flat branch 1/(2*pi*e), returned
        without evaluating the curved one; at 0 it recovers the
        continuous bound.
    """
    g = float(width_product)
    if not math.isfinite(g) or g < 0:
        raise InvalidParameterError(f"width product must be finite and nonnegative, got {g}")
    if g < FLAT_BRANCH_END:
        return CONTINUOUS_BOUND_CONSTANT
    c = g / 8.0
    if c <= SERIES_TAIL_SWITCH:
        # lambda0(c)/g with lambda0 = (2c/pi) r^2 and g = 8c: the c cancels,
        # so evaluate r^2/(4 pi) directly
        r = radial_first_kind(characteristic_solution(c))
        curved = r * r / (4.0 * math.pi)
    else:
        curved = concentration_eigenvalue(c) / g
    return min(CONTINUOUS_BOUND_CONSTANT, curved)

