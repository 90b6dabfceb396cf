"""Band-limiting bound constant for the coarse-grained entropic witness.

The bound constant of the coarse-grained entropic criterion is

    bound_constant(g) = min( 1/(2*pi*e), lambda0(g/8)/g )

where g is the dimensionless product of the position and momentum bin
widths and lambda0(c) is the largest eigenvalue of the concentration
operator, the sinc kernel sin(c(x-y))/(pi(x-y)) on [-1, 1] (Slepian &
Pollak 1961). lambda0 is the top eigenvalue of one Nystrom discretisation,
sqrt(w_i w_j) K(x_i, x_j) on 32 Gauss-Legendre nodes built once at import,
clipped to 1. The kernel is analytic, so the error falls exponentially
with the node count (Bornemann 2010): 32 nodes agree with 96 to ~1e-15 up
to c = 14 and with 128 to ~1e-14 beyond. Written as (c/pi) sinc(c(x-y)/pi),
the matrix is scale-free and exact to rounding as c -> 0. Where lambda0
rounds to 1 the clip is exact: from c = pi / max(w) ~ 32.5 the Rayleigh
quotient on one node alone already gives a Nystrom value of at least 1.

The constant is exactly 1/(2*pi*e) below the branch switch g* ~ 14.3332.
Below FLAT_BRANCH_END, just short of g*, that flat value is returned
without solving the eigenproblem (the min would discard the curved branch
anyway); most width products of a sweep lie there. The tests check lambda0
against scipy's independent prolate routines (Zhang & Jin's specfun).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check_real

#: Small-width limit of the bound constant, 1/(2*pi*e); minus its log is
#: the continuous entropic bound ln(2*pi*e).
CONTINUOUS_BOUND_CONSTANT = 1.0 / (2.0 * math.pi * math.e)

#: Width products below this lie on the flat branch: a point just below the
#: branch switch g* ~ 14.3332 (the root of lambda0(g/8)/g = 1/(2*pi*e)),
#: where the curved branch still exceeds 1/(2*pi*e) by ~7e-6.
FLAT_BRANCH_END = 14.33


def _gauss_legendre(n: int):
    """Gauss-Legendre nodes (Golub-Welsch: Jacobi-matrix eigenvalues) and weights.

    Weights are the Christoffel numbers 2 / sum_{k<n} (2k+1) P_k(x)^2: eigenvectors
    would need eigh, ~16 ms on a 2-CPU VM with threaded OpenBLAS, eigvalsh 0.04 ms.
    """
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))
    p0, p1, total = np.ones(n), x, 1.0 + 3.0 * x * x
    for j in range(2, n):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        total += (2 * j + 1) * p1 * p1
    return x, 2.0 / total


_NODES, _WEIGHTS = _gauss_legendre(32)
_SEPARATION = (_NODES[:, None] - _NODES[None, :]) / math.pi
_ROOT_WEIGHTS = np.sqrt(np.outer(_WEIGHTS, _WEIGHTS))


def _scaled_eigenvalue(c: float) -> float:
    """(pi/c) * lambda0(c): the top eigenvalue of the kernel sinc(c(x-y)/pi)."""
    return float(np.linalg.eigvalsh(_ROOT_WEIGHTS * np.sinc(c * _SEPARATION))[-1])


def concentration_eigenvalue(c: float) -> float:
    """Largest eigenvalue of the concentration operator, in (0, 1], nondecreasing in c."""
    c = check_real("parameter", c, 0, closed=False)
    return min(1.0, c / math.pi * _scaled_eigenvalue(c))


def entropic_bound_constant(width_product: float) -> float:
    """Bound constant min(1/(2*pi*e), lambda0(g/8)/g) of the coarse-grained entropic witness.

    g = width_product >= 0 is the dimensionless product of the position and
    momentum bin widths. Below FLAT_BRANCH_END the flat branch is returned
    unsolved; at 0 it is the continuous bound.
    """
    g = check_real("width product", width_product, 0)
    if g < FLAT_BRANCH_END:
        return CONTINUOUS_BOUND_CONSTANT
    # lambda0(c)/g with lambda0 = (c/pi) * scaled and g = 8c: the c cancels,
    # and lambda0 <= 1 caps it at 1/g
    curved = _scaled_eigenvalue(g / 8.0) / (8.0 * math.pi)
    return min(CONTINUOUS_BOUND_CONSTANT, curved, 1.0 / g)
