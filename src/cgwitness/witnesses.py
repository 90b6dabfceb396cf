"""Entanglement witnesses on global-variable marginals.

Every witness returns (left-hand side minus bound), so a negative value
certifies entanglement regardless of which criterion produced it. The two
continuous criteria take precomputed variances/entropies; the two
coarse-grained criteria take binned marginals at ANY bin widths and stay
nonnegative on separable states by construction (the variance one via the
histogram corrections, the entropic one via the band-limiting bound
constant). The naive discrete criterion applies the continuous variance
bound to uncorrected discrete variances — it is deliberately included as
the cautionary counterexample and is flagged unsafe: with bins a few
standard deviations wide it reports entanglement for product states.

Every witness takes a keyword `pairing`, a key of PAIRINGS ("pm" by
default), as the only name of the diagonal its two marginals come from; a
token outside PAIRINGS raises InvalidPairingError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .binning import DiscreteDistribution
from .bound import entropic_bound_constant
from .errors import InvalidPairingError, InvalidParameterError
from .stats import (
    corrected_entropy,
    corrected_variance,
    discrete_variance,
    histogram_entropy,
    histogram_variance,
)

WITNESS_IDS = (
    "mgvt_continuous",
    "entropic_continuous",
    "coarse_variance",
    "coarse_entropic",
    "naive_discrete",
)

#: Witnesses that can be evaluated from binned count data alone.
DATA_WITNESS_IDS = ("coarse_variance", "coarse_entropic", "naive_discrete")

#: pairing token -> (first variable, second variable)
PAIRINGS = {"pm": ("x+", "p-"), "mp": ("x-", "p+")}

CONTINUOUS_ENTROPIC_BOUND = math.log(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of one witness evaluation.

    value is LHS - bound: negative means entanglement detected. For the
    naive discrete criterion `unsafe` is always True — a negative value
    there may be a false positive.
    """

    witness_id: str
    pairing: str
    value: float
    inputs_summary: dict = field(default_factory=dict)
    bin_widths: tuple | None = None
    unsafe: bool = False

    def __post_init__(self):
        if self.witness_id not in WITNESS_IDS:
            raise InvalidParameterError(f"unknown witness_id {self.witness_id!r}")
        if self.pairing not in PAIRINGS:
            raise InvalidPairingError(f"pairing must be one of {tuple(PAIRINGS)}, got {self.pairing!r}")
        if not math.isfinite(self.value):
            raise InvalidParameterError(f"witness value must be finite, got {self.value}")
        if self.witness_id == "naive_discrete" and not self.unsafe:
            object.__setattr__(self, "unsafe", True)

    @property
    def detected(self) -> bool:
        """Entanglement detected at face value (no uncertainty threshold)."""
        return self.value < 0


def witness_input(witness_id: str, width: float, variance, entropy):
    """What one marginal of bin width `width` contributes to a data witness.

    Takes the discrete variance and entropy of its masses (either may be
    None when the witness does not use it); scalars or (B,) arrays.
    """
    if witness_id == "coarse_variance":
        return corrected_variance(variance, width)
    if witness_id == "coarse_entropic":
        return corrected_entropy(entropy, width)
    return variance


def witness_value(witness_id: str, x_r, x_s, log_bound=None):
    """A witness value from what its two marginals contribute.

    coarse_entropic gives x_r + x_s + log_bound, with log_bound the log of
    bound_constant(width_r * width_s); the variance-product witnesses give
    x_r * x_s - 1. Broadcasts over arrays, so the single-cell witnesses
    below and every cell and replicate of uncertainty.sweep_grid share it.
    """
    if witness_id == "coarse_entropic":
        return x_r + x_s + log_bound
    return x_r * x_s - 1.0


def _check_distributions(r, s) -> None:
    for name, d in (("r", r), ("s", s)):
        if not isinstance(d, DiscreteDistribution):
            raise InvalidParameterError(
                f"{name} must be a DiscreteDistribution, got {type(d).__name__}"
            )


def mgvt_continuous(
    var_r: float,
    var_s: float,
    *,
    pairing: str = "pm",
) -> WitnessReport:
    """Product-of-variances criterion on continuous global variables.

    value = var_r * var_s - 1; separable states satisfy value >= 0.
    """
    for name, v in (("var_r", var_r), ("var_s", var_s)):
        if not (math.isfinite(v) and v > 0):
            raise InvalidParameterError(f"{name} must be finite and positive, got {v}")
    return WitnessReport(
        witness_id="mgvt_continuous",
        pairing=pairing,
        value=witness_value("mgvt_continuous", var_r, var_s),
        inputs_summary={"var_r": var_r, "var_s": var_s},
    )


def entropic_continuous(
    h_r: float,
    h_s: float,
    *,
    pairing: str = "pm",
) -> WitnessReport:
    """Sum-of-entropies criterion on continuous global variables.

    value = h_r + h_s - ln(2*pi*e); separable states satisfy value >= 0.
    Stronger than the variance product: it detects every state the variance
    criterion does, and more.
    """
    for name, v in (("h_r", h_r), ("h_s", h_s)):
        if not math.isfinite(v):
            raise InvalidParameterError(f"{name} must be finite, got {v}")
    return WitnessReport(
        witness_id="entropic_continuous",
        pairing=pairing,
        value=h_r + h_s - CONTINUOUS_ENTROPIC_BOUND,
        inputs_summary={"h_r": h_r, "h_s": h_s},
    )


def coarse_variance_witness(
    r: DiscreteDistribution,
    s: DiscreteDistribution,
    *,
    pairing: str = "pm",
) -> WitnessReport:
    """Variance-product criterion corrected for finite bin widths.

    value = histogram_variance(r) * histogram_variance(s) - 1, where the
    histogram variances carry the width^2/12 term that restores reliability
    at any bin size: separable states give value >= 0 for every width pair.
    """
    _check_distributions(r, s)
    var_r, var_s = histogram_variance(r), histogram_variance(s)
    return WitnessReport(
        witness_id="coarse_variance",
        pairing=pairing,
        value=witness_value("coarse_variance", var_r, var_s),
        inputs_summary={"hist_var_r": var_r, "hist_var_s": var_s},
        bin_widths=(r.grid.width, s.grid.width),
    )


def coarse_entropic_witness(
    r: DiscreteDistribution,
    s: DiscreteDistribution,
    *,
    pairing: str = "pm",
) -> WitnessReport:
    """Entropy-sum criterion with the width-dependent bound constant.

    value = histogram_entropy(r) + histogram_entropy(s)
            + ln(bound_constant(width_r * width_s)).

    The bound constant never vanishes, so the criterion is nontrivial at
    every bin size; as widths shrink it recovers the continuous entropic
    criterion.
    """
    _check_distributions(r, s)
    h_r, h_s = histogram_entropy(r), histogram_entropy(s)
    bound = entropic_bound_constant(r.grid.width * s.grid.width)
    return WitnessReport(
        witness_id="coarse_entropic",
        pairing=pairing,
        value=witness_value("coarse_entropic", h_r, h_s, math.log(bound)),
        inputs_summary={"hist_h_r": h_r, "hist_h_s": h_s, "bound_constant": bound},
        bin_widths=(r.grid.width, s.grid.width),
    )


def naive_discrete_witness(
    r: DiscreteDistribution,
    s: DiscreteDistribution,
    *,
    pairing: str = "pm",
) -> WitnessReport:
    """UNSAFE: continuous variance bound applied to uncorrected discrete variances.

    value = discrete_variance(r) * discrete_variance(s) - 1. Omitting the
    width^2/12 corrections makes this criterion invalid at finite bin size:
    once bins reach a few marginal standard deviations, nearly all mass
    falls in single bins, both discrete variances collapse toward zero and
    the value goes negative on separable states. Kept only to demonstrate
    that failure mode; never use it for detection.
    """
    _check_distributions(r, s)
    var_r, var_s = discrete_variance(r), discrete_variance(s)
    return WitnessReport(
        witness_id="naive_discrete",
        pairing=pairing,
        value=witness_value("naive_discrete", var_r, var_s),
        inputs_summary={"discrete_var_r": var_r, "discrete_var_s": var_s},
        bin_widths=(r.grid.width, s.grid.width),
        unsafe=True,
    )
