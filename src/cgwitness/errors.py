"""Exception taxonomy.

Grouped so the CLI can map whole families to exit codes: input/usage
problems exit 2, numerical failures exit 3. The three check_* functions
hold the one rule for what counts as a valid scalar argument.
"""

import math
from numbers import Integral, Real


class CGWitnessError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(CGWitnessError, ValueError):
    """A scalar argument is outside its documented domain."""


class NormalizationError(CGWitnessError, ValueError):
    """A distribution does not sum/integrate to one within tolerance."""


class TruncationError(CGWitnessError):
    """A finite grid captured too little of a distribution's mass."""

    def __init__(self, message: str, captured_fraction: float):
        super().__init__(message)
        self.captured_fraction = captured_fraction


class ParseError(CGWitnessError, ValueError):
    """A data file is malformed; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ConfigurationError(CGWitnessError, ValueError):
    """Inconsistent or unsupported combination of run options."""


class PropagationError(CGWitnessError, ArithmeticError):
    """Monte Carlo error propagation produced too many unusable replicates."""


USAGE_ERRORS = (
    InvalidParameterError,
    NormalizationError,
    TruncationError,
    ParseError,
    ConfigurationError,
)

NUMERICAL_ERRORS = (PropagationError,)


def _is_int(v) -> bool:
    """Python and numpy ints; not bools, whose values would save as True/False."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def check_real(
    name: str, v, low: float = -math.inf, high: float = math.inf, closed: bool = True
) -> float:
    """v as a finite float in [low, high], or (low, high] when closed is False.

    Python and numpy ints and floats pass; bools, strings, complex values
    and ints beyond the float range raise InvalidParameterError.
    """
    try:
        x = float(v) if isinstance(v, Real) and not isinstance(v, bool) else math.nan
    except OverflowError:  # an int too large for a float
        x = math.nan
    if math.isfinite(x) and (low <= x if closed else low < x) and x <= high:
        return x
    if (low, high) == (-math.inf, math.inf):
        want = "finite"
    elif (low, high) == (0, math.inf):
        want = f"a finite {'nonnegative' if closed else 'positive'} number"
    else:
        want = f"a finite number in {'[' if closed else '('}{low:.6g}, {high:.6g}]"
    raise InvalidParameterError(f"{name} must be {want}, got {v!r}")


def check_int(name: str, v, low: int, high: int) -> int:
    """v as an int in [low, high].

    Python and numpy ints pass; bools and non-integers raise InvalidParameterError.
    """
    if not _is_int(v):
        raise InvalidParameterError(f"{name} must be an integer, got {v!r}")
    if not low <= v <= high:
        raise InvalidParameterError(f"{name} must be at most {high} and at least {low}, got {v}")
    return int(v)


def check_seed(v):
    """v unchanged if it is None or an int >= 0; otherwise InvalidParameterError."""
    if v is not None and not (_is_int(v) and v >= 0):
        raise InvalidParameterError(f"seed must be a non-negative integer or None, got {v!r}")
    return v
