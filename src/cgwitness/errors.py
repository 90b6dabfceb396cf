"""Exception taxonomy.

Grouped so the CLI can map whole families to exit codes: input/usage
problems exit 2, numerical failures exit 3.
"""


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
