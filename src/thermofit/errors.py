"""Exception hierarchy.

Everything raised on purpose by this package derives from ThermofitError,
so callers can tell toolkit errors from genuine bugs. Each class's
``exit_code`` is the CLI's exit status for it, inherited unless overridden.
"""

__all__ = [
    "ThermofitError",
    "InvalidParameterError",
    "UnstableDiscretizationError",
    "FilterConfigError",
    "DataLengthError",
    "FlatSeriesError",
    "SingularEquationsError",
    "CsvFormatError",
    "NonMonotoneTimeError",
    "NonUniformSamplingError",
]


class ThermofitError(ValueError):
    """Base class for all toolkit errors."""

    exit_code = 4  # invalid data or configuration


class InvalidParameterError(ThermofitError):
    """A parameter or configuration value violates its invariant."""


class UnstableDiscretizationError(ThermofitError):
    """A fixed-step method would not settle at the sample time asked for;
    ``discretize`` and ``simulate_continuous`` state their limits."""


class FilterConfigError(ThermofitError):
    """A smoothing configuration cannot be realized."""


class DataLengthError(ThermofitError):
    """Input series is too short (or empty) for the requested operation."""


class FlatSeriesError(ThermofitError):
    """Series carries no usable signal: start and end levels coincide, or
    the values are constant."""


class SingularEquationsError(ThermofitError):
    """The damped normal equations are singular or indefinite, or a level, cost
    or fit overflows float64."""

    exit_code = 5  # numerical failure


class CsvFormatError(ThermofitError):
    """Malformed CSV input; carries the offending 1-based line number when
    one can be named."""

    exit_code = 3  # a file the CLI cannot read, as an OSError

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonMonotoneTimeError(CsvFormatError):
    """Time column fails to increase strictly."""


class NonUniformSamplingError(ThermofitError):
    """Sample spacing deviates from the nominal rate beyond tolerance."""

    exit_code = 3
