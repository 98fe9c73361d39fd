"""Exception hierarchy.

Everything raised on purpose by this package derives from ThermofitError,
so callers (and the CLI exit-code mapping) can tell toolkit errors from
genuine bugs.
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


class InvalidParameterError(ThermofitError):
    """A parameter or configuration value violates its invariant."""


class UnstableDiscretizationError(ThermofitError):
    """Forward-difference discretization would place the pole outside the
    unit circle (sample_time >= 2 * tau)."""


class FilterConfigError(ThermofitError):
    """A smoothing configuration cannot be realized."""


class DataLengthError(ThermofitError):
    """Input series is too short (or empty) for the requested operation."""


class FlatSeriesError(ThermofitError):
    """Series carries no usable signal: start and end levels coincide, or
    the values are constant."""


class SingularEquationsError(ThermofitError):
    """The damped normal equations are singular or indefinite."""


class CsvFormatError(ThermofitError):
    """Malformed CSV input; carries the offending 1-based line number when
    one can be named."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonMonotoneTimeError(CsvFormatError):
    """Time column fails to increase strictly."""


class NonUniformSamplingError(ThermofitError):
    """Sample spacing deviates from the nominal rate beyond tolerance."""
