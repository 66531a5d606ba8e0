"""Exception types shared across the package.

Grouped by the CLI exit code they map to: configuration problems (exit 2),
solver problems (exit 3), and data problems (exit 4).
"""

from __future__ import annotations


class FcrSchedError(Exception):
    """Base class for all package errors."""


# -- configuration errors (exit code 2) --------------------------------------

class ConfigError(FcrSchedError):
    """Invalid or inconsistent run configuration."""


class InvalidParameter(ConfigError):
    """A parameter value is outside its admissible range."""


class UnsupportedFormat(ConfigError):
    """Unknown model export format."""


# -- solver errors (exit code 3) ----------------------------------------------

class SolverError(FcrSchedError):
    """Base class for solver backend failures."""


class BackendError(SolverError):
    """External solver process failed; carries a stderr excerpt."""


class ParseError(SolverError):
    """A model or solution file could not be parsed."""


class TooLarge(SolverError):
    """Model exceeds the micro-solver size caps."""


class SolverFailure(SolverError):
    """A day's solve did not reach optimality inside an orchestrated run."""

    def __init__(self, day: int, message: str = ""):
        self.day = day
        super().__init__(f"day {day}: {message}" if message else f"day {day}")


class FitToleranceExceeded(SolverError):
    """A linearization missed its fit tolerance."""


# -- data errors (exit code 4) ------------------------------------------------

class DataError(FcrSchedError):
    """Base class for ingest/data problems."""


class MissingFile(DataError):
    """Input file does not exist."""


class SchemaMismatch(DataError):
    """CSV header or cell contents violate the documented schema."""


class GapTooLong(DataError):
    """A gap in the frequency trace exceeds the hold-fill maximum."""

    def __init__(self, timestamp: str, message: str = ""):
        self.timestamp = timestamp
        super().__init__(message or f"gap too long at {timestamp}")


class OutOfRangeSample(DataError):
    """A frequency sample falls outside the plausibility window."""

    def __init__(self, timestamp: str, value: float):
        self.timestamp = timestamp
        self.value = value
        super().__init__(f"sample {value} Hz at {timestamp} outside [45, 55] Hz")


class MissingHour(DataError):
    """The price CSV does not cover a required hour."""

    def __init__(self, hour: int):
        self.hour = hour
        super().__init__(f"missing price row for hour {hour}")


class AlignmentError(DataError):
    """Series length does not match the time grid."""


# -- model construction errors (InfeasibleBounds exit 2, RegistryMiss exit 3) --

class InfeasibleBounds(FcrSchedError):
    """Variable bounds or initial state make the model trivially infeasible."""


class RegistryMiss(FcrSchedError):
    """A semantic variable name is absent from the model registry."""
