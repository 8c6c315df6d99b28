"""Exception hierarchy shared across the package.

Input/data problems derive from :class:`DataError`; numerical failures
derive from :class:`NumericalError`; a worker process that dies is a
:class:`PoolError`. The CLI maps these to exit codes 2, 3 and 4
respectively.
"""

from __future__ import annotations


class BomiError(Exception):
    """Base class for all package-specific errors."""


class DataError(BomiError):
    """Invalid input, file, or configuration."""


class NumericalError(BomiError):
    """A numerical procedure failed (ill-conditioning, singularity)."""


class PoolError(BomiError):
    """A worker process of a pool died before its job finished."""


class ParseError(DataError):
    """A recording file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaError(DataError):
    """File content violates the recording schema (unknown label, bad field)."""


class AlignmentError(DataError):
    """Per-sensor streams are not tick-aligned."""


class ValidationError(DataError):
    """A recording violates a structural invariant."""


class SplitSpecError(DataError):
    """Train/test sequence indices overlap or are out of range."""


class UndefinedAttitudeError(DataError):
    """Accelerometer vector is zero; pitch/roll undefined."""


class UndefinedHeadingError(DataError):
    """Magnetometer vector is zero; yaw undefined."""


class CalibrationError(DataError):
    """Not enough frames to estimate the neutral offset."""


class LayoutError(DataError):
    """Sensor layout mismatch between data, window, and model."""


class ShapeError(DataError):
    """A window or array has the wrong shape for the requested feature."""


class CoverageError(DataError):
    """A class required for training has no usable windows."""


class DegenerateRangeError(DataError):
    """A learned amplitude range has zero width."""


class TrainingDataError(DataError):
    """Training set too small or malformed for fitting."""


class DimensionMismatchError(DataError):
    """Feature vector dimension does not match the model."""


class MappingError(DataError):
    """A predicted class has no device-command mapping."""


class ModelFormatError(DataError):
    """Model file is corrupt or has an unsupported version."""


class SingularCovarianceError(NumericalError):
    """Pooled covariance is singular; suggest shrinkage > 0."""
