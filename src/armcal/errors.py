"""Exception hierarchy shared across the calibration pipeline.

Every error that the command line interface can surface carries a short
machine-parsable ``code`` so that scripted callers never have to pattern-match
human-readable prose.
"""

from __future__ import annotations


class CalibrationError(Exception):
    """Base class for pipeline errors with a stable machine-readable code."""

    code = "E_CALIBRATION"


class ModelFormatError(CalibrationError):
    """Raised when a manipulator model file cannot be parsed."""

    code = "E_MODEL_FORMAT"


class MeasurementFormatError(CalibrationError):
    """Raised when a measurement file cannot be parsed."""

    code = "E_MEASUREMENT_FORMAT"


class NoiseFormatError(CalibrationError):
    """Raised when a noise table cannot be parsed."""

    code = "E_NOISE_FORMAT"


class MissingNoiseError(CalibrationError):
    """Raised when a stacked row has no matching noise-model entry."""

    code = "E_NOISE_MISSING"


class ReplicateCountError(CalibrationError):
    """Raised when a dispersion estimate is requested from fewer than two replicates."""

    code = "E_REPLICATES"


class BucketMatchError(CalibrationError):
    """Raised when a configuration's bucketed joint angle matches no declared level."""

    code = "E_BUCKET_MATCH"


class RankDeficientError(CalibrationError):
    """Raised when the (weighted) information matrix is numerically rank deficient.

    ``directions`` holds human-readable descriptions of the unidentifiable
    parameter combinations (right singular vectors of the collapsed space).
    """

    code = "E_RANK_DEFICIENT"

    def __init__(self, message: str, directions: tuple[str, ...] = ()):
        super().__init__(message)
        self.directions = directions
