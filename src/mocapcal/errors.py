"""Exception hierarchy shared across the calibration toolkit.

Every error raised on purpose by this package derives from
:class:`CalibrationError`, so callers can catch one base class at the
boundary (the CLI does exactly that to map failures to exit codes).
"""


class CalibrationError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateConfigurationError(CalibrationError):
    """A minimal sample is collinear or coincident and admits no pose."""


class NoValidSampleError(CalibrationError):
    """No (camera, frame) pair offers three valid joints to sample."""


class InsufficientConsensusError(CalibrationError):
    """The best hypothesis explains too small a fraction of the data."""


class EmptyActiveSetError(CalibrationError):
    """No valid, positive-depth correspondence is left to evaluate."""


class InfeasibleRigError(CalibrationError):
    """A synthetic rig would place cameras inside the motion volume."""


class ParseError(CalibrationError):
    """A session or report document is malformed."""


class DimensionMismatchError(ParseError):
    """Declared and actual array shapes in a document disagree."""


class UnsupportedVersionError(ParseError):
    """A document declares a format version this package cannot read."""


class NonFiniteValueError(ParseError):
    """A numeric field in a document is NaN or infinite."""
