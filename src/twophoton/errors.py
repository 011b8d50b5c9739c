"""Exception hierarchy shared across the package."""


class TwoPhotonError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(TwoPhotonError, ValueError):
    """A physical or numerical parameter is outside its valid range."""


class OutOfRangeError(TwoPhotonError, ValueError):
    """A requested position lies outside the grid it must be sampled on."""


class CompositionError(TwoPhotonError, ValueError):
    """Two kernels or patterns do not share the grid they must share."""


class DegenerateSourceError(TwoPhotonError, ValueError):
    """The pump field carries no energy."""


class NormalizationError(TwoPhotonError, ZeroDivisionError):
    """A normalization denominator vanished; the message names which one."""


class UnderDeterminedFitError(TwoPhotonError, ValueError):
    """Not enough independent samples to fit the requested model."""


class EmptyEstimateError(TwoPhotonError, ValueError):
    """No accepted coincidence pairs; nothing to estimate."""


class FrameFormatError(TwoPhotonError, ValueError):
    """A frame file or its ``frames.json`` is malformed; may carry the byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class AliasingWarning(UserWarning):
    """A pattern is evaluated with fewer than 8 samples per fringe period."""
