"""Exception and warning types shared across the package."""


class TvgmdError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteInputError(TvgmdError):
    """Input data contains NaN or infinite entries."""


class BadDimensionsError(TvgmdError):
    """Input matrix is too small or has the wrong shape."""


class BadParameterError(TvgmdError):
    """A configuration parameter is out of its valid range."""


class DimensionMismatchError(TvgmdError):
    """Operands do not share a consistent shape or grid."""


class DegenerateModeError(TvgmdError):
    """A mode spectrum is identically zero; no center frequency exists."""


class DegenerateInputError(TvgmdError):
    """The graph-learning subproblem is ill-posed for this input."""


class NegativeWeightError(TvgmdError):
    """Edge weights must be nonnegative."""


class SolveFailureError(TvgmdError):
    """A linear solve failed; the system matrix is corrupted."""


class NyquistViolationError(TvgmdError):
    """A requested tone is at or above half the sampling rate."""


class SignalParseError(TvgmdError):
    """A CSV cell or row could not be parsed."""


class EmptyFileError(TvgmdError):
    """The input file contains no data rows."""


class NotConvergedWarning(UserWarning):
    """An iterative solver hit its iteration cap before its tolerance."""
