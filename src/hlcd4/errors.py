"""Exception types shared across the package."""


class Hlcd4Error(Exception):
    """Base class for all domain errors raised by this package.

    Keyword fields become attributes; the ones that are not None, in the
    order given, are also kept in ``fields`` for error reports.
    """

    def __init__(self, message="", **fields):
        super().__init__(message)
        self.__dict__.update(fields)
        self.fields = {key: value for key, value in fields.items() if value is not None}


class LengthMismatchError(Hlcd4Error):
    """Two vectors that must have equal length do not."""


class DimensionMismatchError(Hlcd4Error):
    """Matrix shapes are not conformable for the requested operation."""


class RankDeficientError(Hlcd4Error):
    """A matrix that must have full row rank has dependent rows."""


class NotStandardFormError(Hlcd4Error):
    """A generator matrix was required in the shape (I_k | A) but is not."""


class IsotropyError(Hlcd4Error):
    """A vector pair violates the self/mutual-orthogonality hypothesis.

    Carries the offending inner products as the fields ``xx``, ``yy`` and
    ``xy``, so callers can report which of (x,x)_h, (y,y)_h, (x,y)_h is
    nonzero.
    """


class ZeroVectorError(IsotropyError):
    """A vector of an isotropic pair is the zero vector.

    Carries the pair's inner products ``xx``, ``yy`` and ``xy`` like any
    IsotropyError.
    """


class AllCoordinatesDeletedError(Hlcd4Error):
    """Puncturing or shortening would delete every coordinate."""


class PreconditionError(Hlcd4Error):
    """An operation's precondition does not hold for the given code."""


class NotLcdError(Hlcd4Error):
    """The code has a nontrivial Hermitian hull where an LCD code is required."""


class BudgetExceededError(Hlcd4Error):
    """An enumeration budget ran out before the result was exact.

    The field ``upper_bound`` is the best (smallest) codeword weight seen so
    far.
    """


class TooLargeError(Hlcd4Error):
    """The instance is too large for the exhaustive oracle path."""


class TargetNotReached(Hlcd4Error):
    """A search used its whole budget without reaching the target weight.

    The field ``candidates_tried`` is the number of candidates it examined.
    """


class ExhaustedRetriesError(Hlcd4Error):
    """Rejection sampling hit its retry cap."""


class NoPairExistsError(Hlcd4Error):
    """No isotropic vector pair exists at the requested length."""


class CodeFileError(Hlcd4Error, ValueError):
    """A generator-matrix file does not conform to the expected format.

    It is also a ValueError, the error ``LinearCode.from_symbols`` documents
    for malformed text.  The message ends with the location given by the
    fields ``line`` and ``column``, where they are known.
    """

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc, line=line, column=column)


class UnknownEntryError(Hlcd4Error):
    """A (length, dimension) pair is outside the bounds table coverage."""
