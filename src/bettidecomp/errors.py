"""Exception hierarchy.

Every domain error raised by this package derives from :class:`BettiError`,
so callers can catch one base class.  Parse errors carry source positions,
and cone-membership failures carry the partial result that was computed
before the failure was detected.
"""

from __future__ import annotations


class BettiError(Exception):
    """Base class for all errors raised by bettidecomp."""


class InvalidDiagram(BettiError):
    """A Betti diagram violates a structural precondition (negative or zero
    input where forbidden, empty interior column, float entry, ...)."""


class ColumnOutOfRange(InvalidDiagram, IndexError):
    """A homological index lies outside [0, n].  Also an ``IndexError``, so
    callers that catch the index error by name still do."""


class InvalidDegreeSequence(BettiError):
    """Degree sequence is not strictly increasing."""


class CodimensionExceedsAmbient(BettiError):
    """Degree sequence is longer than n + 1."""


class NotGeneratedInDegreeZero(BettiError):
    """Normalization requires the first degree to be zero."""


class UndefinedOnZero(BettiError):
    """Operation is undefined on the zero diagram."""


class WindowMismatch(BettiError):
    """Diagram support or ambient size does not fit the given window."""


class NotInSubspace(BettiError):
    """Diagram fails the Herzog-Kuhl equations required by the operation."""

    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals


class NotACoverTriple(BettiError):
    """The three diagrams are not consecutive in any maximal chain."""


class InvalidTableau(BettiError):
    """Numbering is not a valid tableau for the window."""


class ChainNotMaximal(BettiError):
    """Operation requires a maximal chain."""


class NotAChain(BettiError):
    """Elements are not totally ordered."""


class InvariantViolated(BettiError):
    """A construction broke one of its own invariants (a defect, not bad input)."""


class NotInCone(BettiError):
    """Diagram is not a positive combination of a chain of pure diagrams.

    ``reason`` is one of the module constants below; ``partial`` holds the
    terms peeled off before the failure and ``residual`` what was left.
    """

    INVALID_LEADING_SEQUENCE = "invalid_leading_sequence"
    RESIDUAL = "residual"

    def __init__(self, reason, msg, partial=None, residual=None):
        super().__init__(msg)
        self.reason = reason
        self.partial = partial
        self.residual = residual


class NotSingleDegreeGenerated(BettiError):
    """Shift bounds require all generators in degree zero."""


class WindowTooLarge(BettiError):
    """Enumeration guard exceeded."""


class SeriesTooLong(BettiError):
    """A truncated series, or a numerator to peel, would hold more
    coefficients than ``core._MAX_SERIES_LENGTH``."""


class ParseError(BettiError):
    """Malformed diagram text.  Carries 1-based line and column."""

    def __init__(self, msg, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(msg + loc)
        self.line = line
        self.column = column


class DuplicateEntry(BettiError):
    """The same (i, j) position occurs twice in a diagram document."""
