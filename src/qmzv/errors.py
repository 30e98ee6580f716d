"""Exception types shared across the package."""


class QmzvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(QmzvError):
    """Malformed expression text. Carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


class DomainError(QmzvError):
    """Input lies outside the domain of the requested operation."""


class NotInH1(QmzvError):
    """An x/y/r word does not factor into blocks x^(k-1)y and r."""


class NotAnIndexWord(QmzvError):
    """A word contains the letter xi and cannot be read as an index."""


class NotHomogeneous(QmzvError):
    """An element does not have a single total weight."""


class NotAdmissible(QmzvError):
    """An index does not start with a part >= 2."""


class InternalError(RuntimeError):
    """An exact self-check failed: a defect of this package, not of its input."""
