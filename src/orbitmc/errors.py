"""Exception types shared across the checker."""


class CheckerError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CheckerError):
    """Syntax or static-semantics error in an input text, with position."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        if line is not None:
            super().__init__(f"{line}:{col}: {message}")
        else:
            super().__init__(message)


class ResourceLimitError(CheckerError):
    """A configured bound (state count, group enumeration cap) was exceeded.

    ``partial_stats`` carries whatever statistics were gathered before the
    limit hit, when the failing operation tracks any.
    """

    def __init__(self, message, partial_stats=None):
        super().__init__(message)
        self.partial_stats = partial_stats


class UnsupportedModelError(CheckerError):
    """The requested operation does not apply to this program.

    Raised chiefly when counter abstraction or sort-based canonicalization
    is asked for on a program with pid-typed shared variables.
    """


class InternalError(CheckerError):
    """An internal invariant of the checker failed: a bug, not an input error.

    Raised by explicit checks rather than ``assert`` so that they still
    fire under ``python -O``.
    """
