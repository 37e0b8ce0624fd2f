"""Exception hierarchy shared across the library and the CLI."""


class ScxError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(ScxError):
    """Raised for structurally invalid in-memory input (e.g. a repeated vertex)."""


class ParseError(ScxError):
    """Raised for unreadable files; the message names the offending line."""


class PreconditionError(ScxError):
    """Raised when an operation's stated precondition does not hold."""


class FaceNotPresentError(PreconditionError):
    """Raised when an operation is asked about a face the complex does not contain."""


class TooLargeError(ScxError):
    """Raised by size-guarded algorithms instead of timing out silently."""


class UnknownStatementError(ScxError):
    """Raised for a verification statement id that is not registered."""


class InternalCheckError(ScxError):
    """Raised when an internal certificate fails: a bug, not bad input."""
