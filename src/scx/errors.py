"""Exception hierarchy shared across the library and the CLI."""

from operator import index


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


def _index(value, what: str) -> int:
    """``value`` as an integer by ``operator.index`` (an int, a bool, or a type
    that declares itself one), or ``MalformedInputError`` naming ``what`` and
    ``value`` as the caller gave it: the one rule by which every public
    callable reads its integer arguments, once, where they enter."""
    try:
        return index(value)
    except TypeError:
        raise MalformedInputError(f"{what} must be an integer, got {value!r}") from None
