"""Exception types shared across the package, and how a message quotes an
input value."""


def prefix(text: str) -> str:
    """``text`` as an error message quotes it: whole up to 40 characters,
    else its first 32 and an ellipsis, so a huge input is not echoed."""
    return text if len(text) <= 40 else text[:32] + "..."


def quote(value: object) -> str:
    """``repr(value)`` with `prefix` applied to a string's text, else to the
    repr, so a short value reads as ``{value!r}`` does."""
    return repr(prefix(value)) if isinstance(value, str) else prefix(repr(value))


class L21Error(Exception):
    """Base class for all package errors."""


class ValidationError(L21Error):
    """A structural precondition failed (bad rotation, partial colouring, ...)."""


class CapacityError(L21Error):
    """An enumeration bound was exceeded; the request is refused, not attempted."""


class InconsistencyError(L21Error):
    """A witness contradicts itself (e.g. one literal coloured two ways)."""


class FormulaParseError(L21Error):
    """DIMACS input rejected; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
