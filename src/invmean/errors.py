"""Exception hierarchy shared by all invmean modules, and the one check of
a count (an iteration cap, a step count, a number of samples, an arity,
a number of vertices)."""

__all__ = [
    "InvMeanError",
    "DomainError",
    "ShapeError",
    "ValidationError",
    "SpecError",
    "PreconditionError",
    "InternalConsistencyError",
]


class InvMeanError(Exception):
    """Base class for every error raised by this package."""


class DomainError(InvMeanError, ValueError):
    """An argument lies outside the interval a mean is defined on."""


class ShapeError(InvMeanError, ValueError):
    """A vector, row, or trace has the wrong length."""


class ValidationError(InvMeanError, ValueError):
    """A declared structure is inconsistent: a bad index range, interval or
    field (a `strict` declaration that is no bool, say), or a mean that
    `validate_mean` falsified by sampling."""


class SpecError(ValidationError):
    """A mapping spec file violates the schema; the message carries the
    offending location (key, row, position)."""


class PreconditionError(InvMeanError, ValueError):
    """An operation was called outside its stated precondition."""


class InternalConsistencyError(InvMeanError, RuntimeError):
    """A bound that should be unreachable was exceeded; indicates a bug."""


def check_count(value: object, what: str, least: int = 1) -> None:
    """ValidationError unless value is an int >= least.  A bool is an int
    subclass but no count, and a float such as 2.5 would be compared as
    one and then counted up to in whole steps."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
