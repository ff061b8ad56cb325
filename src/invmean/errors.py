"""Exception hierarchy shared by all invmean modules."""


class InvMeanError(Exception):
    """Base class for every error raised by this package."""


class DomainError(InvMeanError, ValueError):
    """An argument lies outside the interval a mean is defined on."""


class ShapeError(InvMeanError, ValueError):
    """A vector, row, or trace has the wrong length."""


class ValidationError(InvMeanError, ValueError):
    """A declared structure is inconsistent: bad index range, bad interval,
    or structural flags falsified by sampling."""


class SpecError(ValidationError):
    """A mapping spec file violates the schema; the message carries the
    offending location (key, row, position)."""


class PreconditionError(InvMeanError, ValueError):
    """An operation was called outside its stated precondition."""


class ConvergenceError(InvMeanError, RuntimeError):
    """An iteration whose limit is the requested result did not converge."""


class InternalConsistencyError(InvMeanError, RuntimeError):
    """A bound that should be unreachable was exceeded; indicates a bug."""
