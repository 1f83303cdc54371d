"""Exception types shared across the package, and the integer check that
raises one."""

import operator


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


class InsufficientDataError(ValueError):
    """Too few observed failures to carry out the requested estimation."""


class NumericError(RuntimeError):
    """A numerical subroutine (mode search, matrix inversion, ...) failed."""


class ConvergenceError(RuntimeError):
    """An iterative solver did not converge.

    Carries the last iterate so callers can inspect it.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class DegenerateWeightsError(RuntimeError):
    """Every importance weight underflowed to zero."""


def _integer(name: str, value, least=None) -> int:
    """``value`` as a Python int: an int or a numpy integer, not a bool, and
    no smaller than ``least`` where that is given.  Else DomainError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return value
