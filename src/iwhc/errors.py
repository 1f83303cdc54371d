"""Exception types shared across the package, and the integer, real number,
float array, data and positive array checks that raise one."""

import numbers
import operator
import reprlib

import numpy as np


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


def _real(name: str, value) -> float:
    """``value`` as a Python float: a real number (an int, a float or a
    numpy number, not a bool or a string) within the float range.  Else
    DomainError.  Callers check the range they need."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} is outside the float range, got {value!r}") from None


def _floats(name: str, values) -> np.ndarray:
    """``values`` as a float array of any shape.  Else DomainError naming
    the input that is not numbers (a string, a ragged list, an int past 1e308)."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be numbers, got {reprlib.repr(values)}") from None


def _data(name: str, values) -> np.ndarray:
    """``values`` as a one-dimensional float array (:func:`_floats`).  Else
    DomainError naming its shape."""
    arr = _floats(name, values)
    if arr.ndim != 1:
        raise DomainError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _positive(name: str, values) -> np.ndarray:
    """``values`` as a float array (:func:`_floats`) whose every element is
    in (0, inf).  Else DomainError; NaN fails too."""
    arr = _floats(name, values)
    if not np.all((arr > 0.0) & (arr < np.inf)):
        raise DomainError(f"{name} must be strictly positive and finite")
    return arr
