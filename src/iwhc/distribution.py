"""Inverse Weibull density, distribution, quantile and sampling routines.

The distribution of ``1/W`` for Weibull ``W``, with cdf
``F(x) = exp(-(theta*x)**(-alpha))`` on ``x > 0``.  ``alpha`` is the shape and
``theta`` the scale; ``alpha = 1`` and ``alpha = 2`` give the inverse
exponential and inverse Rayleigh special cases.  All formulas are evaluated
through the rate ``lam = theta**(-alpha)``, which turns the cdf into
``exp(-lam * x**(-alpha))`` and keeps the fitting algebra linear in ``lam``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _floats, _integer, _positive, _real, _rng

__all__ = [
    "IwParams",
    "pdf",
    "cdf",
    "quantile",
    "sample",
    "rate_from_scale",
    "scale_from_rate",
]

# exp() saturation guards: beyond these the result under/overflows anyway
_EXP_MAX = 709.0


def _check_positive(**values) -> None:
    """DomainError unless each of ``values`` is a real number
    (:func:`errors._real`) in (0, inf)."""
    for name, value in values.items():
        if not 0.0 < _real(name, value) < np.inf:
            raise DomainError(f"{name} must be positive and finite, got {value}")


def _finite_exp(name: str, exponent) -> float:
    """``exp(exponent)`` as a float, DomainError naming ``name`` where it
    overflows: the parameters have no float64 rate or scale."""
    with np.errstate(over="ignore"):
        value = float(np.exp(exponent))
    if value == np.inf:
        raise DomainError(f"{name} = exp({float(exponent)}) is outside the float64 range")
    return value


def rate_from_scale(alpha: float, theta: float) -> float:
    """Rate ``lam = theta**(-alpha)``, evaluated in log space."""
    _check_positive(alpha=alpha, theta=theta)
    return _finite_exp("lam", -alpha * np.log(theta))


def scale_from_rate(alpha: float, lam: float) -> float:
    """Scale ``theta = lam**(-1/alpha)``, the inverse of :func:`rate_from_scale`."""
    _check_positive(alpha=alpha, lam=lam)
    return _finite_exp("theta", -np.log(lam) / alpha)


@dataclass(frozen=True)
class IwParams:
    """Shape/scale parameter pair; the rate ``lam`` is derived on demand."""

    alpha: float
    theta: float

    def __post_init__(self):
        _check_positive(alpha=self.alpha, theta=self.theta)

    @property
    def lam(self) -> float:
        """Rate parameter ``theta**(-alpha)``."""
        return rate_from_scale(self.alpha, self.theta)

    @classmethod
    def from_rate(cls, alpha: float, lam: float) -> "IwParams":
        """Build parameters from shape and rate instead of shape and scale."""
        return cls(alpha, scale_from_rate(alpha, lam))


def _validate_x(x):
    arr = _positive("x", x)
    if arr.size == 0:
        raise DomainError("x must be nonempty")
    return arr


def _log_tail(x: np.ndarray, p: IwParams) -> np.ndarray:
    """log of (theta*x)**(-alpha) == log(lam) - alpha*log(x), clipped for exp()."""
    t = np.log(p.lam) - p.alpha * np.log(x)
    return np.minimum(t, _EXP_MAX)


def pdf(x, p: IwParams):
    """Density ``alpha*lam * x**-(alpha+1) * exp(-lam*x**-alpha)``.

    Evaluated in log space so that very small ``x`` (where the direct power
    ``x**-(alpha+1)`` overflows) underflows cleanly to 0 instead.
    """
    arr = _validate_x(x)
    e = np.exp(_log_tail(arr, p))
    log_f = np.log(p.alpha) + np.log(p.lam) - (p.alpha + 1.0) * np.log(arr) - e
    out = np.exp(log_f)
    return float(out) if np.ndim(x) == 0 else out


def cdf(x, p: IwParams):
    """Distribution function ``exp(-lam * x**-alpha)``."""
    arr = _validate_x(x)
    out = np.exp(-np.exp(_log_tail(arr, p)))
    return float(out) if np.ndim(x) == 0 else out


def quantile(prob, p: IwParams):
    """Inverse cdf: ``(lam / -log(prob))**(1/alpha)`` for ``prob`` in (0, 1)."""
    arr = _floats("prob", prob)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise DomainError("prob must lie strictly inside (0, 1)")
    out = _quantile(arr, p)
    return float(out) if np.ndim(prob) == 0 else out


def _quantile(prob: np.ndarray, p: IwParams) -> np.ndarray:
    return np.exp((np.log(p.lam) - np.log(-np.log(prob))) / p.alpha)


def sample(count: int, p: IwParams, seed) -> np.ndarray:
    """Inverse-transform draws, deterministic for a given seed.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including a
    ``SeedSequence``, and else raises DomainError; distinct replicates should
    pass distinct, deterministically derived seeds (see ``harness`` for the
    streams used in simulations).
    """
    count = _integer("count", count, 1)
    return _lifetimes(_rng(seed), (count,), p)


def _lifetimes(rng: np.random.Generator, shape: tuple, p: IwParams) -> np.ndarray:
    """An array of ``shape`` lifetimes from the next uniforms of ``rng``,
    filled in C order: one ``random()`` call, the measure-zero draw u == 0
    (the one outside (0, 1)) read as 2**-53, and one inverse-transform
    call.  DomainError where the array cannot be allocated."""
    try:
        u = np.empty(shape)
    except (ValueError, MemoryError):
        size = math.prod(shape)
        raise DomainError(f"a sample of {size} lifetimes needs {8 * size} bytes, "
                          "which cannot be allocated") from None
    rng.random(out=u)
    u[u == 0.0] = 0.5 ** 53
    return _quantile(u, p)
