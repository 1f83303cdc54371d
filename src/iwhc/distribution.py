"""Inverse Weibull density, distribution, quantile and sampling routines.

The distribution of ``1/W`` for Weibull ``W``, with cdf
``F(x) = exp(-(theta*x)**(-alpha))`` on ``x > 0``.  ``alpha`` is the shape and
``theta`` the scale; ``alpha = 1`` and ``alpha = 2`` give the inverse
exponential and inverse Rayleigh special cases.  All formulas are evaluated
through the rate ``lam = theta**(-alpha)``, which turns the cdf into
``exp(-lam * x**(-alpha))`` and keeps the fitting algebra linear in ``lam``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

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


def rate_from_scale(alpha: float, theta: float) -> float:
    """Rate ``lam = theta**(-alpha)``, evaluated in log space."""
    if not (alpha > 0 and np.isfinite(alpha)):
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if not (theta > 0 and np.isfinite(theta)):
        raise DomainError(f"theta must be positive and finite, got {theta}")
    return float(np.exp(-alpha * np.log(theta)))


def scale_from_rate(alpha: float, lam: float) -> float:
    """Scale ``theta = lam**(-1/alpha)``, the inverse of :func:`rate_from_scale`."""
    if not (alpha > 0 and np.isfinite(alpha)):
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if not (lam > 0 and np.isfinite(lam)):
        raise DomainError(f"lam must be positive and finite, got {lam}")
    return float(np.exp(-np.log(lam) / alpha))


@dataclass(frozen=True)
class IwParams:
    """Shape/scale parameter pair; the rate ``lam`` is derived on demand."""

    alpha: float
    theta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if not (np.isfinite(self.theta) and self.theta > 0):
            raise DomainError(f"theta must be positive and finite, got {self.theta}")

    @property
    def lam(self) -> float:
        """Rate parameter ``theta**(-alpha)``."""
        return rate_from_scale(self.alpha, self.theta)

    @classmethod
    def from_rate(cls, alpha: float, lam: float) -> "IwParams":
        """Build parameters from shape and rate instead of shape and scale."""
        return cls(alpha, scale_from_rate(alpha, lam))


def _validate_x(x):
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise DomainError("x must be nonempty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("x must be strictly positive and finite")
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
    arr = np.asarray(prob, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise DomainError("prob must lie strictly inside (0, 1)")
    out = _quantile(arr, p)
    return float(out) if np.ndim(prob) == 0 else out


def _quantile(prob: np.ndarray, p: IwParams) -> np.ndarray:
    return np.exp((np.log(p.lam) - np.log(-np.log(prob))) / p.alpha)


def sample(count: int, p: IwParams, seed) -> np.ndarray:
    """Inverse-transform draws, deterministic for a given seed.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including a
    ``SeedSequence``; distinct replicates should pass distinct, deterministically
    derived seeds (see ``harness`` for the derivation used in simulations).
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    try:
        u = rng.random(count)
    except (ValueError, MemoryError):
        raise DomainError(f"a sample of {count} lifetimes needs {8 * count} bytes, "
                          "which cannot be allocated") from None
    return _quantile(_guard_zero(u), p)


def _sample_rows(count: int, p: IwParams, seeds) -> np.ndarray:
    """:func:`sample` for each seed in ``seeds``, as the rows of one matrix:
    each row draws its uniforms from its own generator, and one
    inverse-transform call maps them all."""
    u = np.empty((len(seeds), count))
    for row, seed in zip(u, seeds):
        np.random.default_rng(seed).random(out=row)
    return _quantile(_guard_zero(u), p)


def _guard_zero(u: np.ndarray) -> np.ndarray:
    """Maps the measure-zero draw u == 0, the one outside (0, 1), to 2**-53."""
    u[u == 0.0] = 0.5 ** 53
    return u
