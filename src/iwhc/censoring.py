"""Type-I hybrid censoring: stop at the R-th failure or at time T, whichever
comes first, and record the failures observed up to that point."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError

__all__ = ["HybridScheme", "HybridSample", "ReciprocalSample", "apply_scheme", "reciprocals"]


@dataclass(frozen=True)
class HybridScheme:
    """Test design: ``n`` units on test, failure budget ``R``, time budget ``T``.

    ``T = inf`` is the conventional way to express "no time limit", which with
    ``R = n`` reduces to a complete sample.
    """

    n: int
    R: int
    T: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.R <= self.n:
            raise DomainError(f"R must satisfy 1 <= R <= n, got R={self.R}, n={self.n}")
        if not self.T > 0:
            raise DomainError(f"T must be positive, got {self.T}")


@dataclass(frozen=True)
class HybridSample:
    """Observed portion of a censored test.

    ``times`` holds the ``r`` ascending failure times, every one ``<= u``.
    The censoring terminus ``u`` is the R-th failure time when that failure
    occurred within the time budget, and ``T`` otherwise; the remaining
    ``n - r`` units survived past ``u``.
    """

    times: np.ndarray
    r: int
    u: float
    scheme: HybridScheme

    @property
    def n(self) -> int:
        return self.scheme.n


@lru_cache(maxsize=128)
def _centred_positions(r: int, n: int) -> np.ndarray:
    """``y - mean(y)`` for the plotting positions ``y = log(-log((i -
    0.5)/n))``, i = 1..r, of :attr:`ReciprocalSample.regression_start`.
    Read-only: every sample with this (r, n) shares it."""
    i = np.arange(1, r + 1)
    y = np.log(-np.log((i - 0.5) / n))
    out = y - y.mean()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ReciprocalSample:
    """Reciprocals ``x_i = 1/t_(i)`` of the observed failure times.

    The order follows ``times``, so ``x`` is nonincreasing with every entry
    ``>= 1/u``.  This is the working representation of the likelihood code:
    inverse Weibull data become Weibull data under ``t -> 1/t``.

    The logs that the likelihood code reads, and the regression start of the
    MLE and of the g2 mode search, are computed once per sample and cached, so
    ``x`` must not be changed after construction.
    """

    x: np.ndarray
    u: float
    r: int
    n: int

    @cached_property
    def log_x(self) -> np.ndarray:
        return np.log(self.x)

    @cached_property
    def log_x_powers(self) -> np.ndarray:
        """Rows ``(log x)**k`` for k = 0..3, so that one product with
        ``x**alpha`` and one row sum give the power sums ``S_0..S_3``."""
        lx = self.log_x
        out = np.empty((4, lx.size))
        out[0] = 1.0
        out[1] = lx
        np.square(lx, out=out[2])
        np.power(lx, 3, out=out[3])
        return out

    @cached_property
    def log_x_max(self) -> float:
        return float(self.log_x.max())

    @cached_property
    def log_x_shifted(self) -> np.ndarray:
        """``log x - max log x``: its exponential times alpha has largest term 1."""
        return self.log_x - self.log_x_max

    @cached_property
    def sum_log_x(self) -> float:
        return float(self.log_x.sum())

    @cached_property
    def log_u(self) -> float:
        return float(np.log(self.u))

    @cached_property
    def _thirds(self) -> dict:
        """Third log-likelihood derivatives by point ``(alpha, lam)``, kept by
        the Lindley expansion, which reads them at one MLE under every prior."""
        return {}

    @cached_property
    def regression_start(self) -> tuple[float, float]:
        """``(alpha0, lam0)`` from regressing log(-log F_hat) on log x over
        the observed portion.

        Plotting positions (i - 0.5)/n estimate F at t_(i); under the model
        log(-log F) = log(lam) + alpha*log(x), so the slope estimates alpha.
        alpha0 is 1 when the slope is useless or x**alpha0 under- or
        overflows, and lam0 = r / sum x**alpha0.
        """
        lx = self.log_x
        cx = lx - lx.mean()
        with np.errstate(all="ignore"):
            denom = (cx ** 2).sum()
            alpha0 = (float((cx * _centred_positions(self.r, self.n)).sum() / denom)
                      if denom > 0 else 1.0)
            total = float(np.power(self.x, alpha0).sum())
        if not (np.isfinite(alpha0) and alpha0 > 0.05 and 0.0 < total < np.inf):
            alpha0, total = 1.0, float(self.x.sum())
        return alpha0, self.r / total


def apply_scheme(complete_times, scheme: HybridScheme) -> HybridSample:
    """Censor a complete sample of ``scheme.n`` failure times.

    Sorts ascending (stable, so ties keep their order), then truncates at
    ``u = min(t_(R), T)``.  A failure exactly at ``T`` counts as observed.
    When the R-th failure occurs within the budget, exactly ``R`` failures are
    kept even if further ties at ``t_(R)`` exist: the test stops at that
    failure event.
    """
    times = np.asarray(complete_times, dtype=float)
    if times.ndim != 1 or times.size != scheme.n:
        raise DomainError(
            f"expected exactly {scheme.n} complete failure times, got {times.size}"
        )
    if not np.all(np.isfinite(times)) or np.any(times <= 0.0):
        raise DomainError("failure times must be strictly positive and finite")
    srt = np.sort(times, kind="stable")
    t_R = srt[scheme.R - 1]
    if t_R <= scheme.T:
        observed = srt[: scheme.R]
        u = float(t_R)
    else:
        observed = srt[srt <= scheme.T]
        u = float(scheme.T)
    return HybridSample(times=observed.copy(), r=int(observed.size), u=u, scheme=scheme)


def reciprocals(s: HybridSample) -> ReciprocalSample:
    """Map observed times to their reciprocals, carrying (u, r, n) through."""
    if np.any(s.times <= 0.0):
        raise DomainError("failure times must be strictly positive")
    return ReciprocalSample(x=1.0 / s.times, u=s.u, r=s.r, n=s.n)
