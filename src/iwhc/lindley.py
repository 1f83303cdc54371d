"""Closed-form approximate posterior means for (alpha, lam) under squared
error loss, from a second-order expansion of the posterior integrals around
the MLE.

The expansion needs the third log-likelihood derivatives l30, l03, l21, l12
(i alpha-derivatives, j lam-derivatives for l_ij), the inverse observed
information tau, and the prior log-gradient

    p1 = (a-1)/alpha_hat - b,      p2 = (c-1)/lam_hat - d

for independent Gamma(a, b) and Gamma(c, d) priors on alpha and lam.  No
interval output: the expansion yields point estimates only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .censoring import ReciprocalRows, ReciprocalSample
from .errors import DomainError, NumericError, _real
from .mle import MleFit, _checked_derivatives, _derivative_rows, _in_floats, _RowFits

__all__ = ["GammaPriors", "LindleyEstimate", "third_derivatives", "lindley_estimates"]


@dataclass(frozen=True)
class GammaPriors:
    """Hyperparameters of independent gamma priors: alpha ~ Gamma(a, rate b),
    lam ~ Gamma(c, rate d).  All zeros give the standard improper reference
    prior (density proportional to 1/alpha * 1/lam)."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            v = getattr(self, name)
            if not 0.0 <= _real(f"hyperparameter {name}", v) < np.inf:
                raise DomainError(f"hyperparameter {name} must be >= 0, got {v}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class LindleyEstimate:
    alpha_L: float
    lambda_L: float
    theta_L: float


def third_derivatives(
    alpha_hat: float, lam_hat: float, s: ReciprocalSample
) -> tuple[float, float, float, float]:
    """(l30, l03, l21, l12) evaluated at the supplied point.

    For complete samples the censoring contributions vanish, leaving
    l30 = 2r/alpha**3 - lam*sum(x**alpha * log(x)**3), l03 = 2r/lam**3,
    l21 = -sum(x**alpha * log(x)**2) and l12 = 0.
    """
    return _checked_derivatives(alpha_hat, lam_hat, s, 3)[3]


def _expansion(pw, alpha_hat, lam_hat, t11, t12, t22, l30, l03, l21, l12, p1, p2):
    """(alpha_L, lambda_L): the MLE plus the curvature and prior corrections,
    for floats or arrays (``pw`` as in :func:`iwhc.mle._derivative_terms`)."""
    t21 = t12
    corr_a = 0.5 * (l30 * pw(t11, 2) + l03 * t21 * t22 + 3.0 * l21 * t11 * t12
                    + l12 * (t22 * t11 + 2.0 * pw(t21, 2)))
    corr_l = 0.5 * (l30 * t12 * t11 + l03 * pw(t22, 2) + l21 * (t11 * t22 + 2.0 * pw(t12, 2))
                    + 3.0 * l12 * t22 * t21)
    return (alpha_hat + corr_a + p1 * t11 + p2 * t12,
            lam_hat + corr_l + p1 * t21 + p2 * t22)


def lindley_estimates(fit: MleFit, priors: GammaPriors, s: ReciprocalSample) -> LindleyEstimate:
    """Expansion-corrected estimates of alpha and lam (theta derived), from
    the third derivatives of the log-likelihood of ``s`` at the MLE."""
    if not fit.converged:
        raise DomainError("the expansion must be evaluated at a converged MLE")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):    # they may overflow
        thirds = third_derivatives(fit.alpha_hat, fit.lam_hat, s)
    return _estimate(fit, priors, thirds)


def _estimate(fit: MleFit, priors: GammaPriors, thirds: tuple) -> LindleyEstimate:
    """:func:`lindley_estimates` from ``thirds``, the third derivatives at the MLE."""
    alpha_hat, lam_hat = fit.alpha_hat, fit.lam_hat
    # a wide covariance overflows the corrections or theta
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        p1 = (priors.a - 1.0) / alpha_hat - priors.b
        p2 = (priors.c - 1.0) / lam_hat - priors.d
        if not (np.isfinite(p1) and np.isfinite(p2)):
            raise NumericError("prior gradient overflowed; estimate too close to zero")
        alpha_L, lambda_L = _in_floats(_expansion, operator.pow, alpha_hat, lam_hat, fit.cov.v11,
                                       fit.cov.v12, fit.cov.v22, *thirds, p1, p2)
        theta_L = np.exp(-np.log(lambda_L) / alpha_L)
    if not (np.isfinite(alpha_L) and np.isfinite(lambda_L)):
        raise NumericError(
            f"expansion overflowed to ({alpha_L}, {lambda_L}); the posterior covariance "
            "is too wide for the quadratic approximation"
        )
    if not (alpha_L > 0 and lambda_L > 0):
        raise NumericError(
            f"expansion produced nonpositive estimates ({alpha_L}, {lambda_L}); "
            "the quadratic approximation is unreliable for this sample"
        )
    if not 0.0 < theta_L < np.inf:
        raise NumericError(
            f"theta = lambda**(-1/alpha) at the expansion estimate ({alpha_L}, {lambda_L}) "
            f"is {theta_L}, outside the float64 range"
        )
    return LindleyEstimate(float(alpha_L), float(lambda_L), float(theta_L))


def _lindley_rows(fits: _RowFits, rows: ReciprocalRows, priors) -> list:
    """:func:`lindley_estimates` on every ok row of ``fits`` under each of
    ``priors``, with the same bits: ``(alpha_L, lambda_L, ok)`` arrays per
    prior, ``ok`` False on the rows that failed to fit and where
    lindley_estimates raises NumericError."""
    good = np.flatnonzero(fits.ok)
    alpha, lam = fits.alpha[good], fits.lam[good]
    out = []
    with np.errstate(all="ignore"):
        thirds = _derivative_rows(alpha, lam, rows, good, 3)[6:]    # the same for every prior
        for prior in priors:
            p1 = (prior.a - 1.0) / alpha - prior.b
            p2 = (prior.c - 1.0) / lam - prior.d
            alpha_L, lambda_L = _expansion(np.float_power, alpha, lam, fits.v11[good],
                                           fits.v12[good], fits.v22[good], *thirds, p1, p2)
            theta_L = np.exp(-np.log(lambda_L) / alpha_L)
            fine = (np.isfinite(p1) & np.isfinite(p2) & np.isfinite(alpha_L)
                    & np.isfinite(lambda_L) & (alpha_L > 0) & (lambda_L > 0)
                    & (0.0 < theta_L) & (theta_L < np.inf))
            ok = np.zeros(fits.ok.size, dtype=bool)
            ok[good] = fine
            est = np.full((2, ok.size), np.nan)
            est[:, good] = alpha_L, lambda_L
            out.append((est[0], est[1], ok))
    return out
