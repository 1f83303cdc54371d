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

from dataclasses import dataclass

import numpy as np

from .censoring import ReciprocalSample
from .errors import DomainError, NumericError
from .mle import CovarianceMatrix, MleFit, _derivatives

__all__ = ["GammaPriors", "LindleyWorkspace", "LindleyEstimate",
           "third_derivatives", "lindley_workspace", "lindley_estimates"]


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
            if not (np.isfinite(v) and v >= 0):
                raise DomainError(f"hyperparameter {name} must be >= 0, got {v}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class LindleyWorkspace:
    """Ingredients of the expansion, exposed for diagnostics and testing."""

    l30: float
    l03: float
    l21: float
    l12: float
    tau: CovarianceMatrix
    p1: float
    p2: float


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
    return _derivatives(alpha_hat, lam_hat, s, 3)[3]


def lindley_workspace(fit: MleFit, priors: GammaPriors, s: ReciprocalSample) -> LindleyWorkspace:
    if not fit.converged:
        raise DomainError("the expansion must be evaluated at a converged MLE")
    l30, l03, l21, l12 = third_derivatives(fit.alpha_hat, fit.lam_hat, s)
    p1 = (priors.a - 1.0) / fit.alpha_hat - priors.b
    p2 = (priors.c - 1.0) / fit.lam_hat - priors.d
    if not (np.isfinite(p1) and np.isfinite(p2)):
        raise NumericError("prior gradient overflowed; estimate too close to zero")
    return LindleyWorkspace(l30, l03, l21, l12, fit.cov, p1, p2)


def lindley_estimates(
    fit: MleFit,
    priors: GammaPriors,
    s: ReciprocalSample,
    curvature: bool = True,
) -> LindleyEstimate:
    """Expansion-corrected estimates of alpha and lam (theta derived).

    ``curvature=False`` drops the third-derivative terms, leaving only the
    prior tilt; with priors (1, 0, 1, 0) that reduces to the MLE exactly,
    which is the debugging identity exposed by the command line.
    """
    # numpy scalars overflow to inf where Python floats would raise; a wide
    # covariance overflows the third derivatives or the corrections
    with np.errstate(over="ignore", invalid="ignore"):
        ws = lindley_workspace(fit, priors, s)
        t11, t12, t22 = np.float64(ws.tau.v11), np.float64(ws.tau.v12), np.float64(ws.tau.v22)
        t21 = t12
        if curvature:
            corr_a = 0.5 * (ws.l30 * t11 ** 2 + ws.l03 * t21 * t22
                            + 3.0 * ws.l21 * t11 * t12
                            + ws.l12 * (t22 * t11 + 2.0 * t21 ** 2))
            corr_l = 0.5 * (ws.l30 * t12 * t11 + ws.l03 * t22 ** 2
                            + ws.l21 * (t11 * t22 + 2.0 * t12 ** 2)
                            + 3.0 * ws.l12 * t22 * t21)
        else:
            corr_a = corr_l = 0.0
        alpha_L = fit.alpha_hat + corr_a + ws.p1 * t11 + ws.p2 * t12
        lambda_L = fit.lam_hat + corr_l + ws.p1 * t21 + ws.p2 * t22
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
    theta_L = float(np.exp(-np.log(lambda_L) / alpha_L))
    return LindleyEstimate(float(alpha_L), float(lambda_L), theta_L)
